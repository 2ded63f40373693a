// Tests for the startup kernel calibration (core/kernel_autotune.h): the
// sweep must pick a concrete measurable kernel, the disabled path must pin
// the documented fallback exactly, and the min-piece threshold must route
// small pieces to the branchy kernel element-for-element.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/crack_ops.h"
#include "core/kernel_autotune.h"
#include "util/rng.h"

namespace aidx {
namespace {

std::vector<std::int32_t> RandomI32(std::size_t n, std::uint64_t domain,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int32_t> out(n);
  for (auto& v : out) v = static_cast<std::int32_t>(rng.NextBounded(domain));
  return out;
}

TEST(KernelAutotuneTest, DisabledCalibrationPinsDocumentedFallback) {
  SetCalibrationEnabled(false);
  const KernelCalibration& cal = Calibrate();
  EXPECT_FALSE(cal.calibrated);
  EXPECT_EQ(cal.kernel_w4, CrackKernel::kPredicatedUnrolled);
  EXPECT_EQ(cal.kernel_w8, CrackKernel::kPredicatedUnrolled);
  EXPECT_EQ(cal.min_piece_w4, kPredicationMinPiece);
  EXPECT_EQ(cal.min_piece_w8, kPredicationMinPiece);
  EXPECT_EQ(ResolveCrackKernel(CrackKernel::kAuto, 4),
            CrackKernel::kPredicatedUnrolled);
  EXPECT_EQ(ResolveCrackKernel(CrackKernel::kAuto, 8),
            CrackKernel::kPredicatedUnrolled);
  EXPECT_EQ(DefaultCrackMinPiece(4), kPredicationMinPiece);
  EXPECT_EQ(DefaultCrackMinPiece(8), kPredicationMinPiece);
}

TEST(KernelAutotuneTest, SweepPicksAConcreteMeasuredKernel) {
  SetCalibrationEnabled(true);
  const KernelCalibration& cal = Calibrate();
  ASSERT_TRUE(cal.calibrated);
  ASSERT_NE(CalibrationIfRan(), nullptr);
  for (const auto& [kernel, mrows] :
       {std::pair<CrackKernel, const double*>{cal.kernel_w4, cal.mrows_w4},
        {cal.kernel_w8, cal.mrows_w8}}) {
    // The winner is a concrete kernel that was actually measured, and no
    // measured candidate beat it.
    ASSERT_NE(kernel, CrackKernel::kAuto);
    const auto idx = static_cast<std::size_t>(kernel);
    ASSERT_LT(idx, kNumCrackKernels);
    EXPECT_GT(mrows[idx], 0.0);
    for (std::size_t k = 0; k < kNumCrackKernels; ++k) {
      EXPECT_LE(mrows[k], mrows[idx]) << "kernel " << k << " beat the winner";
    }
  }
  // kSimd may only win where a vector ISA exists.
  if (!cal.simd_available) {
    EXPECT_NE(cal.kernel_w4, CrackKernel::kSimd);
    EXPECT_NE(cal.kernel_w8, CrackKernel::kSimd);
    EXPECT_EQ(cal.mrows_w4[static_cast<std::size_t>(CrackKernel::kSimd)], 0.0);
  }
  EXPECT_GT(cal.min_piece_w4, 0u);
  EXPECT_GT(cal.min_piece_w8, 0u);
  // kAuto now resolves to the calibrated winners without re-sweeping.
  EXPECT_EQ(ResolveCrackKernel(CrackKernel::kAuto, 4), cal.kernel_w4);
  EXPECT_EQ(ResolveCrackKernel(CrackKernel::kAuto, 8), cal.kernel_w8);
  EXPECT_EQ(DefaultCrackMinPiece(4), cal.min_piece_w4);
  EXPECT_EQ(DefaultCrackMinPiece(8), cal.min_piece_w8);
}

TEST(KernelAutotuneTest, ResolveIsIdentityForConcreteKernels) {
  SetCalibrationEnabled(false);
  for (const CrackKernel kernel :
       {CrackKernel::kBranchy, CrackKernel::kPredicatedUnrolled,
        CrackKernel::kSimd}) {
    EXPECT_EQ(ResolveCrackKernel(kernel, 4), kernel);
    EXPECT_EQ(ResolveCrackKernel(kernel, 8), kernel);
  }
}

// Pieces below the min-piece threshold must be cracked by the branchy
// kernel regardless of the requested kernel: not just the same split, the
// exact same element order (the fallback IS the branchy sweep).
TEST(KernelAutotuneTest, MinPieceFallbackIsBranchyElementForElement) {
  SetCalibrationEnabled(false);  // threshold = kPredicationMinPiece (128)
  const Cut<std::int32_t> cut{500, CutKind::kLess};
  for (const std::size_t n :
       {std::size_t{17}, std::size_t{100}, kPredicationMinPiece - 1}) {
    const std::vector<std::int32_t> base = RandomI32(n, 1000, 9 + n);
    std::vector<std::int32_t> oracle = base;
    const std::size_t want =
        CrackInTwo<std::int32_t>(oracle, {}, cut, CrackKernel::kBranchy);
    for (const CrackKernel kernel :
         {CrackKernel::kPredicatedUnrolled, CrackKernel::kSimd,
          CrackKernel::kAuto}) {
      std::vector<std::int32_t> got = base;
      // min_piece = 0 defers to DefaultCrackMinPiece() — the fallback
      // threshold with calibration off.
      const std::size_t split =
          CrackInTwo<std::int32_t>(got, {}, cut, kernel, /*min_piece=*/0);
      EXPECT_EQ(split, want) << CrackKernelName(kernel) << " n=" << n;
      EXPECT_EQ(got, oracle) << CrackKernelName(kernel)
                             << " did not take the branchy fallback at n=" << n;
    }
  }
  // An explicit min_piece wins over the process default: a large threshold
  // forces branchy even on big pieces, a threshold of 1 disables the
  // fallback entirely.
  const std::vector<std::int32_t> base = RandomI32(4096, 1000, 77);
  std::vector<std::int32_t> oracle = base;
  CrackInTwo<std::int32_t>(oracle, {}, cut, CrackKernel::kBranchy);
  std::vector<std::int32_t> forced = base;
  CrackInTwo<std::int32_t>(forced, {}, cut, CrackKernel::kPredicatedUnrolled,
                           /*min_piece=*/1u << 20);
  EXPECT_EQ(forced, oracle) << "large min_piece did not force branchy";
}

}  // namespace
}  // namespace aidx
