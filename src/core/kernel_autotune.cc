#include "core/kernel_autotune.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/cut.h"
#include "util/rng.h"
#include "util/timer.h"

namespace aidx {
namespace {

// Sweep sizes: large enough that per-call overhead vanishes and the blocked
// kernels reach steady state, small enough that the whole calibration stays
// in the low milliseconds (it runs once per process, on the first query).
constexpr std::size_t kSweepRows = std::size_t{1} << 17;
constexpr std::size_t kPieceSweepRows = std::size_t{1} << 16;
constexpr int kReps = 2;  // best-of: first rep also warms caches/cpuid

std::mutex& CalibrationMutex() {
  static std::mutex m;
  return m;
}

// Every calibration record ever published, so a record replaced by
// SetCalibrationEnabled stays valid for readers that already hold a
// reference (and stays reachable — no leak-sanitizer noise).
std::vector<std::unique_ptr<const KernelCalibration>>& Records() {
  static std::vector<std::unique_ptr<const KernelCalibration>> v;
  return v;
}

std::atomic<const KernelCalibration*> g_calibration{nullptr};
std::atomic<int> g_enabled_override{-1};  // -1: defer to AIDX_CALIBRATE

template <typename T>
std::vector<T> MakeValues(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> values(n);
  for (auto& v : values) {
    v = static_cast<T>(rng.NextBounded(std::uint64_t{1} << 20));
  }
  return values;
}

/// Best-of-kReps raw crack-in-two throughput (Mrows/s) of `kernel` over a
/// fresh copy of `base`. min_piece = 1 pins the kernel: the sweep measures
/// the kernel itself, not the dispatch fallback it feeds.
template <typename T>
double MeasureCrackMrows(CrackKernel kernel, const std::vector<T>& base,
                         T cut_value) {
  std::vector<T> scratch(base.size());
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    std::copy(base.begin(), base.end(), scratch.begin());
    WallTimer timer;
    CrackInTwo<T, row_id_t>(std::span<T>(scratch), {},
                            Cut<T>{cut_value, CutKind::kLess}, kernel,
                            /*min_piece=*/1);
    const double seconds = timer.ElapsedSeconds();
    if (seconds > 0.0) {
      best = std::max(best, static_cast<double>(base.size()) / (seconds * 1e6));
    }
  }
  return best;
}

/// Same measurement, but cracking independent `piece`-sized sub-spans — the
/// regime the min-piece fallback threshold is about.
template <typename T>
double MeasurePieceMrows(CrackKernel kernel, std::size_t piece,
                         const std::vector<T>& base, T cut_value) {
  std::vector<T> scratch(base.size());
  const Cut<T> cut{cut_value, CutKind::kLess};
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    std::copy(base.begin(), base.end(), scratch.begin());
    std::size_t cracked = 0;
    WallTimer timer;
    for (std::size_t off = 0; off + piece <= scratch.size(); off += piece) {
      CrackInTwo<T, row_id_t>(std::span<T>(scratch.data() + off, piece), {},
                              cut, kernel, /*min_piece=*/1);
      cracked += piece;
    }
    const double seconds = timer.ElapsedSeconds();
    if (seconds > 0.0 && cracked > 0) {
      best = std::max(best, static_cast<double>(cracked) / (seconds * 1e6));
    }
  }
  return best;
}

template <typename T>
void SweepWidth(CrackKernel* kernel_out, std::size_t* min_piece_out,
                double mrows[kNumCrackKernels]) {
  const auto base = MakeValues<T>(kSweepRows, 0xC0FFEE01 + sizeof(T));
  const T cut_value = static_cast<T>(std::uint64_t{1} << 19);  // ~median

  constexpr CrackKernel kCandidates[] = {
      CrackKernel::kBranchy, CrackKernel::kPredicatedUnrolled,
      CrackKernel::kSimd};
  CrackKernel winner = CrackKernel::kPredicatedUnrolled;
  double winner_mrows = 0.0;
  for (const CrackKernel kernel : kCandidates) {
    if (kernel == CrackKernel::kSimd && !internal::SimdKernelAvailable()) {
      continue;
    }
    const double m = MeasureCrackMrows<T>(kernel, base, cut_value);
    mrows[static_cast<std::size_t>(kernel)] = m;
    if (m > winner_mrows) {
      winner_mrows = m;
      winner = kernel;
    }
  }
  *kernel_out = winner;

  // Crossover sweep: the smallest piece size where the winning kernel stops
  // losing to branchy becomes the fallback threshold. If branchy wins the
  // headline outright the threshold is moot; if it wins at every tested
  // piece size, park the threshold above the sweep.
  *min_piece_out = kPredicationMinPiece;
  if (winner != CrackKernel::kBranchy) {
    const auto pieces_base =
        MakeValues<T>(kPieceSweepRows, 0xC0FFEE02 + sizeof(T));
    std::size_t chosen = 1024;
    for (const std::size_t piece : {32u, 64u, 128u, 256u, 512u}) {
      const double branchy = MeasurePieceMrows<T>(CrackKernel::kBranchy, piece,
                                                  pieces_base, cut_value);
      const double contender =
          MeasurePieceMrows<T>(winner, piece, pieces_base, cut_value);
      if (contender >= branchy) {
        chosen = piece;
        break;
      }
    }
    *min_piece_out = chosen;
  }
}

KernelCalibration FallbackDefaults() {
  KernelCalibration cal;
  cal.calibrated = false;
  cal.simd_available = internal::SimdKernelAvailable();
  cal.isa = internal::SimdIsaName();
  return cal;
}

KernelCalibration RunSweep() {
  KernelCalibration cal = FallbackDefaults();
  cal.calibrated = true;
  SweepWidth<std::int32_t>(&cal.kernel_w4, &cal.min_piece_w4, cal.mrows_w4);
  SweepWidth<std::int64_t>(&cal.kernel_w8, &cal.min_piece_w8, cal.mrows_w8);
  return cal;
}

}  // namespace

const KernelCalibration& Calibrate() {
  if (const auto* cal = g_calibration.load(std::memory_order_acquire)) {
    return *cal;
  }
  std::lock_guard<std::mutex> lock(CalibrationMutex());
  if (const auto* cal = g_calibration.load(std::memory_order_relaxed)) {
    return *cal;
  }
  auto fresh = std::make_unique<const KernelCalibration>(
      CalibrationEnabled() ? RunSweep() : FallbackDefaults());
  const KernelCalibration* published = fresh.get();
  Records().push_back(std::move(fresh));
  g_calibration.store(published, std::memory_order_release);
  return *published;
}

const KernelCalibration* CalibrationIfRan() {
  return g_calibration.load(std::memory_order_acquire);
}

bool CalibrationEnabled() {
  const int forced = g_enabled_override.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  const char* env = std::getenv("AIDX_CALIBRATE");
  return !(env != nullptr && env[0] == '0' && env[1] == '\0');
}

void SetCalibrationEnabled(bool enabled) {
  std::lock_guard<std::mutex> lock(CalibrationMutex());
  g_enabled_override.store(enabled ? 1 : 0, std::memory_order_relaxed);
  g_calibration.store(nullptr, std::memory_order_release);
}

CrackKernel ResolveCrackKernel(CrackKernel kernel, std::size_t value_width) {
  if (kernel != CrackKernel::kAuto) return kernel;
  const KernelCalibration& cal = Calibrate();
  return value_width <= 4 ? cal.kernel_w4 : cal.kernel_w8;
}

std::size_t DefaultCrackMinPiece(std::size_t value_width) {
  const KernelCalibration* cal = g_calibration.load(std::memory_order_acquire);
  if (cal == nullptr) return kPredicationMinPiece;
  return value_width <= 4 ? cal->min_piece_w4 : cal->min_piece_w8;
}

}  // namespace aidx
