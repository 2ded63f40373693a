// Startup kernel calibration: a quick microbenchmark that picks the
// default CrackKernel and the branchy-fallback piece-size threshold for
// *this* host, per element width.
//
// The kernel shootout in bench_e12 shows the ranking of the crack kernels
// is hardware-dependent: the blocked kernels need wide vector units and a
// decent store pipeline to beat the branchy sweep, the SIMD kernel needs
// AVX2/NEON at all, and the piece size where predication starts paying for
// itself moves with the mispredict penalty. Rather than bake one machine's
// ranking into a constant, the first kAuto resolution (i.e. first engine
// use with default config) runs a ~few-millisecond sweep over the concrete
// kernels at two element widths, caches the winners process-wide, and
// derives the min-piece crossover from a piece-size sweep. The kernel is
// overridable per strategy via StrategyConfig::crack_kernel (the threshold
// is not: every strategy uses the calibrated one), and the whole sweep can
// be disabled with AIDX_CALIBRATE=0 (or SetCalibrationEnabled(false)),
// which pins the documented fallback: kPredicatedUnrolled at
// kPredicationMinPiece.
#pragma once

#include <cstddef>

#include "core/crack_ops.h"

namespace aidx {

/// What the calibration sweep decided (or the fallbacks, when disabled).
/// Widths: w4 covers 4-byte elements (int32), w8 covers 8-byte elements
/// (int64 and float64 share it — same lane count, same move cost).
struct KernelCalibration {
  bool calibrated = false;       // false: fallback defaults are in force
  bool simd_available = false;   // SimdKernelAvailable() at sweep time
  const char* isa = "scalar";    // which vector ISA kSimd would use
  CrackKernel kernel_w4 = CrackKernel::kPredicatedUnrolled;
  CrackKernel kernel_w8 = CrackKernel::kPredicatedUnrolled;
  std::size_t min_piece_w4 = kPredicationMinPiece;
  std::size_t min_piece_w8 = kPredicationMinPiece;
  // Measured raw crack-in-two throughput per kernel (Mrows/s), indexed by
  // the CrackKernel enumerator; 0.0 = not measured (e.g. kSimd without a
  // usable vector ISA, or calibration disabled).
  double mrows_w4[kNumCrackKernels] = {};
  double mrows_w8[kNumCrackKernels] = {};
};

/// Runs the calibration sweep on first call and returns the cached result
/// afterwards; thread-safe and idempotent. When calibration is disabled the
/// returned record carries the fallback defaults with calibrated == false.
const KernelCalibration& Calibrate();

/// The cached calibration, or nullptr if no kAuto resolution or explicit
/// Calibrate() has happened yet. Never triggers the sweep — for reporting.
const KernelCalibration* CalibrationIfRan();

/// Whether the sweep is allowed to run: SetCalibrationEnabled() if called,
/// else the AIDX_CALIBRATE environment variable (unset or anything but
/// "0" = enabled).
bool CalibrationEnabled();

/// Programmatic override of AIDX_CALIBRATE, primarily for tests. Discards
/// any cached calibration so the next Calibrate()/kAuto resolution reflects
/// the new setting. Not intended for concurrent use with live queries (the
/// previous record stays valid for readers that already hold it).
void SetCalibrationEnabled(bool enabled);

}  // namespace aidx
