// Summary arithmetic shared by the workloads and the traced layer ladder:
// nearest-rank percentiles, paired self times, and guarded ratios. Kept
// free of any engine header so perfbench/tests/selftest.cc can check it alone.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `samples` for p in [0, 1]: the smallest
/// sample with at least p * n samples at or below it. Takes the samples by
/// value because it partially sorts them. Throws on an empty input — a
/// benchmark that reports a percentile of nothing is a bug.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("percentile outside [0, 1]");
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * n));
  if (rank == 0) rank = 1;
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Mean of `samples` after dropping the lowest and the highest `trim`
/// fraction (rounded down) of them. Over a run's segments it averages the
/// host's slow and fast phases, which a median would pick one of, while a
/// single burst at either end is dropped.
inline double TrimmedMean(std::vector<double> samples, double trim) {
  if (samples.empty()) throw std::invalid_argument("trimmed mean of no samples");
  if (trim < 0.0 || trim >= 0.5) throw std::invalid_argument("trim outside [0, 0.5)");
  std::sort(samples.begin(), samples.end());
  const std::size_t drop =
      static_cast<std::size_t>(std::floor(trim * static_cast<double>(samples.size())));
  double total = 0;
  for (std::size_t i = drop; i < samples.size() - drop; ++i) total += samples[i];
  return total / static_cast<double>(samples.size() - 2 * drop);
}

/// Samples beyond the p-th percentile: the figure the report states next to
/// each tail percentile (a percentile is worth quoting only with >= 10).
inline std::size_t SamplesBeyond(std::size_t n, double p) {
  const std::size_t rank =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(p * static_cast<double>(n))));
  return n >= rank ? n - rank : 0;
}

/// Self time of a ladder rung: `upper` and `lower` time the same request
/// stream, request for request, through a stack and the stack one layer
/// shorter. The rung's self time for request i is upper[i] - lower[i]; the
/// result is the median of those paired differences over the requests whose
/// `mask` entry is true (every request when `mask` is empty). Pairing first
/// cancels the work both rungs share (a crack costs the same in both), so
/// the median reflects the layer, not which requests happened to crack.
inline double PairedSelfMedian(const std::vector<double>& upper,
                               const std::vector<double>& lower,
                               const std::vector<bool>& mask = {}) {
  if (upper.size() != lower.size()) {
    throw std::invalid_argument("self time of rungs that replayed different streams");
  }
  if (!mask.empty() && mask.size() != upper.size()) {
    throw std::invalid_argument("self-time mask length differs from the stream");
  }
  std::vector<double> diffs;
  diffs.reserve(upper.size());
  for (std::size_t i = 0; i < upper.size(); ++i) {
    if (mask.empty() || mask[i]) diffs.push_back(upper[i] - lower[i]);
  }
  return Median(std::move(diffs));
}

/// num / den, with a zero denominator reported as 0 rather than inf/NaN
/// (e.g. moves per merged tuple when nothing merged).
inline double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Order-independent row checksum: projections come back in shard and piece
/// order, so results are compared as multisets via a wrapping sum of mixed
/// row hashes.
inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

inline std::uint64_t RowHash(std::int64_t a, std::int64_t b) {
  return Mix64(static_cast<std::uint64_t>(a) ^ Mix64(static_cast<std::uint64_t>(b)));
}

}  // namespace perfbench
