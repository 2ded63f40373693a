#include "common.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "core/crack_ops.h"
#include "core/kernel_autotune.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::vector<std::int64_t> UniformColumn(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> out(n);
  for (auto& v : out) v = rng.Value();
  return out;
}

std::vector<std::int64_t> UniqueKeys(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const std::int64_t slot_width = kDomain / static_cast<std::int64_t>(n);
  std::vector<std::int64_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t offset =
        2 * static_cast<std::int64_t>(rng.Below(static_cast<std::uint64_t>(slot_width / 2)));
    out[i] = static_cast<std::int64_t>(i) * slot_width + offset;
  }
  for (std::size_t i = n; i > 1; --i) std::swap(out[i - 1], out[rng.Below(i)]);
  return out;
}

DmlStream::DmlStream(std::uint64_t seed, int client, int clients, std::int64_t width,
                     DmlMix mix, std::vector<std::int64_t> live_keys)
    : rng_(seed),
      client_(client),
      clients_(clients),
      width_(width),
      mix_(mix),
      live_(std::move(live_keys)) {}

Op DmlStream::NextRead() {
  const Range r = RandomOwnedRange(rng_, width_, client_, clients_);
  ++reads_;
  OpKind kind = reads_ % 2 == 0 ? OpKind::kCount : OpKind::kSum;
  if (mix_.project_every > 0 && reads_ % static_cast<std::uint64_t>(mix_.project_every) == 0) {
    kind = OpKind::kProject;
  }
  return {kind, r.lo, r.hi};
}

Op DmlStream::Next() {
  const int u = static_cast<int>(rng_.Below(100));
  if (u < mix_.insert_pct) {
    std::int64_t key = 0;
    do {
      key = RandomOwnedRange(rng_, 1, client_, clients_).lo;
      if (mix_.odd_inserts) key |= 1;
    } while (mix_.odd_inserts && !inserted_.insert(key).second);
    live_.push_back(key);
    return {OpKind::kInsert, key, 0, rng_.Value(), rng_.Value()};
  }
  if (u < mix_.insert_pct + mix_.delete_pct && !live_.empty()) {
    const std::size_t i = rng_.Below(live_.size());
    const std::int64_t key = live_[i];
    live_[i] = live_.back();
    live_.pop_back();
    if (mix_.odd_inserts && (key & 1) != 0) inserted_.erase(key);
    return {OpKind::kDelete, key};
  }
  return NextRead();
}

HotSet MakeHotSet(std::uint64_t seed, std::int64_t width) {
  Rng rng(SubSeed(seed, 4));
  HotSet hot;
  hot.k.resize(1024);
  hot.a.resize(256);
  hot.p.resize(64);
  for (Op& op : hot.k) op = {OpKind::kCount, RandomRange(rng, width).lo};
  for (Op& op : hot.a) op = {OpKind::kCountA, RandomRange(rng, width).lo};
  for (Op& op : hot.p) op = {OpKind::kProject, RandomRange(rng, width).lo};
  for (auto* set : {&hot.k, &hot.a, &hot.p}) {
    for (Op& op : *set) op.hi = op.lo + width - 1;
  }
  return hot;
}

Op HotSet::Replay(Rng& rng, std::size_t j, bool projections, std::size_t* index) const {
  const std::vector<Op>& set = projections && j % 32 == 31 ? p : j % 4 == 3 ? a : k;
  const std::size_t i = rng.Below(set.size());
  if (index != nullptr) *index = i;
  Op op = set[i];
  if (&set == &k && j % 2 == 1) op.kind = OpKind::kSum;
  return op;
}

std::uint64_t SumAnswer(double sum) {
  if (sum != std::floor(sum) || sum < 0) return kBadAnswer;
  return static_cast<std::uint64_t>(sum);
}

std::uint64_t ProjectionAnswer(const std::vector<std::vector<std::int64_t>>& tails) {
  if (tails.empty()) return kBadAnswer;
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < tails[0].size(); ++i) {
    const std::int64_t b = tails.size() > 1 ? tails[1][i] : 0;
    h += RowHash(tails[0][i], b);
  }
  return h + Mix64(tails[0].size());
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

Oracle::Oracle(std::vector<std::int64_t> keys, std::vector<std::uint64_t> hashes,
               std::size_t loaded, bool writable)
    : writable_(writable), next_insert_(loaded) {
  const std::size_t n = keys.size();
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  // Stable: equal keys keep row order, so the first alive slot of a key is
  // the row the engine's first-match delete removes.
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) { return keys[x] < keys[y]; });
  keys_.resize(n);
  if (writable_) slot_of_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    keys_[s] = keys[order[s]];
    if (writable_) slot_of_[order[s]] = static_cast<std::uint32_t>(s);
  }
  keys = {};
  // Fenwick trees are built in O(n): seed each node with its slot's value,
  // then push it into its parent.
  sum_.assign(n + 1, 0);
  if (writable_) count_.assign(n + 1, 0);
  if (!hashes.empty()) {
    hash_of_.resize(n);
    hash_.assign(n + 1, 0);
  }
  for (std::size_t s = 0; s < n; ++s) {
    if (!hashes.empty()) hash_of_[s] = hashes[order[s]];
    if (order[s] >= loaded) continue;  // an insert the run has not made yet
    sum_[s + 1] = static_cast<std::uint64_t>(keys_[s]);
    if (writable_) count_[s + 1] = 1;
    if (!hashes.empty()) hash_[s + 1] = hash_of_[s];
  }
  for (std::size_t i = 1; i <= n; ++i) {
    const std::size_t parent = i + (i & (~i + 1));
    if (parent > n) continue;
    sum_[parent] += sum_[i];
    if (writable_) count_[parent] += count_[i];
    if (!hash_.empty()) hash_[parent] += hash_[i];
  }
}

template <typename V>
void Oracle::Add(std::vector<V>& tree, std::size_t slot, V delta) {
  for (std::size_t i = slot + 1; i < tree.size(); i += i & (~i + 1)) tree[i] += delta;
}

template <typename V>
V Oracle::Prefix(const std::vector<V>& tree, std::size_t end) {
  V total = 0;
  for (std::size_t i = end; i > 0; i -= i & (~i + 1)) total += tree[i];
  return total;
}

std::size_t Oracle::Lower(std::int64_t key) const {
  return static_cast<std::size_t>(std::lower_bound(keys_.begin(), keys_.end(), key) -
                                  keys_.begin());
}
std::size_t Oracle::Upper(std::int64_t key) const {
  return static_cast<std::size_t>(std::upper_bound(keys_.begin(), keys_.end(), key) -
                                  keys_.begin());
}

std::size_t Oracle::FindNth(std::uint64_t nth) const {
  std::size_t pos = 0;
  std::size_t step = 1;
  while (step * 2 < count_.size()) step *= 2;
  for (; step > 0; step /= 2) {
    if (pos + step < count_.size() && count_[pos + step] < nth) {
      pos += step;
      nth -= count_[pos];
    }
  }
  return pos;  // 0-based slot
}

void Oracle::Activate(std::size_t row) {
  const std::size_t s = slot_of_[row];
  Add<std::uint64_t>(count_, s, 1);
  Add<std::uint64_t>(sum_, s, static_cast<std::uint64_t>(keys_[s]));
  if (!hash_.empty()) Add<std::uint64_t>(hash_, s, hash_of_[s]);
}

bool Oracle::Delete(std::int64_t key) {
  const std::size_t lo = Lower(key);
  const std::size_t before = Prefix(count_, lo);
  if (Prefix(count_, Upper(key)) == before) return false;
  const std::size_t s = FindNth(before + 1);
  Add<std::uint64_t>(count_, s, ~std::uint64_t{0});  // -1, wrapping
  Add<std::uint64_t>(sum_, s, ~static_cast<std::uint64_t>(keys_[s]) + 1);
  if (!hash_.empty()) Add<std::uint64_t>(hash_, s, ~hash_of_[s] + 1);
  return true;
}

std::uint64_t Oracle::Count(std::int64_t lo, std::int64_t hi) const {
  if (!writable_) return Upper(hi) - Lower(lo);
  return Prefix(count_, Upper(hi)) - Prefix(count_, Lower(lo));
}
std::uint64_t Oracle::Sum(std::int64_t lo, std::int64_t hi) const {
  return Prefix(sum_, Upper(hi)) - Prefix(sum_, Lower(lo));
}
std::uint64_t Oracle::Project(std::int64_t lo, std::int64_t hi) const {
  return Prefix(hash_, Upper(hi)) - Prefix(hash_, Lower(lo)) + Mix64(Count(lo, hi));
}

std::uint64_t Expected(Oracle& oracle, const Op& op) {
  switch (op.kind) {
    case OpKind::kCount:
    case OpKind::kCountA:
      return oracle.Count(op.lo, op.hi);
    case OpKind::kSum:
      return oracle.Sum(op.lo, op.hi);
    case OpKind::kProject:
      return oracle.Project(op.lo, op.hi);
    case OpKind::kInsert:
      oracle.Insert();
      return 1;
    case OpKind::kDelete:
      return oracle.Delete(op.lo) ? 1 : 0;
  }
  return kBadAnswer;
}

// ---------------------------------------------------------------------------
// Tracer, environment, report
// ---------------------------------------------------------------------------

std::uint32_t Tracer::Intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

bool Tracer::WriteTsv(const std::string& path, const std::string& header) const {
  std::ofstream out(path);
  if (!out) return false;
  out << header << "\n";
  out << "# span\tname\tparent\trequest\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << names_[s.name] << '\t'
        << (s.parent == kNoParent ? std::int64_t{-1} : std::int64_t{s.parent}) << '\t'
        << s.request << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

std::string EnvironmentLine(const std::string& workload, std::uint64_t seed,
                            int seconds, bool trace) {
  const aidx::KernelCalibration& cal = aidx::Calibrate();
  std::ostringstream out;
  out << "env nproc=" << std::thread::hardware_concurrency()
      << " build=" << PERFBENCH_BUILD_TYPE
      << " kernel_w8=" << aidx::CrackKernelName(aidx::ResolveCrackKernel(aidx::CrackKernel::kAuto, 8))
      << " min_piece_w8=" << aidx::DefaultCrackMinPiece(8)
      << " calibrated=" << (cal.calibrated ? 1 : 0)
      << " simd=" << (aidx::internal::SimdKernelAvailable() ? 1 : 0)
      << " isa=" << aidx::internal::SimdIsaName() << " workload=" << workload
      << " seed=" << seed << " seconds=" << seconds << " trace=" << (trace ? 1 : 0);
  return out.str();
}

double ResidentMb() {
  ReleaseFreedMemory();
  std::ifstream statm("/proc/self/statm");
  std::size_t total_pages = 0, resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return static_cast<double>(resident_pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

void ReleaseFreedMemory() { malloc_trim(0); }

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::Note(const std::string& line) { std::printf("# %s\n", line.c_str()); }

void Report::NoteLatency(const std::string& label, const std::vector<double>& samples,
                         const std::string& unit) {
  if (samples.empty()) {
    Note(label + ": n/a (no samples)");
    return;
  }
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s: p50=%.4g %s p99=%.4g %s n=%zu beyond_p99=%zu",
                label.c_str(), Percentile(samples, 0.5), unit.c_str(),
                Percentile(samples, 0.99), unit.c_str(), samples.size(),
                SamplesBeyond(samples.size(), 0.99));
  Note(buf);
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::printf("# CHECK FAILED: %s\n", why.c_str());
}

void Report::Finish() const {
  for (const Entry& e : metrics_) {
    std::printf("%-34s %.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct_ ? "true" : "false", attempted_, failed_);
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
