// Tests of the benchmark's own arithmetic: percentiles, trimmed means, paired self times,
// ratios, answer checksums, the oracle, and the op streams' namespaces.
// Run: python3 perfbench/run.py --self-test   (exit 0 = all pass)
#include <algorithm>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <vector>

#include "../src/common.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);      \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

template <typename Fn>
bool Throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

using namespace perfbench;

void TestPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT(Percentile(v, 0.5) == 50);
  EXPECT(Percentile(v, 0.99) == 99);
  EXPECT(Percentile(v, 1.0) == 100);
  EXPECT(Percentile(v, 0.0) == 1);
  EXPECT(Percentile(v, 0.011) == 2);  // nearest rank rounds the rank up
  EXPECT(Percentile({7}, 0.99) == 7);
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Median({4, 1, 3, 2}) == 2);  // lower middle for even counts
  EXPECT(Throws([] { Percentile({}, 0.5); }));
  EXPECT(Throws([] { Percentile({1}, 1.5); }));
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  EXPECT(SamplesBeyond(100, 0.99) == 1);
  EXPECT(SamplesBeyond(1, 0.99) == 0);
}

void TestTrimmedMean() {
  EXPECT(TrimmedMean({1, 2, 3, 4, 100}, 0.2) == 3);          // drops 1 and 100
  EXPECT(TrimmedMean({1, 2, 3, 4, 100}, 0.1) == 22);         // 10% of 5 drops none
  EXPECT(TrimmedMean({5, 1, 9, 3, 7, 2, 8, 4, 6, 10}, 0.1) == 5.5);
  EXPECT(TrimmedMean({7}, 0.4) == 7);
  EXPECT(Throws([] { TrimmedMean({}, 0.1); }));
  EXPECT(Throws([] { TrimmedMean({1, 2}, 0.5); }));
}

void TestSelfTime() {
  // The median of paired differences, not the difference of medians: the
  // shared cost of request 2 (a crack) cancels out.
  const std::vector<double> upper = {110, 120, 5000, 130};
  const std::vector<double> lower = {100, 100, 4900, 100};
  EXPECT(PairedSelfMedian(upper, lower) == 20);  // diffs 10, 20, 100, 30
  EXPECT(PairedSelfMedian(upper, lower, {true, false, true, false}) == 10);
  EXPECT(PairedSelfMedian({5, 5}, {7, 7}) == -2);  // a faster upper rung shows
  EXPECT(Throws([] { PairedSelfMedian({1, 2}, {1}); }));
  EXPECT(Throws([] { PairedSelfMedian({1, 2}, {1, 2}, {true}); }));
  EXPECT(Throws([] { PairedSelfMedian({1, 2}, {1, 2}, {false, false}); }));
}

void TestRatio() {
  EXPECT(Ratio(3, 2) == 1.5);
  EXPECT(Ratio(5, 0) == 0);
  EXPECT(Ratio(0, 4) == 0);
}

void TestAnswers() {
  EXPECT(SumAnswer(42.0) == 42);
  EXPECT(SumAnswer(42.5) == kBadAnswer);
  EXPECT(SumAnswer(-1.0) == kBadAnswer);
  // Projections compare as multisets of rows, never as sequences, and keep
  // rows together (swapping a column's values between rows changes it).
  const std::vector<std::vector<std::int64_t>> rows = {{1, 2, 3}, {10, 20, 30}};
  const std::vector<std::vector<std::int64_t>> permuted = {{3, 1, 2}, {30, 10, 20}};
  const std::vector<std::vector<std::int64_t>> torn = {{1, 2, 3}, {20, 10, 30}};
  EXPECT(ProjectionAnswer(rows) == ProjectionAnswer(permuted));
  EXPECT(ProjectionAnswer(rows) != ProjectionAnswer(torn));
  EXPECT(ProjectionAnswer({{}}) != ProjectionAnswer({{0}}));
}

/// The oracle against a brute-force row list, under random writes: first-
/// match deletes, duplicate keys, rows inserted after load.
void TestOracle() {
  Rng rng(99);
  struct Row {
    std::int64_t k, a, b;
  };
  std::vector<Row> all;
  for (int i = 0; i < 400; ++i) {
    all.push_back({static_cast<std::int64_t>(rng.Below(50)), rng.Value(), rng.Value()});
  }
  const std::size_t loaded = 300;
  std::vector<std::int64_t> keys;
  std::vector<std::uint64_t> hashes;
  for (const Row& r : all) {
    keys.push_back(r.k);
    hashes.push_back(RowHash(r.a, r.b));
  }
  Oracle oracle(keys, hashes, loaded, true);
  std::vector<Row> live(all.begin(), all.begin() + loaded);  // base order
  std::size_t next = loaded;
  for (int step = 0; step < 2000; ++step) {
    const int u = static_cast<int>(rng.Below(4));
    if (u == 0 && next < all.size()) {
      oracle.Insert();
      live.push_back(all[next++]);
    } else if (u == 1) {
      const std::int64_t k = static_cast<std::int64_t>(rng.Below(55));
      const auto it = std::find_if(live.begin(), live.end(), [&](const Row& r) { return r.k == k; });
      const bool expect = it != live.end();
      if (expect) live.erase(it);
      EXPECT(oracle.Delete(k) == expect);
    } else {
      const std::int64_t lo = static_cast<std::int64_t>(rng.Below(50));
      const std::int64_t hi = lo + static_cast<std::int64_t>(rng.Below(10));
      std::uint64_t count = 0, sum = 0;
      std::vector<std::vector<std::int64_t>> proj(2);
      for (const Row& r : live) {
        if (r.k < lo || r.k > hi) continue;
        ++count;
        sum += static_cast<std::uint64_t>(r.k);
        proj[0].push_back(r.a);
        proj[1].push_back(r.b);
      }
      EXPECT(oracle.Count(lo, hi) == count);
      EXPECT(oracle.Sum(lo, hi) == sum);
      EXPECT(oracle.Project(lo, hi) == ProjectionAnswer(proj));
    }
  }
  Oracle read_only(keys, {}, keys.size(), false);
  EXPECT(read_only.Count(0, 49) == keys.size());
}

void TestStreams() {
  // Every op of a client stays in its namespace; deletes name live keys.
  constexpr int kClients = 3;
  for (int c = 0; c < kClients; ++c) {
    std::vector<std::int64_t> initial;
    Rng rng(SubSeed(5, 6, static_cast<std::uint64_t>(c)));
    while (initial.size() < 200) {
      const std::int64_t v = rng.Value();
      if (OwnerOf(v, kClients) == c) initial.push_back(v);
    }
    std::multiset<std::int64_t> live(initial.begin(), initial.end());
    DmlStream stream(7, c, kClients, kDomain / 1000,
                     DmlMix{.insert_pct = 30, .delete_pct = 30, .project_every = 4}, initial);
    int projects = 0;
    for (int i = 0; i < 3000; ++i) {
      const Op op = stream.Next();
      EXPECT(OwnerOf(op.lo, kClients) == c);
      if (op.kind == OpKind::kInsert) {
        live.insert(op.lo);
      } else if (op.kind == OpKind::kDelete) {
        const auto it = live.find(op.lo);
        EXPECT(it != live.end());
        if (it != live.end()) live.erase(it);
      } else {
        EXPECT(OwnerOf(op.hi, kClients) == c);
        EXPECT(op.hi - op.lo + 1 == kDomain / 1000);
        projects += op.kind == OpKind::kProject ? 1 : 0;
      }
    }
    EXPECT(projects > 0);
  }
  // Odd inserts never collide with UniqueKeys' even keys or each other.
  const std::vector<std::int64_t> keys = UniqueKeys(1024, 3);
  std::set<std::int64_t> seen(keys.begin(), keys.end());
  EXPECT(seen.size() == keys.size());
  DmlStream stream(8, 0, 1, 1000, DmlMix{.insert_pct = 100, .odd_inserts = true}, keys);
  for (int i = 0; i < 500; ++i) EXPECT(seen.insert(stream.Next().lo).second);
}

}  // namespace

int main() {
  TestPercentile();
  TestTrimmedMean();
  TestSelfTime();
  TestRatio();
  TestAnswers();
  TestOracle();
  TestStreams();
  if (failures > 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("all benchmark self-tests passed\n");
  return 0;
}
