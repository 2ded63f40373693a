// SegmentOrganizer and HybridIndex: oracle-differential sweeps across the
// full {C,S,R} x {C,S,R} policy grid (TEST_P), plus mechanics tests.
#include "core/hybrid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <ostream>
#include <vector>

#include "core/organizer.h"
#include "index/scan.h"
#include "util/rng.h"

namespace aidx {

// gtest printer for OrganizerModeTest's parameter (the mode letter instead
// of its raw byte). It lives beside the enum's namespace so gtest finds it.
void PrintTo(OrganizeMode mode, std::ostream* os) { *os << OrganizeModeLetter(mode); }

namespace {

using Pred = RangePredicate<std::int64_t>;
using Organizer = SegmentOrganizer<std::int64_t>;
using Hybrid = HybridIndex<std::int64_t>;

std::vector<std::int64_t> RandomValues(std::size_t n, std::int64_t domain,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.NextBounded(domain));
  return v;
}

std::vector<row_id_t> Iota(std::size_t n) {
  std::vector<row_id_t> r(n);
  std::iota(r.begin(), r.end(), row_id_t{0});
  return r;
}

class OrganizerModeTest : public ::testing::TestWithParam<OrganizeMode> {};

TEST_P(OrganizerModeTest, ResolveMatchesScanOracle) {
  const auto base = RandomValues(3000, 800, 21);
  Organizer org(std::vector<std::int64_t>(base), Iota(base.size()),
                {.mode = GetParam(), .radix_bits = 4});
  Rng rng(22);
  for (int q = 0; q < 200; ++q) {
    const std::int64_t a = rng.NextInRange(-3, 803);
    const std::int64_t w = rng.NextInRange(0, 120);
    const auto p = Pred::HalfOpen(a, a + w);
    const PositionRange r = org.Resolve(p);
    ASSERT_EQ(r.size(), ScanCount<std::int64_t>(base, p)) << p.ToString();
    // Every position in the resolved range must satisfy the predicate, and
    // (value, row id) pairs must stay consistent with the base column.
    const auto vals = org.values();
    const auto rids = org.row_ids();
    for (std::size_t i = r.begin; i < r.end; ++i) {
      ASSERT_TRUE(p.Matches(vals[i]));
      ASSERT_EQ(vals[i], base[rids[i]]);
    }
  }
  EXPECT_TRUE(org.Validate());
}

TEST_P(OrganizerModeTest, EnsureOrganizedIdempotent) {
  const auto base = RandomValues(500, 100, 23);
  Organizer org(std::vector<std::int64_t>(base), Iota(base.size()),
                {.mode = GetParam(), .radix_bits = 3});
  const std::size_t work_first = org.EnsureOrganized();
  EXPECT_EQ(org.EnsureOrganized(), 0u);
  if (GetParam() == OrganizeMode::kCrack) {
    EXPECT_EQ(work_first, 0u);  // fully lazy
  } else {
    EXPECT_EQ(work_first, base.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, OrganizerModeTest,
                         ::testing::Values(OrganizeMode::kCrack, OrganizeMode::kSort,
                                           OrganizeMode::kRadix),
                         [](const auto& info) {
                           return std::string(1, OrganizeModeLetter(info.param));
                         });

TEST(OrganizerTest, RadixSeedsClusterCuts) {
  const auto base = RandomValues(4000, 100000, 25);
  Organizer org(std::vector<std::int64_t>(base), {},
                {.mode = OrganizeMode::kRadix, .radix_bits = 5, .with_row_ids = false});
  org.EnsureOrganized();
  // 2^5 clusters => up to 31 seeded cuts; dense uniform data hits all.
  EXPECT_GT(org.crack_stats().values_touched, 0u);
  EXPECT_TRUE(org.Validate());
  const auto p = Pred::Between(40000, 60000);
  EXPECT_EQ(org.Resolve(p).size(), ScanCount<std::int64_t>(base, p));
}

TEST(OrganizerTest, AllDuplicatesRadixDegradesGracefully) {
  std::vector<std::int64_t> base(100, 5);
  Organizer org(std::vector<std::int64_t>(base), {},
                {.mode = OrganizeMode::kRadix, .radix_bits = 4, .with_row_ids = false});
  EXPECT_EQ(org.Resolve(Pred::Between(5, 5)).size(), 100u);
  EXPECT_EQ(org.Resolve(Pred::Between(6, 6)).size(), 0u);
}

struct HybridParam {
  OrganizeMode initial;
  OrganizeMode final_mode;
};

class HybridGridTest : public ::testing::TestWithParam<HybridParam> {};

TEST_P(HybridGridTest, OracleDifferentialSweep) {
  const auto [initial, final_mode] = GetParam();
  const auto base = RandomValues(6000, 3000, 31);
  Hybrid idx(base, {.partition_size = 700,
                    .initial_mode = initial,
                    .final_mode = final_mode,
                    .radix_bits = 4});
  Rng rng(32);
  for (int q = 0; q < 250; ++q) {
    const std::int64_t a = rng.NextInRange(-10, 3010);
    const std::int64_t w = rng.NextInRange(0, 300);
    Pred p;
    switch (rng.NextBounded(5)) {
      case 0: p = Pred::Between(a, a + w); break;
      case 1: p = Pred::HalfOpen(a, a + w); break;
      case 2: p = Pred{a, BoundKind::kExclusive, a + w, BoundKind::kExclusive}; break;
      case 3: p = Pred::AtLeast(a); break;
      default: p = Pred::AtMost(a); break;
    }
    ASSERT_EQ(idx.Count(p), ScanCount<std::int64_t>(base, p))
        << idx.name() << " q" << q << " " << p.ToString();
    if (q % 50 == 0) {
      ASSERT_TRUE(idx.Validate()) << idx.name() << " q" << q;
    }
  }
  EXPECT_TRUE(idx.Validate());
}

TEST_P(HybridGridTest, SumMatchesOracle) {
  const auto [initial, final_mode] = GetParam();
  const auto base = RandomValues(2000, 500, 33);
  Hybrid idx(base, {.partition_size = 300,
                    .initial_mode = initial,
                    .final_mode = final_mode});
  Rng rng(34);
  for (int q = 0; q < 60; ++q) {
    const auto a = static_cast<std::int64_t>(rng.NextBounded(500));
    const auto p = Pred::Between(a, a + 40);
    ASSERT_DOUBLE_EQ(static_cast<double>(idx.Sum(p)),
                     static_cast<double>(ScanSum<std::int64_t>(base, p)))
        << idx.name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HybridGridTest,
    ::testing::Values(HybridParam{OrganizeMode::kCrack, OrganizeMode::kCrack},
                      HybridParam{OrganizeMode::kCrack, OrganizeMode::kSort},
                      HybridParam{OrganizeMode::kCrack, OrganizeMode::kRadix},
                      HybridParam{OrganizeMode::kSort, OrganizeMode::kSort},
                      HybridParam{OrganizeMode::kSort, OrganizeMode::kRadix},
                      HybridParam{OrganizeMode::kSort, OrganizeMode::kCrack},
                      HybridParam{OrganizeMode::kRadix, OrganizeMode::kRadix},
                      HybridParam{OrganizeMode::kRadix, OrganizeMode::kCrack},
                      HybridParam{OrganizeMode::kRadix, OrganizeMode::kSort}),
    [](const auto& info) {
      return HybridIndex<std::int64_t>::NameOf(info.param.initial,
                                               info.param.final_mode);
    });

TEST(HybridTest, NamesFollowPaperConvention) {
  EXPECT_EQ(Hybrid::NameOf(OrganizeMode::kCrack, OrganizeMode::kCrack), "HCC");
  EXPECT_EQ(Hybrid::NameOf(OrganizeMode::kCrack, OrganizeMode::kSort), "HCS");
  EXPECT_EQ(Hybrid::NameOf(OrganizeMode::kCrack, OrganizeMode::kRadix), "HCR");
  EXPECT_EQ(Hybrid::NameOf(OrganizeMode::kSort, OrganizeMode::kSort), "HSS");
}

TEST(HybridTest, DataMigratesOutOfPartitions) {
  const auto base = RandomValues(4000, 1000, 35);
  Hybrid idx(base, {.partition_size = 500});
  idx.Count(Pred::HalfOpen(100, 200));
  EXPECT_GT(idx.stats().values_merged, 0u);
  EXPECT_GE(idx.num_final_segments(), 1u);
  const std::size_t merged_after_first = idx.stats().values_merged;
  // Repeat query: no further migration.
  idx.Count(Pred::HalfOpen(100, 200));
  EXPECT_EQ(idx.stats().values_merged, merged_after_first);
  // Full-domain query drains every partition.
  EXPECT_EQ(idx.Count(Pred::All()), base.size());
  EXPECT_TRUE(idx.fully_merged());
  EXPECT_EQ(idx.stats().partitions_exhausted, idx.num_partitions());
  EXPECT_TRUE(idx.Validate());
  // Still answers correctly after full migration.
  const auto p = Pred::Between(300, 400);
  EXPECT_EQ(idx.Count(p), ScanCount<std::int64_t>(base, p));
}

TEST(HybridTest, MaterializeReturnsConsistentPairs) {
  const auto base = RandomValues(3000, 600, 37);
  Hybrid idx(base, {.partition_size = 400, .final_mode = OrganizeMode::kSort});
  const auto p = Pred::Between(100, 300);
  std::vector<std::int64_t> values;
  std::vector<row_id_t> rids;
  idx.Materialize(p, &values, &rids);
  ASSERT_EQ(values.size(), rids.size());
  EXPECT_EQ(values.size(), ScanCount<std::int64_t>(base, p));
  for (std::size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(values[i], base[rids[i]]);
    ASSERT_TRUE(p.Matches(values[i]));
  }
}

TEST(HybridTest, EmptyAndDegenerateInputs) {
  Hybrid empty(std::span<const std::int64_t>{}, {});
  EXPECT_EQ(empty.Count(Pred::Between(1, 5)), 0u);
  const auto base = RandomValues(100, 20, 39);
  Hybrid idx(base, {.partition_size = 1000});  // single partition
  EXPECT_EQ(idx.Count(Pred::Between(5, 5)),
            ScanCount<std::int64_t>(base, Pred::Between(5, 5)));
  EXPECT_EQ(idx.Count(Pred::Between(19, 2)), 0u);  // inverted
  EXPECT_TRUE(idx.Validate());
}

TEST(HybridTest, HeavyDuplicatesAcrossPartitions) {
  std::vector<std::int64_t> base(2000);
  for (std::size_t i = 0; i < base.size(); ++i) base[i] = static_cast<std::int64_t>(i % 3);
  Hybrid idx(base, {.partition_size = 128, .final_mode = OrganizeMode::kSort});
  EXPECT_EQ(idx.Count(Pred::Between(1, 1)), ScanCount<std::int64_t>(
      base, Pred::Between(1, 1)));
  EXPECT_EQ(idx.Count(Pred::Between(0, 2)), 2000u);
  EXPECT_TRUE(idx.fully_merged());
  EXPECT_TRUE(idx.Validate());
}

TEST(HybridTest, ConvergenceReducesMergeWork) {
  const auto base = RandomValues(50000, 100000, 41);
  Hybrid idx(base, {.partition_size = 5000});
  Rng rng(42);
  for (int q = 0; q < 300; ++q) {
    const auto a = static_cast<std::int64_t>(rng.NextBounded(100000));
    idx.Count(Pred::Between(a, a + 500));
  }
  std::size_t no_merge = 0;
  for (int q = 0; q < 50; ++q) {
    const auto a = static_cast<std::int64_t>(rng.NextBounded(90000));
    const std::size_t before = idx.stats().merge_queries;
    idx.Count(Pred::Between(a, a + 50));
    if (idx.stats().merge_queries == before) ++no_merge;
  }
  EXPECT_GT(no_merge, 25u);
}

}  // namespace
}  // namespace aidx
