// B+ tree tests: structural invariants plus differential range queries
// against a sorted-vector model, across fanouts (parameterized).
#include "index/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "storage/predicate.h"
#include "util/rng.h"

namespace aidx {
namespace {

using Pred = RangePredicate<std::int64_t>;

TEST(BPlusTreeTest, EmptyTree) {
  BPlusTree<std::int64_t> t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.CountRange(Pred::All()), 0u);
  EXPECT_TRUE(t.Validate());
  EXPECT_EQ(t.height(), 0);
}

TEST(BPlusTreeTest, SingleInsert) {
  BPlusTree<std::int64_t> t;
  t.Insert(5);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.CountRange(Pred::Between(5, 5)), 1u);
  EXPECT_EQ(t.CountRange(Pred::Between(6, 9)), 0u);
  EXPECT_TRUE(t.Validate());
}

TEST(BPlusTreeTest, DuplicatesAllRetrievable) {
  BPlusTree<std::int64_t> t({.leaf_capacity = 4, .internal_fanout = 4});
  for (int i = 0; i < 100; ++i) t.Insert(7);
  t.Insert(6);
  t.Insert(8);
  EXPECT_EQ(t.CountRange(Pred::Between(7, 7)), 100u);
  EXPECT_EQ(t.CountRange(Pred::All()), 102u);
  EXPECT_TRUE(t.Validate());
}

TEST(BPlusTreeTest, RowIdsTravelWithKeys) {
  BPlusTree<std::int64_t> t({.leaf_capacity = 4, .internal_fanout = 4,
                             .with_row_ids = true});
  for (row_id_t r = 0; r < 50; ++r) t.Insert(static_cast<std::int64_t>(r * 2), r);
  std::vector<row_id_t> rids;
  t.VisitRange(Pred::Between(10, 20), [&](std::int64_t, row_id_t r) {
    rids.push_back(r);
  });
  EXPECT_EQ(rids, (std::vector<row_id_t>{5, 6, 7, 8, 9, 10}));
}

TEST(BPlusTreeTest, VisitAscendingOrder) {
  BPlusTree<std::int64_t> t({.leaf_capacity = 8, .internal_fanout = 5});
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    t.Insert(static_cast<std::int64_t>(rng.NextBounded(1000)));
  }
  std::vector<std::int64_t> keys;
  t.VisitRange(Pred::All(), [&](std::int64_t k, row_id_t) { keys.push_back(k); });
  EXPECT_EQ(keys.size(), 5000u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_TRUE(t.Validate());
}

TEST(BPlusTreeTest, BulkLoadMatchesInserts) {
  std::vector<std::int64_t> keys;
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    keys.push_back(static_cast<std::int64_t>(rng.NextBounded(5000)));
  }
  std::sort(keys.begin(), keys.end());
  BPlusTree<std::int64_t> bulk;
  bulk.BulkLoadSorted(keys);
  EXPECT_EQ(bulk.size(), keys.size());
  EXPECT_TRUE(bulk.Validate());
  for (std::int64_t probe : {0, 1, 999, 2500, 4999, 12345}) {
    const auto pred = Pred::Between(probe - 10, probe + 10);
    const auto expect = static_cast<std::size_t>(
        std::upper_bound(keys.begin(), keys.end(), probe + 10) -
        std::lower_bound(keys.begin(), keys.end(), probe - 10));
    EXPECT_EQ(bulk.CountRange(pred), expect) << "probe " << probe;
  }
}

TEST(BPlusTreeTest, InsertSortedBatchAppendsRanges) {
  BPlusTree<std::int64_t> t({.leaf_capacity = 16, .internal_fanout = 8});
  // Disjoint value ranges arriving out of order (the adaptive-merging case).
  const std::vector<std::int64_t> r1 = {50, 51, 52, 53};
  const std::vector<std::int64_t> r2 = {10, 11, 12};
  const std::vector<std::int64_t> r3 = {90, 91};
  t.InsertSortedBatch(r1);
  t.InsertSortedBatch(r2);
  t.InsertSortedBatch(r3);
  EXPECT_EQ(t.size(), 9u);
  std::vector<std::int64_t> all;
  t.VisitRange(Pred::All(), [&](std::int64_t k, row_id_t) { all.push_back(k); });
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  EXPECT_EQ(t.CountRange(Pred::Between(11, 51)), 4u);  // 11, 12, 50, 51
}

struct FanoutParam {
  std::size_t leaf_capacity;
  std::size_t internal_fanout;
};

// gtest printer, so the ctest names carry the geometry, not raw bytes.
void PrintTo(const FanoutParam& param, std::ostream* os) {
  *os << "leaf" << param.leaf_capacity << "_fan" << param.internal_fanout;
}

class BPlusTreeFanoutTest : public ::testing::TestWithParam<FanoutParam> {};

// Differential test vs a sorted-vector model across node geometries,
// exercising inclusive/exclusive/unbounded range ends.
TEST_P(BPlusTreeFanoutTest, DifferentialRangeQueries) {
  const auto param = GetParam();
  BPlusTree<std::int64_t> t(
      {.leaf_capacity = param.leaf_capacity, .internal_fanout = param.internal_fanout});
  std::vector<std::int64_t> model;
  Rng rng(1234);
  for (int i = 0; i < 3000; ++i) {
    const auto k = static_cast<std::int64_t>(rng.NextBounded(400));
    t.Insert(k);
    model.push_back(k);
  }
  std::sort(model.begin(), model.end());
  ASSERT_TRUE(t.Validate());

  auto model_count = [&](const Pred& p) {
    return static_cast<std::size_t>(
        std::count_if(model.begin(), model.end(), [&](auto v) { return p.Matches(v); }));
  };

  for (int q = 0; q < 300; ++q) {
    const auto a = static_cast<std::int64_t>(rng.NextBounded(420)) - 10;
    const auto b = a + static_cast<std::int64_t>(rng.NextBounded(60));
    for (const Pred& p : {Pred::Between(a, b), Pred::HalfOpen(a, b), Pred::LessThan(b),
                          Pred::AtMost(b), Pred::GreaterThan(a), Pred::AtLeast(a),
                          Pred{a, BoundKind::kExclusive, b, BoundKind::kExclusive}}) {
      ASSERT_EQ(t.CountRange(p), model_count(p))
          << "pred " << p.ToString() << " fanout " << param.leaf_capacity;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BPlusTreeFanoutTest,
    ::testing::Values(FanoutParam{2, 3}, FanoutParam{4, 4}, FanoutParam{16, 8},
                      FanoutParam{256, 64}),
    [](const auto& info) {
      return "leaf" + std::to_string(info.param.leaf_capacity) + "_fan" +
             std::to_string(info.param.internal_fanout);
    });

TEST(BPlusTreeTest, SumRangeMatchesManualSum) {
  BPlusTree<std::int64_t> t;
  long double expect = 0;
  for (std::int64_t i = 0; i < 1000; ++i) {
    t.Insert(i);
    if (i >= 100 && i < 200) expect += i;
  }
  EXPECT_DOUBLE_EQ(static_cast<double>(t.SumRange(Pred::HalfOpen(100, 200))),
                   static_cast<double>(expect));
}

// Sustained deletes must compact drained leaves: after removing 90% of
// the keys the leaf chain must be near the minimum the survivors need,
// not the original leaf count with near-empty husks chained in between.
TEST(BPlusTreeTest, SustainedDeletesCompactLeaves) {
  constexpr std::size_t kLeafCap = 16;
  BPlusTree<std::int64_t> t({.leaf_capacity = kLeafCap, .internal_fanout = 4});
  Rng rng(17);
  std::vector<std::int64_t> keys;
  for (int i = 0; i < 8000; ++i) {
    const auto k = static_cast<std::int64_t>(rng.NextBounded(100000));
    keys.push_back(k);
    t.Insert(k);
  }
  const std::size_t initial_leaves = t.LeafCount();
  ASSERT_GE(initial_leaves, 8000u / kLeafCap);

  // Random-order sustained deletes down to 10%.
  while (keys.size() > 800) {
    const std::size_t pick = rng.NextBounded(keys.size());
    ASSERT_TRUE(t.EraseOne(keys[pick]));
    keys[pick] = keys.back();
    keys.pop_back();
  }
  ASSERT_EQ(t.size(), keys.size());
  ASSERT_TRUE(t.Validate());
  // Compaction keeps every leaf at >= capacity/4 (the fill threshold), so
  // the chain length is bounded by size / (capacity/4), plus slack for
  // leaves that never dipped below the threshold.
  EXPECT_LE(t.LeafCount(), keys.size() / (kLeafCap / 4) + 2)
      << "near-empty leaves left chained";
  EXPECT_LT(t.LeafCount(), initial_leaves / 4);

  // Queries still exact after heavy compaction.
  std::sort(keys.begin(), keys.end());
  for (int q = 0; q < 200; ++q) {
    const auto lo = static_cast<std::int64_t>(rng.NextBounded(100000));
    const Pred p = Pred::Between(lo, lo + 2000);
    const auto want = static_cast<std::size_t>(
        std::upper_bound(keys.begin(), keys.end(), lo + 2000) -
        std::lower_bound(keys.begin(), keys.end(), lo));
    ASSERT_EQ(t.CountRange(p), want) << "query " << q;
  }

  // Drain to empty: the root must collapse all the way back down.
  for (const auto k : keys) ASSERT_TRUE(t.EraseOne(k));
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.Validate());
  EXPECT_FALSE(t.EraseOne(1));
  EXPECT_LE(t.height(), 1);
}

// Skewed sustained deletes: drain one key region completely while its
// neighbours stay full. Internal borrow (not just merge) is what keeps a
// lone leaf from being stranded under a one-child internal here — the
// drained region's subtree must shrink away instead of surviving as a
// chain of near-empty husks.
TEST(BPlusTreeTest, SkewedRegionDrainCompacts) {
  constexpr std::size_t kLeafCap = 16;
  BPlusTree<std::int64_t> t({.leaf_capacity = kLeafCap, .internal_fanout = 4});
  Rng rng(29);
  std::vector<std::int64_t> keys;
  for (int i = 0; i < 6000; ++i) {
    const auto k = static_cast<std::int64_t>(rng.NextBounded(60000));
    keys.push_back(k);
    t.Insert(k);
  }
  // Drain [0, 45000) entirely, low keys first (maximum skew pressure on
  // the left spine), keeping the top quarter untouched.
  std::sort(keys.begin(), keys.end());
  std::vector<std::int64_t> survivors;
  for (const auto k : keys) {
    if (k < 45000) {
      ASSERT_TRUE(t.EraseOne(k));
    } else {
      survivors.push_back(k);
    }
  }
  ASSERT_EQ(t.size(), survivors.size());
  ASSERT_TRUE(t.Validate());
  EXPECT_EQ(t.CountRange(Pred::LessThan(45000)), 0u);
  EXPECT_EQ(t.CountRange(Pred::All()), survivors.size());
  // Density bound must hold even though the deletes were maximally skewed.
  EXPECT_LE(t.LeafCount(), survivors.size() / (kLeafCap / 4) + 2)
      << "near-empty leaves stranded under thinned internals";
}

// Delete-heavy churn with duplicates across leaf boundaries: erase and
// re-insert in waves, validating structure and counts throughout.
TEST(BPlusTreeTest, DeleteChurnWithDuplicatesStaysValid) {
  BPlusTree<std::int64_t> t({.leaf_capacity = 8, .internal_fanout = 4});
  std::vector<std::int64_t> model;
  Rng rng(23);
  for (int wave = 0; wave < 6; ++wave) {
    for (int i = 0; i < 500; ++i) {
      const auto k = static_cast<std::int64_t>(rng.NextBounded(40));  // heavy dups
      t.Insert(k);
      model.push_back(k);
    }
    for (int i = 0; i < 400 && !model.empty(); ++i) {
      const std::size_t pick = rng.NextBounded(model.size());
      ASSERT_TRUE(t.EraseOne(model[pick]));
      model[pick] = model.back();
      model.pop_back();
    }
    ASSERT_TRUE(t.Validate()) << "wave " << wave;
    ASSERT_EQ(t.size(), model.size());
    for (std::int64_t v = 0; v < 40; v += 7) {
      const auto want = static_cast<std::size_t>(
          std::count(model.begin(), model.end(), v));
      ASSERT_EQ(t.CountRange(Pred::Between(v, v)), want)
          << "wave " << wave << " value " << v;
    }
  }
}

TEST(BPlusTreeTest, MoveSemantics) {
  BPlusTree<std::int64_t> a;
  for (int i = 0; i < 100; ++i) a.Insert(i);
  BPlusTree<std::int64_t> b = std::move(a);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_TRUE(b.Validate());
  a = std::move(b);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.size(), 100u);
}

}  // namespace
}  // namespace aidx
