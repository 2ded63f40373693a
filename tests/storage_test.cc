#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "core/cracker_column.h"
#include "exec/access_path.h"
#include "exec/engine.h"
#include "index/scan.h"
#include "parallel/partitioned_cracker_column.h"
#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/predicate.h"
#include "storage/table.h"
#include "storage/types.h"
#include "util/rng.h"

namespace aidx {
namespace {

TEST(ColumnTest, TypedColumnBasics) {
  TypedColumn<std::int64_t> col("price", {3, 1, 4, 1, 5});
  EXPECT_EQ(col.type(), DataType::kInt64);
  EXPECT_EQ(col.size(), 5u);
  EXPECT_EQ(col.name(), "price");
  EXPECT_EQ(col.Get(2), 4);
  EXPECT_GE(col.MemoryUsageBytes(), 5 * sizeof(std::int64_t));
}

TEST(ColumnTest, AppendGrows) {
  TypedColumn<double> col("d");
  col.Append(1.5);
  col.Append(2.5);
  const std::vector<double> more = {3.5, 4.5};
  col.AppendMany(more);
  EXPECT_EQ(col.size(), 4u);
  EXPECT_DOUBLE_EQ(col.Get(3), 4.5);
}

TEST(ColumnTest, TypedDowncastChecksType) {
  auto col = MakeColumn<std::int32_t>("a", {1, 2, 3});
  Column* base = col.get();
  ASSERT_TRUE(base->As<std::int32_t>().ok());
  const auto bad = base->As<std::int64_t>();
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(TableTest, AddAndLookup) {
  Table t("orders");
  ASSERT_TRUE(t.AddColumn<std::int64_t>("id", {1, 2, 3}).ok());
  ASSERT_TRUE(t.AddColumn<std::int64_t>("amount", {10, 20, 30}).ok());
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 2u);
  auto col = t.GetTypedColumn<std::int64_t>("amount");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->Get(1), 20);
}

TEST(TableTest, RejectsDuplicateColumnNames) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn<std::int64_t>("a", {1}).ok());
  EXPECT_TRUE(t.AddColumn<std::int64_t>("a", {2}).IsAlreadyExists());
}

TEST(TableTest, RejectsLengthMismatch) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn<std::int64_t>("a", {1, 2}).ok());
  EXPECT_TRUE(t.AddColumn<std::int64_t>("b", {1}).IsInvalidArgument());
}

TEST(TableTest, RejectsNullAndUnnamedColumns) {
  Table t("t");
  EXPECT_TRUE(t.AddColumn(nullptr).IsInvalidArgument());
  EXPECT_TRUE(t.AddColumn<std::int64_t>("", {1}).IsInvalidArgument());
}

TEST(TableTest, MissingColumnIsNotFound) {
  Table t("t");
  EXPECT_TRUE(t.GetColumn("ghost").status().IsNotFound());
}

TEST(TableTest, ColumnNamesInInsertionOrder) {
  Table t("t");
  ASSERT_TRUE(t.AddColumn<std::int64_t>("z", {1}).ok());
  ASSERT_TRUE(t.AddColumn<std::int64_t>("a", {2}).ok());
  EXPECT_EQ(t.column_names(), (std::vector<std::string>{"z", "a"}));
}

// ---------------------------------------------------------------------------
// Tombstoned row deletes: dead rows are invisible through every public view
// and compacted away in insertion order.
// ---------------------------------------------------------------------------

// A two-column table: k = 0..n-1, v = 10 * k.
Table MakeKvTable(std::size_t n) {
  Table t("t");
  std::vector<std::int64_t> k(n), v(n);
  std::iota(k.begin(), k.end(), 0);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::int64_t>(10 * i);
  AIDX_CHECK_OK(t.AddColumn<std::int64_t>("k", std::move(k)));
  AIDX_CHECK_OK(t.AddColumn<std::int64_t>("v", std::move(v)));
  return t;
}

// Tombstones the first live row whose k equals `key`; returns its row id.
row_id_t TombstoneKey(Table* t, std::int64_t key) {
  const auto slot = t->FindFirstLive<std::int64_t>(0, key);
  AIDX_CHECK(slot.has_value()) << "no live row with k=" << key;
  std::vector<std::int64_t> row(t->num_columns());
  const row_id_t rid = t->ReadRow<std::int64_t>(*slot, row);
  AIDX_CHECK(row[0] == key);
  t->TombstoneRow(*slot);
  return rid;
}

std::vector<std::int64_t> ColumnValues(Table* t, std::string_view name) {
  const auto col = t->GetTypedColumn<std::int64_t>(name);
  AIDX_CHECK_OK(col.status());
  const auto values = (*col)->Values();
  return {values.begin(), values.end()};
}

TEST(TableTombstoneTest, NumRowsCountsLiveRowsOnly) {
  Table t = MakeKvTable(100);
  TombstoneKey(&t, 3);
  TombstoneKey(&t, 50);
  EXPECT_EQ(t.num_rows(), 98u);
  EXPECT_EQ(t.num_dead_rows(), 2u);
  // Tombstoned rows are invisible to the probe.
  EXPECT_FALSE(t.FindFirstLive<std::int64_t>(0, 3).has_value());
  EXPECT_TRUE(t.FindFirstLive<std::int64_t>(0, 4).has_value());
}

TEST(TableTombstoneTest, DenseViewsAreCompactedInInsertionOrder) {
  Table t = MakeKvTable(100);
  const row_id_t rid3 = TombstoneKey(&t, 3);
  const row_id_t rid50 = TombstoneKey(&t, 50);
  const std::vector<std::int64_t> k = ColumnValues(&t, "k");
  EXPECT_EQ(t.num_dead_rows(), 0u);  // the span left the table compacted
  std::vector<std::int64_t> expected;
  for (std::int64_t i = 0; i < 100; ++i) {
    if (i != 3 && i != 50) expected.push_back(i);
  }
  EXPECT_EQ(k, expected);
  const std::vector<std::int64_t> v = ColumnValues(&t, "v");
  ASSERT_EQ(v.size(), k.size());
  for (std::size_t i = 0; i < k.size(); ++i) EXPECT_EQ(v[i], 10 * k[i]);
  // Row ids stay aligned with the values: the initial ids are positions.
  const auto rids = t.row_ids();
  ASSERT_EQ(rids.size(), k.size());
  for (std::size_t i = 0; i < k.size(); ++i) {
    EXPECT_EQ(rids[i], static_cast<row_id_t>(k[i]));
  }
  EXPECT_EQ(std::find(rids.begin(), rids.end(), rid3), rids.end());
  EXPECT_EQ(std::find(rids.begin(), rids.end(), rid50), rids.end());
}

TEST(TableTombstoneTest, RowIdsViewCompactsToo) {
  Table t = MakeKvTable(64);
  TombstoneKey(&t, 0);
  const auto rids = t.row_ids();
  EXPECT_EQ(t.num_dead_rows(), 0u);
  ASSERT_EQ(rids.size(), 63u);
  EXPECT_EQ(rids.front(), 1u);
  EXPECT_EQ(rids.back(), 63u);
}

TEST(TableTombstoneTest, CrossingTheThresholdCompacts) {
  const std::size_t n = 8 * Table::kCompactDivisor * 10;  // threshold: n / 8
  const std::size_t threshold = n / Table::kCompactDivisor;
  Table t = MakeKvTable(n);
  // Delete every other key from the front; one short of the threshold the
  // dead rows are still held...
  for (std::size_t i = 0; i + 1 < threshold; ++i) {
    TombstoneKey(&t, static_cast<std::int64_t>(2 * i));
  }
  EXPECT_EQ(t.num_dead_rows(), threshold - 1);
  EXPECT_EQ(t.num_rows(), n - (threshold - 1));
  // ...and the delete that reaches it compacts them all, order kept.
  TombstoneKey(&t, static_cast<std::int64_t>(2 * (threshold - 1)));
  EXPECT_EQ(t.num_dead_rows(), 0u);
  EXPECT_EQ(t.num_rows(), n - threshold);
  const std::vector<std::int64_t> k = ColumnValues(&t, "k");
  ASSERT_EQ(k.size(), n - threshold);
  EXPECT_TRUE(std::is_sorted(k.begin(), k.end()));
  for (std::size_t i = 0; i < threshold; ++i) {
    EXPECT_EQ(k[i], static_cast<std::int64_t>(2 * i + 1));
  }
  // The next threshold is relative to the smaller table.
  TombstoneKey(&t, 1);
  EXPECT_EQ(t.num_dead_rows(), 1u);
}

TEST(TableTombstoneTest, FirstMatchSkipsDeadDuplicates) {
  // k = 7 at v = 0, 2, 3; 25 rows, so three tombstones stay below the
  // compaction threshold and the probe must step over them.
  std::vector<std::int64_t> k = {7, 1, 7, 7, 2};
  for (std::int64_t i = 0; i < 20; ++i) k.push_back(100 + i);
  std::vector<std::int64_t> v(k.size());
  std::iota(v.begin(), v.end(), 0);
  Table t("t");
  ASSERT_TRUE(t.AddColumn<std::int64_t>("k", k).ok());
  ASSERT_TRUE(t.AddColumn<std::int64_t>("v", v).ok());
  std::vector<std::int64_t> row(2);
  for (const std::int64_t expected_v : {0, 2, 3}) {
    const auto slot = t.FindFirstLive<std::int64_t>(0, 7);
    ASSERT_TRUE(slot.has_value());
    t.ReadRow<std::int64_t>(*slot, row);
    EXPECT_EQ(row[1], expected_v);
    t.TombstoneRow(*slot);
  }
  EXPECT_EQ(t.num_dead_rows(), 3u);
  EXPECT_FALSE(t.FindFirstLive<std::int64_t>(0, 7).has_value());
  const std::vector<std::int64_t> live_v = ColumnValues(&t, "v");
  ASSERT_EQ(live_v.size(), 22u);
  EXPECT_EQ(live_v[0], 1);
  EXPECT_EQ(live_v[1], 4);
  EXPECT_EQ(live_v[2], 5);
}

TEST(TableTombstoneTest, AppendAfterTombstonesKeepsOrderAndIds) {
  Table t = MakeKvTable(40);
  TombstoneKey(&t, 5);
  const row_id_t rid = t.AllocateRowId();
  const std::vector<std::int64_t> row = {1000, 10000};
  t.AppendRow<std::int64_t>(row, rid);
  EXPECT_EQ(t.num_rows(), 40u);
  EXPECT_EQ(rid, 40u);  // ids are never reused
  const std::vector<std::int64_t> k = ColumnValues(&t, "k");
  EXPECT_EQ(k.back(), 1000);
  EXPECT_EQ(t.row_ids().back(), rid);
}

TEST(TableTombstoneTest, AddColumnWithDeadRowsTakesLiveLength) {
  Table t = MakeKvTable(20);
  TombstoneKey(&t, 0);
  TombstoneKey(&t, 10);
  // The new column must match the live row count, not the stored one.
  EXPECT_TRUE(
      t.AddColumn<std::int64_t>("bad", std::vector<std::int64_t>(20, 0)).IsInvalidArgument());
  EXPECT_EQ(t.num_dead_rows(), 2u);  // a rejected column changes nothing
  std::vector<std::int64_t> w(18);
  std::iota(w.begin(), w.end(), 100);
  ASSERT_TRUE(t.AddColumn<std::int64_t>("w", w).ok());
  EXPECT_EQ(t.num_dead_rows(), 0u);
  EXPECT_EQ(t.num_rows(), 18u);
  const std::vector<std::int64_t> k = ColumnValues(&t, "k");
  EXPECT_EQ(k.front(), 1);
  EXPECT_EQ(k[9], 11);  // 10 is gone
  EXPECT_EQ(ColumnValues(&t, "w"), w);
}

TEST(TableTombstoneTest, EraseRowUsesLivePositions) {
  Table t = MakeKvTable(20);
  TombstoneKey(&t, 1);
  // Live position 1 is k = 2 now.
  ASSERT_TRUE(t.EraseRow(1).ok());
  EXPECT_EQ(t.num_dead_rows(), 0u);
  EXPECT_EQ(t.num_rows(), 18u);
  const std::vector<std::int64_t> k = ColumnValues(&t, "k");
  EXPECT_EQ(k[0], 0);
  EXPECT_EQ(k[1], 3);
  EXPECT_TRUE(t.EraseRow(18).IsOutOfRange());  // live count, not stored
}

TEST(TableTombstoneTest, EraseRowsUsesLivePositions) {
  Table t = MakeKvTable(20);
  TombstoneKey(&t, 0);
  TombstoneKey(&t, 4);
  // Live positions 0, 3, 17 are k = 1, 5, 19.
  const std::vector<std::size_t> positions = {0, 3, 17};
  ASSERT_TRUE(t.EraseRows(positions).ok());
  EXPECT_EQ(t.num_rows(), 15u);
  const std::vector<std::int64_t> k = ColumnValues(&t, "k");
  for (const std::int64_t gone : {0, 1, 4, 5, 19}) {
    EXPECT_EQ(std::find(k.begin(), k.end(), gone), k.end()) << gone;
  }
  EXPECT_TRUE(std::is_sorted(k.begin(), k.end()));
  const auto rids = t.row_ids();
  for (std::size_t i = 0; i < k.size(); ++i) {
    EXPECT_EQ(rids[i], static_cast<row_id_t>(k[i]));
  }
  const std::vector<std::size_t> out_of_range = {15};
  EXPECT_TRUE(t.EraseRows(out_of_range).IsOutOfRange());
}

TEST(TableTombstoneTest, DatabaseStatsCountLiveRows) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t").ok());
  std::vector<std::int64_t> k(200);
  std::iota(k.begin(), k.end(), 0);
  ASSERT_TRUE(db.AddColumn("t", "k", k).ok());
  ASSERT_TRUE(db.AddColumn("t", "v", k).ok());
  for (std::int64_t key = 0; key < 5; ++key) {
    auto deleted = db.Delete("t", "k", key);
    ASSERT_TRUE(deleted.ok());
    EXPECT_TRUE(*deleted);
  }
  const Table* t = db.catalog().GetTable("t").value();
  EXPECT_EQ(t->num_dead_rows(), 5u);  // held, below the threshold
  EXPECT_EQ(db.Stats().rows, 195u);
  auto deleted = db.Delete("t", "k", 3);  // already gone
  ASSERT_TRUE(deleted.ok());
  EXPECT_FALSE(*deleted);
  auto count = db.Count({.table = "t",
                         .column = "v",
                         .predicate = RangePredicate<std::int64_t>::All(),
                         .strategy = StrategyConfig::FullScan()});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 195u);
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog cat;
  auto created = cat.CreateTable("t1");
  ASSERT_TRUE(created.ok());
  EXPECT_TRUE(cat.GetTable("t1").ok());
  EXPECT_TRUE(cat.CreateTable("t1").status().IsAlreadyExists());
  EXPECT_TRUE(cat.DropTable("t1").ok());
  EXPECT_TRUE(cat.GetTable("t1").status().IsNotFound());
  EXPECT_TRUE(cat.DropTable("t1").IsNotFound());
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable("b").ok());
  ASSERT_TRUE(cat.CreateTable("a").ok());
  EXPECT_EQ(cat.TableNames(), (std::vector<std::string>{"a", "b"}));
}

TEST(PredicateTest, BetweenMatchesInclusive) {
  const auto p = RangePredicate<std::int64_t>::Between(2, 5);
  EXPECT_FALSE(p.Matches(1));
  EXPECT_TRUE(p.Matches(2));
  EXPECT_TRUE(p.Matches(5));
  EXPECT_FALSE(p.Matches(6));
}

TEST(PredicateTest, HalfOpenExcludesHigh) {
  const auto p = RangePredicate<std::int64_t>::HalfOpen(2, 5);
  EXPECT_TRUE(p.Matches(2));
  EXPECT_TRUE(p.Matches(4));
  EXPECT_FALSE(p.Matches(5));
}

TEST(PredicateTest, OneSidedForms) {
  EXPECT_TRUE(RangePredicate<std::int64_t>::LessThan(3).Matches(2));
  EXPECT_FALSE(RangePredicate<std::int64_t>::LessThan(3).Matches(3));
  EXPECT_TRUE(RangePredicate<std::int64_t>::AtMost(3).Matches(3));
  EXPECT_TRUE(RangePredicate<std::int64_t>::GreaterThan(3).Matches(4));
  EXPECT_FALSE(RangePredicate<std::int64_t>::GreaterThan(3).Matches(3));
  EXPECT_TRUE(RangePredicate<std::int64_t>::AtLeast(3).Matches(3));
  EXPECT_TRUE(RangePredicate<std::int64_t>::All().Matches(-100));
}

TEST(PredicateTest, DefinitelyEmptyCases) {
  using P = RangePredicate<std::int64_t>;
  EXPECT_TRUE(P::Between(5, 4).DefinitelyEmpty());
  EXPECT_TRUE(P::HalfOpen(5, 5).DefinitelyEmpty());
  EXPECT_FALSE(P::Between(5, 5).DefinitelyEmpty());
  EXPECT_FALSE(P::LessThan(0).DefinitelyEmpty());
  P both_exclusive{5, BoundKind::kExclusive, 5, BoundKind::kExclusive};
  EXPECT_TRUE(both_exclusive.DefinitelyEmpty());
}

TEST(PredicateTest, PositionRangeHelpers) {
  PositionRange r{3, 7};
  EXPECT_EQ(r.size(), 4u);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE((PositionRange{5, 5}).empty());
}

TEST(PredicateTest, WorksForFloat64) {
  const auto p = RangePredicate<double>::HalfOpen(0.5, 1.5);
  EXPECT_TRUE(p.Matches(0.5));
  EXPECT_TRUE(p.Matches(1.0));
  EXPECT_FALSE(p.Matches(1.5));
}

// NaN fails every bounded side and matches only All(); infinities are
// ordinary values.
TEST(PredicateTest, NanFailsEveryBoundedSide) {
  using P = RangePredicate<double>;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const P& p : {P::Between(-1, 1), P::HalfOpen(-1, 1), P::LessThan(1),
                     P::AtMost(1), P::GreaterThan(-1), P::AtLeast(-1),
                     P::Between(-inf, inf)}) {
    EXPECT_FALSE(p.Matches(nan)) << p.ToString();
  }
  EXPECT_TRUE(P::All().Matches(nan));
  for (const P& p : {P::AtLeast(nan), P::LessThan(nan), P::Between(0, nan),
                     P::HalfOpen(nan, 1)}) {
    EXPECT_TRUE(p.DefinitelyEmpty()) << p.ToString();  // a NaN bound matches nothing
  }
  EXPECT_TRUE(P::AtLeast(0).Matches(inf));
  EXPECT_FALSE(P::LessThan(inf).Matches(inf));
  EXPECT_TRUE(P::AtMost(inf).Matches(inf));
  EXPECT_TRUE(P::Between(-inf, 0).Matches(-inf));
  EXPECT_FALSE(P::GreaterThan(-inf).Matches(-inf));
}

// Scan and the cracker agree on a float64 column holding NaN and ±inf.
TEST(PredicateTest, ScanAgreesWithCrackingOnNanAndInfinities) {
  using P = RangePredicate<double>;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> values = {3.5, nan, -inf, 0.0,  inf, -2.0, nan,
                                      7.0, 1.0, inf,  nan, -inf, 2.5, 0.5};
  const std::vector<P> preds = {
      P::Between(0, 3),     P::HalfOpen(-inf, 1), P::LessThan(2),
      P::AtMost(inf),       P::GreaterThan(0.5),  P::AtLeast(-inf),
      P::Between(-inf, inf), P::All(),            P::Between(inf, inf),
      P::AtLeast(nan),      P::Between(0, nan),   P::LessThan(nan),
      P::HalfOpen(-2, 7)};
  CrackerColumn<double> cracker(values);
  for (const P& p : preds) {
    EXPECT_EQ(cracker.Count(p), ScanCount<double>(values, p)) << p.ToString();
  }
  for (const StrategyConfig& config :
       {StrategyConfig::Crack(), StrategyConfig::StochasticCrack(2),
        StrategyConfig::ParallelCrack(2, 1)}) {
    auto path = MakeAccessPath<double>(values, config);
    for (const P& p : preds) {
      EXPECT_EQ(path->Count(p), ScanCount<double>(values, p))
          << config.DisplayName() << " " << p.ToString();
    }
  }
}

// A NaN is unordered against every cut, so stochastic pre-cracking must
// never pick one as a pivot. With most of the column NaN and a threshold of
// 2 nearly every pre-crack draws one; both pre-crack loops (CrackerColumn's
// and the partitioned column's striped one) keep a valid index and count
// like a scan.
TEST(PredicateTest, StochasticPreCracksNeverPivotOnNan) {
  using P = RangePredicate<double>;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(41);
  std::vector<double> values(3000);
  for (double& v : values) {
    const std::uint64_t dice = rng.NextBounded(100);
    v = dice < 60   ? nan
        : dice < 63 ? (dice % 2 == 0 ? inf : -inf)
                    : static_cast<double>(rng.NextBounded(2000)) - 1000.0;
  }
  CrackerColumn<double> cracker(values, {.stochastic_threshold = 2});
  PartitionedCrackerColumn<double> partitioned(
      values, {.num_partitions = 4, .column_options = {.stochastic_threshold = 2}});
  for (int q = 0; q < 300; ++q) {
    const double lo = static_cast<double>(rng.NextBounded(2200)) - 1100.0;
    const double hi = lo + static_cast<double>(rng.NextBounded(400));
    const P preds[] = {P::Between(lo, hi), P::HalfOpen(lo, hi), P::LessThan(hi),
                       P::GreaterThan(lo)};
    const P& p = preds[q % 4];
    const std::size_t want = ScanCount<double>(values, p);
    ASSERT_EQ(cracker.Count(p), want) << p.ToString();
    ASSERT_EQ(partitioned.Count(p), want) << p.ToString();
  }
  EXPECT_TRUE(cracker.ValidatePieces());
  EXPECT_TRUE(partitioned.ValidatePieces());
  EXPECT_GT(cracker.stats().num_stochastic_cracks, 0u);
}

}  // namespace
}  // namespace aidx
