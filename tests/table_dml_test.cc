// Table-level DML harness: the Database facade's row-atomic contract,
// checked differentially against a plain row-store oracle.
//
//  - every strategy (and every merge policy under the cracked strategies)
//    must answer Count/Sum/SelectProject bit-exactly against the oracle
//    while rows are inserted and deleted between queries;
//  - sideways cracker maps must survive DML (incremental maintenance, no
//    rebuild) and stay equal to a from-scratch Database over the same
//    final table;
//  - the partial-failure contract must hold: a column write failing
//    mid-row (injected via the engine.dml_validate failpoint) leaves the
//    table, its cached paths, and its sideways maps observably unchanged —
//    no torn rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "strategy_config_printer.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/rng.h"

namespace aidx {
namespace {

using Pred = RangePredicate<std::int64_t>;
using Row = std::array<std::int64_t, 3>;  // columns a, b, c

constexpr std::int64_t kDomain = 800;
const char* const kColumns[] = {"a", "b", "c"};

std::vector<Row> RandomRows(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows(n);
  for (auto& row : rows) {
    for (auto& v : row) v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
  }
  return rows;
}

Pred RandomPredicate(Rng* rng) {
  const auto lo = rng->NextInRange(-5, kDomain);
  return Pred::Between(lo, lo + rng->NextInRange(0, kDomain / 4));
}

// Builds a 3-column table from the oracle rows.
void BuildTable(Database* db, const std::vector<Row>& rows) {
  ASSERT_TRUE(db->CreateTable("t").ok());
  for (std::size_t c = 0; c < 3; ++c) {
    std::vector<std::int64_t> values(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) values[i] = rows[i][c];
    ASSERT_TRUE(db->AddColumn("t", kColumns[c], std::move(values)).ok());
  }
}

std::size_t OracleCount(const std::vector<Row>& rows, std::size_t col,
                        const Pred& p) {
  std::size_t n = 0;
  for (const auto& row : rows) n += p.Matches(row[col]) ? 1 : 0;
  return n;
}

double OracleSum(const std::vector<Row>& rows, std::size_t col, const Pred& p) {
  long double sum = 0;
  for (const auto& row : rows) {
    if (p.Matches(row[col])) sum += static_cast<long double>(row[col]);
  }
  return static_cast<double>(sum);
}

// σ_p(a) projecting (b, c), as a sorted bag of pairs.
std::vector<std::array<std::int64_t, 2>> OracleProject(
    const std::vector<Row>& rows, const Pred& p) {
  std::vector<std::array<std::int64_t, 2>> out;
  for (const auto& row : rows) {
    if (p.Matches(row[0])) out.push_back({row[1], row[2]});
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::array<std::int64_t, 2>> SortedPairs(
    const ProjectionResult<std::int64_t>& r) {
  std::vector<std::array<std::int64_t, 2>> out(r.num_rows);
  for (std::size_t i = 0; i < r.num_rows; ++i) {
    out[i] = {r.columns[0][i], r.columns[1][i]};
  }
  std::sort(out.begin(), out.end());
  return out;
}

StrategyConfig WithPolicy(StrategyConfig config, MergePolicy policy) {
  config.merge_policy = policy;
  return config;
}

// ---------------------------------------------------------------------------
// Differential property: every strategy × merge policy against the oracle.
// ---------------------------------------------------------------------------

class TableDmlDifferentialTest
    : public ::testing::TestWithParam<StrategyConfig> {};

INSTANTIATE_TEST_SUITE_P(
    Strategies, TableDmlDifferentialTest,
    ::testing::Values(
        StrategyConfig::FullScan(), StrategyConfig::FullSort(),
        StrategyConfig::BTree(),
        WithPolicy(StrategyConfig::Crack(), MergePolicy::kComplete),
        WithPolicy(StrategyConfig::Crack(), MergePolicy::kGradual),
        WithPolicy(StrategyConfig::Crack(), MergePolicy::kRipple),
        StrategyConfig::StochasticCrack(512), StrategyConfig::AdaptiveMerge(700),
        StrategyConfig::Hybrid(OrganizeMode::kCrack, OrganizeMode::kSort, 700),
        StrategyConfig::ParallelCrack(4, 2)),
    [](const auto& info) {
      std::string name = info.param.DisplayName() + "_" +
                         MergePolicyName(info.param.merge_policy);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// Random interleaved inserts, deletes, and range queries on a 3-column
// table: after every operation, Count and Sum through this strategy's
// cached access paths — and SelectProject through the sideways maps —
// must equal the row oracle on every column.
TEST_P(TableDmlDifferentialTest, MixedWorkloadMatchesRowOracle) {
  const StrategyConfig config = GetParam();
  std::vector<Row> oracle = RandomRows(2500, 97);
  Database db;
  BuildTable(&db, oracle);
  Rng rng(101);
  for (int op = 0; op < 250; ++op) {
    switch (rng.NextBounded(6)) {
      case 0: {  // single-row insert
        Row row;
        for (auto& v : row) {
          v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
        }
        ASSERT_TRUE(db.Insert("t", {row[0], row[1], row[2]}).ok()) << "op " << op;
        oracle.push_back(row);
        break;
      }
      case 1: {  // batch insert, row-major
        std::vector<std::int64_t> flat;
        const std::size_t batch = 1 + rng.NextBounded(4);
        for (std::size_t r = 0; r < batch; ++r) {
          Row row;
          for (auto& v : row) {
            v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
          }
          oracle.push_back(row);
          flat.insert(flat.end(), row.begin(), row.end());
        }
        ASSERT_TRUE(db.InsertBatch("t", flat).ok()) << "op " << op;
        break;
      }
      case 2: {  // delete first row matching a value in a random column
        const std::size_t col = rng.NextBounded(3);
        const auto v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
        const auto it = std::find_if(
            oracle.begin(), oracle.end(),
            [&](const Row& row) { return row[col] == v; });
        auto deleted = db.Delete("t", kColumns[col], v);
        ASSERT_TRUE(deleted.ok()) << "op " << op;
        ASSERT_EQ(*deleted, it != oracle.end())
            << "op " << op << " col " << kColumns[col] << " value " << v;
        if (it != oracle.end()) oracle.erase(it);
        break;
      }
      case 3: {  // range count through the strategy's path, random column
        const std::size_t col = rng.NextBounded(3);
        const Pred p = RandomPredicate(&rng);
        auto count = db.Count(
            {.table = "t", .column = kColumns[col], .predicate = p, .strategy = config});
        ASSERT_TRUE(count.ok()) << "op " << op;
        ASSERT_EQ(*count, OracleCount(oracle, col, p))
            << config.DisplayName() << " op " << op << " col " << kColumns[col]
            << " " << p.ToString();
        break;
      }
      case 4: {  // sum
        const std::size_t col = rng.NextBounded(3);
        const Pred p = RandomPredicate(&rng);
        auto sum = db.Sum(
            {.table = "t", .column = kColumns[col], .predicate = p, .strategy = config});
        ASSERT_TRUE(sum.ok()) << "op " << op;
        ASSERT_DOUBLE_EQ(*sum, OracleSum(oracle, col, p))
            << config.DisplayName() << " op " << op << " col " << kColumns[col];
        break;
      }
      default: {  // select-project through sideways maps
        const Pred p = RandomPredicate(&rng);
        auto r = db.SelectProject(
            {.table = "t", .column = "a", .predicate = p, .tails = {"b", "c"}});
        ASSERT_TRUE(r.ok()) << "op " << op;
        ASSERT_EQ(SortedPairs(*r), OracleProject(oracle, p))
            << config.DisplayName() << " op " << op << " " << p.ToString();
        break;
      }
    }
  }
  // Full-table materialization: every column agrees with the oracle bag.
  for (std::size_t col = 0; col < 3; ++col) {
    auto count = db.Count({.table = "t",
                           .column = kColumns[col],
                           .predicate = Pred::All(),
                           .strategy = config});
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, oracle.size()) << kColumns[col];
  }
}

// Delete-heavy mix over a narrow value domain: the base's tombstones cross
// the table's compaction threshold several times, first-match deletes must
// skip dead duplicates, and every epoch materializes fresh structures over
// a base that still holds dead rows — a new path (same strategy, fresh
// seed, so a new cache entry) and a new sideways map, which joins its
// cohort by cloning a sibling and regathering its tail by row id.
TEST_P(TableDmlDifferentialTest, DeleteHeavyMixCrossesCompactionThreshold) {
  constexpr std::int64_t kNarrow = 48;  // ~33 duplicates per value
  Rng rng(131);
  const auto narrow_row = [&] {
    Row row;
    for (auto& v : row) v = static_cast<std::int64_t>(rng.NextBounded(kNarrow));
    return row;
  };
  std::vector<Row> oracle(1600);
  for (auto& row : oracle) row = narrow_row();
  Database db;
  BuildTable(&db, oracle);
  const Table* table = db.catalog().GetTable("t").value();
  const auto narrow_pred = [&] {
    const auto lo = rng.NextInRange(-2, kNarrow);
    return Pred::Between(lo, lo + rng.NextInRange(0, kNarrow / 3));
  };
  // (head, tails) projections in the order epochs introduce them; every
  // second one adds a map to an existing cohort.
  const std::vector<std::pair<std::size_t, std::vector<std::string>>> projections = {
      {0, {"b"}}, {0, {"c"}}, {1, {"a"}}, {1, {"c"}}, {2, {"a"}}, {2, {"b"}}};
  const auto check_projection = [&](std::size_t which, const Pred& p,
                                    int op) {
    const auto& [head, tails] = projections[which];
    auto r = db.SelectProject(
        {.table = "t", .column = kColumns[head], .predicate = p, .tails = tails});
    ASSERT_TRUE(r.ok()) << "op " << op;
    std::vector<std::int64_t> got = r->columns[0];
    std::vector<std::int64_t> want;
    const std::size_t tail = tails[0][0] - 'a';
    for (const auto& row : oracle) {
      if (p.Matches(row[head])) want.push_back(row[tail]);
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "op " << op << " head " << kColumns[head]
                         << " tail " << tails[0] << " " << p.ToString();
  };

  std::vector<StrategyConfig> configs = {GetParam()};
  std::size_t projections_live = 1;
  std::size_t threshold_compactions = 0;
  std::size_t epochs_over_dead_rows = 0;
  for (int op = 0; op < 2400; ++op) {
    if (op % 480 == 479) {  // a new epoch: fresh paths, a fresh map
      epochs_over_dead_rows += table->num_dead_rows() > 0 ? 1 : 0;
      StrategyConfig fresh = GetParam();
      fresh.seed += configs.size();
      configs.push_back(fresh);
      for (std::size_t col = 0; col < 3; ++col) {
        const Pred p = narrow_pred();
        auto count = db.Count(
            {.table = "t", .column = kColumns[col], .predicate = p, .strategy = fresh});
        ASSERT_TRUE(count.ok()) << "op " << op;
        ASSERT_EQ(*count, OracleCount(oracle, col, p)) << "op " << op;
      }
      if (projections_live < projections.size()) ++projections_live;
      check_projection(projections_live - 1, narrow_pred(), op);
    }
    const std::uint64_t kind = rng.NextBounded(10);
    if (kind < 6 && !oracle.empty()) {
      // Delete by a value that exists, so duplicates are skipped.
      const std::size_t col = rng.NextBounded(3);
      const auto v = oracle[rng.NextBounded(oracle.size())][col];
      const auto it = std::find_if(oracle.begin(), oracle.end(),
                                   [&](const Row& row) { return row[col] == v; });
      const std::size_t dead_before = table->num_dead_rows();
      auto deleted = db.Delete("t", kColumns[col], v);
      ASSERT_TRUE(deleted.ok()) << "op " << op;
      ASSERT_TRUE(*deleted) << "op " << op;
      oracle.erase(it);
      if (dead_before > 0 && table->num_dead_rows() == 0) ++threshold_compactions;
    } else if (kind == 6) {
      const Row row = narrow_row();
      ASSERT_TRUE(db.Insert("t", {row[0], row[1], row[2]}).ok()) << "op " << op;
      oracle.push_back(row);
    } else if (kind < 9) {
      const std::size_t col = rng.NextBounded(3);
      const StrategyConfig& config = configs[rng.NextBounded(configs.size())];
      const Pred p = narrow_pred();
      auto count = db.Count(
          {.table = "t", .column = kColumns[col], .predicate = p, .strategy = config});
      ASSERT_TRUE(count.ok()) << "op " << op;
      ASSERT_EQ(*count, OracleCount(oracle, col, p))
          << config.DisplayName() << " op " << op << " col " << kColumns[col];
      auto sum = db.Sum(
          {.table = "t", .column = kColumns[col], .predicate = p, .strategy = config});
      ASSERT_TRUE(sum.ok()) << "op " << op;
      ASSERT_DOUBLE_EQ(*sum, OracleSum(oracle, col, p)) << "op " << op;
    } else {
      check_projection(rng.NextBounded(projections_live), narrow_pred(), op);
    }
  }
  EXPECT_GE(threshold_compactions, 3u);
  EXPECT_GE(epochs_over_dead_rows, 3u);
  EXPECT_EQ(table->num_rows(), oracle.size());
  for (std::size_t which = 0; which < projections.size(); ++which) {
    check_projection(which, Pred::All(), -1);
  }
  for (const StrategyConfig& config : configs) {
    for (std::size_t col = 0; col < 3; ++col) {
      auto count = db.Count({.table = "t",
                             .column = kColumns[col],
                             .predicate = Pred::All(),
                             .strategy = config});
      ASSERT_TRUE(count.ok());
      EXPECT_EQ(*count, oracle.size()) << config.DisplayName() << " " << kColumns[col];
    }
  }
  // Late maps joined their cohorts by cloning, not by replay.
  for (const char* head : kColumns) {
    auto state = db.SidewaysState("t", head);
    ASSERT_TRUE(state.ok()) << head;
    EXPECT_EQ((*state)->stats().maps_cloned, 1u) << head;
  }
}

// ---------------------------------------------------------------------------
// Row-atomicity pins.
// ---------------------------------------------------------------------------

TEST(TableDmlContractTest, RowWidthIsValidatedBeforeAnyMutation) {
  Database db;
  BuildTable(&db, RandomRows(100, 7));
  EXPECT_TRUE(db.Insert("t", {1, 2}).IsInvalidArgument());        // too narrow
  EXPECT_TRUE(db.Insert("t", {1, 2, 3, 4}).IsInvalidArgument());  // too wide
  // Batch size must be a multiple of the column count.
  EXPECT_TRUE(
      db.InsertBatch("t", std::vector<std::int64_t>{1, 2, 3, 4})
          .IsInvalidArgument());
  auto count = db.Count({.table = "t",
                         .column = "a",
                         .predicate = Pred::All(),
                         .strategy = StrategyConfig::FullScan()});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 100u);  // nothing applied
}

// The partial-failure contract, witnessed by fault injection: a column
// write that fails mid-row (here: the second of three columns) must leave
// the table, its cached paths, and its sideways maps observably unchanged.
TEST(TableDmlContractTest, FailedDmlLeavesNoTornRows) {
  std::vector<Row> oracle = RandomRows(500, 9);
  Database db;
  BuildTable(&db, oracle);
  // Warm paths and sideways maps so the fault would hit cached structures.
  const Pred warm = Pred::Between(100, 400);
  ASSERT_TRUE(db.Count({.table = "t",
                        .column = "b",
                        .predicate = warm,
                        .strategy = StrategyConfig::Crack()}).ok());
  ASSERT_TRUE(db.SelectProject(
      {.table = "t", .column = "a", .predicate = warm, .tails = {"b", "c"}}).ok());
  const auto snapshot = [&](std::size_t col) {
    auto sum = db.Sum({.table = "t",
                       .column = kColumns[col],
                       .predicate = Pred::All(),
                       .strategy = StrategyConfig::Crack()});
    AIDX_CHECK_OK(sum.status());
    return *sum;
  };
  const double sums_before[] = {snapshot(0), snapshot(1), snapshot(2)};
  auto state = db.SidewaysState("t", "a");
  ASSERT_TRUE(state.ok());
  const std::size_t dml_before = (*state)->stats().dml_inserts;

  // Fault the validate phase for column "b" only, through the engine's
  // own failpoint (the scope is "<table>\x1f<column>").
  FailpointPolicy fault;
  fault.mode = FailpointMode::kCallback;
  fault.handler = [](std::string_view scope) {
    const std::size_t sep = scope.find(kFailpointScopeSep);
    const std::string_view column =
        sep == std::string_view::npos ? scope : scope.substr(sep + 1);
    return column == std::string_view("b") ? Status::Internal("injected fault")
                                           : Status::OK();
  };
  failpoints::engine_dml_validate.Arm(std::move(fault));
  EXPECT_FALSE(db.Insert("t", {1, 2, 3}).ok());
  EXPECT_FALSE(db.InsertBatch("t", std::vector<std::int64_t>{1, 2, 3}).ok());
  EXPECT_FALSE(db.Delete("t", "a", oracle.front()[0]).ok());
  failpoints::engine_dml_validate.Disarm();

  // No torn rows: row count, per-column sums, sideways log, and query
  // results are exactly what they were before the faulting calls.
  auto count = db.Count({.table = "t",
                         .column = "a",
                         .predicate = Pred::All(),
                         .strategy = StrategyConfig::Crack()});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, oracle.size());
  for (std::size_t col = 0; col < 3; ++col) {
    EXPECT_DOUBLE_EQ(snapshot(col), sums_before[col]) << kColumns[col];
  }
  state = db.SidewaysState("t", "a");
  ASSERT_TRUE(state.ok());
  EXPECT_EQ((*state)->stats().dml_inserts, dml_before);
  auto r = db.SelectProject(
      {.table = "t", .column = "a", .predicate = warm, .tails = {"b", "c"}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(SortedPairs(*r), OracleProject(oracle, warm));
  // With the failpoint disarmed the same row applies cleanly.
  EXPECT_TRUE(db.Insert("t", {1, 2, 3}).ok());
  count = db.Count({.table = "t",
                    .column = "a",
                    .predicate = Pred::All(),
                    .strategy = StrategyConfig::Crack()});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, oracle.size() + 1);
}

// ---------------------------------------------------------------------------
// Sideways survival: cracked investment is not dropped by writes.
// ---------------------------------------------------------------------------

// Regression pin for the old drop-on-write behavior: a write burst leaves
// maps_created flat (incremental maintenance, not rebuild), piece counts
// keep growing, and the maintained maps answer exactly like a from-scratch
// Database over the same final table after every DML batch.
TEST(SidewaysSurvivalTest, MapsMaintainedIncrementallyAcrossWriteBursts) {
  std::vector<Row> oracle = RandomRows(2000, 17);
  Database db;
  BuildTable(&db, oracle);
  Rng rng(19);
  // Warm both maps; remember the cracked state.
  for (int q = 0; q < 8; ++q) {
    ASSERT_TRUE(db.SelectProject({.table = "t",
                                  .column = "a",
                                  .predicate = RandomPredicate(&rng),
                                  .tails = {"b", "c"}}).ok());
  }
  auto state = db.SidewaysState("t", "a");
  ASSERT_TRUE(state.ok());
  const std::size_t maps_before = (*state)->stats().maps_created;
  ASSERT_EQ(maps_before, 2u);
  const auto* map_b = (*state)->PeekMap("b");
  ASSERT_NE(map_b, nullptr);
  const std::size_t cuts_before = map_b->index().num_cuts();
  ASSERT_GT(cuts_before, 0u);

  for (int batch = 0; batch < 10; ++batch) {
    // A write burst...
    for (int i = 0; i < 12; ++i) {
      if (rng.NextBounded(4) != 0) {
        Row row;
        for (auto& v : row) {
          v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
        }
        ASSERT_TRUE(db.Insert("t", {row[0], row[1], row[2]}).ok());
        oracle.push_back(row);
      } else if (!oracle.empty()) {
        const std::size_t pick = rng.NextBounded(oracle.size());
        const auto key = oracle[pick][0];
        const auto it = std::find_if(
            oracle.begin(), oracle.end(),
            [&](const Row& row) { return row[0] == key; });
        auto deleted = db.Delete("t", "a", key);
        ASSERT_TRUE(deleted.ok());
        ASSERT_TRUE(*deleted);
        oracle.erase(it);
      }
    }
    // ...then queries: incremental result == rebuild-from-scratch result
    // == oracle, for the same predicate.
    Database rebuilt;
    BuildTable(&rebuilt, oracle);
    for (int q = 0; q < 4; ++q) {
      const Pred p = RandomPredicate(&rng);
      auto inc = db.SelectProject(
          {.table = "t", .column = "a", .predicate = p, .tails = {"b", "c"}});
      auto fresh = rebuilt.SelectProject(
          {.table = "t", .column = "a", .predicate = p, .tails = {"b", "c"}});
      ASSERT_TRUE(inc.ok()) << "batch " << batch;
      ASSERT_TRUE(fresh.ok()) << "batch " << batch;
      ASSERT_EQ(inc->num_rows, fresh->num_rows) << "batch " << batch;
      ASSERT_EQ(SortedPairs(*inc), SortedPairs(*fresh)) << "batch " << batch;
      ASSERT_EQ(SortedPairs(*inc), OracleProject(oracle, p)) << "batch " << batch;
    }
  }

  // The cracker survived every burst: same object, no extra map builds,
  // DML folded into the op log, cracked pieces accumulated.
  state = db.SidewaysState("t", "a");
  ASSERT_TRUE(state.ok());
  EXPECT_EQ((*state)->stats().maps_created, maps_before);
  EXPECT_GT((*state)->stats().dml_inserts, 0u);
  EXPECT_GT((*state)->stats().dml_deletes, 0u);
  map_b = (*state)->PeekMap("b");
  ASSERT_NE(map_b, nullptr);
  EXPECT_GE(map_b->index().num_cuts(), cuts_before);
  EXPECT_EQ(db.num_cached_sideways(), 1u);
  // Schema changes are the one remaining drop: AddColumn resets the state.
  ASSERT_TRUE(
      db.AddColumn("t", "d", std::vector<std::int64_t>(oracle.size(), 0)).ok());
  EXPECT_EQ(db.num_cached_sideways(), 0u);
  EXPECT_TRUE(db.SidewaysState("t", "a").status().IsNotFound());
}

}  // namespace
}  // namespace aidx
