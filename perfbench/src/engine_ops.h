// How one benchmark Op becomes a call on the engine's public API, for each
// stack the workloads and the ladder drive. Every function returns the op's
// answer (see common.h) or kFailedAnswer when the engine returned a non-OK
// status.
#pragma once

#include <array>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "dist/sharded_database.h"
#include "exec/engine.h"
#include "util/query_context.h"

namespace perfbench {

inline constexpr std::uint64_t kFailedAnswer = ~std::uint64_t{0} - 1;

/// Table and column names every workload uses: table "t", routing/key
/// column "k", payload columns "a" and "b".
inline const std::string kTable = "t";

/// Rows of the sharded workloads: 3 * 2^20, so each range shard holds ~786k
/// rows. At 2^22 every shard sat at ~2^20 rows, right where its column
/// vectors' capacity doubles, and whether the data (and a few inserts)
/// crossed it moved the RSS by up to 100 MB between seeds.
inline constexpr std::size_t kShardedRows = std::size_t{3} << 20;

/// The deadline converged_serving attaches to every request: generous, so
/// only a stall of the host fails a request.
inline constexpr std::chrono::seconds kRequestDeadline{2};

/// Throws on a failed set-up step: a store that cannot be loaded ends the
/// run without a result.
inline void Check(const aidx::Status& st, const char* what) {
  if (!st.ok()) throw std::runtime_error(std::string(what) + ": " + st.ToString());
}

/// Shards of the sharded workloads.
inline constexpr int kShards = 4;

/// kShards shards, range-routed on k at the domain's quartiles.
inline aidx::TableRoutingSpec RangeOnK() {
  return {.key_column = "k",
          .kind = aidx::RoutingKind::kRange,
          .range_boundaries = {kDomain / 4, kDomain / 2, 3 * (kDomain / 4)}};
}

/// Row-major (k[, a[, b]]) rows, the layout InsertBatch takes.
inline std::vector<std::int64_t> RowMajor(const std::vector<const std::vector<std::int64_t>*>& cols) {
  const std::size_t n = cols[0]->size();
  std::vector<std::int64_t> rows(n * cols.size());
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < cols.size(); ++c) rows[r * cols.size() + c] = (*cols[c])[r];
  }
  return rows;
}

/// A kShards-shard store on RangeOnK() loaded through InsertBatch; `pool` is
/// the scatter pool (null: inline scatter).
inline std::unique_ptr<aidx::ShardedDatabase> LoadSharded(const std::vector<std::string>& columns,
                                             const std::vector<std::int64_t>& rows,
                                             aidx::ThreadPool* pool) {
  aidx::ShardedDatabaseOptions options;
  options.num_shards = kShards;
  options.scatter_pool = pool;
  auto db = std::make_unique<aidx::ShardedDatabase>(options);
  Check(db->CreateTable(kTable, RangeOnK()), "create table");
  for (const std::string& c : columns) Check(db->AddColumn(kTable, c), "add column");
  Check(db->InsertBatch(kTable, rows), "load");
  return db;
}

/// Runs `op` through a Database or a ShardedDatabase (same QueryRequest API).
/// `width` is the table's column count (the leading part of (k, a, b) an
/// insert carries); `tails` the projected columns.
template <typename Db>
std::uint64_t ExecDb(Db& db, const Op& op, std::size_t width,
                     const std::vector<std::string>& tails, bool deadline) {
  aidx::QueryRequest req;
  req.table = kTable;
  req.column = op.kind == OpKind::kCountA ? "a" : "k";
  req.predicate = aidx::RangePredicate<std::int64_t>::Between(op.lo, op.hi);
  req.strategy = aidx::StrategyConfig::Crack();
  if (deadline) req.context = aidx::QueryContext::WithTimeout(kRequestDeadline);
  switch (op.kind) {
    case OpKind::kCount:
    case OpKind::kCountA: {
      auto r = db.Count(req);
      return r.ok() ? static_cast<std::uint64_t>(*r) : kFailedAnswer;
    }
    case OpKind::kSum: {
      auto r = db.Sum(req);
      return r.ok() ? SumAnswer(*r) : kFailedAnswer;
    }
    case OpKind::kProject: {
      req.tails = tails;
      auto r = db.SelectProject(req);
      return r.ok() ? ProjectionAnswer(r->columns) : kFailedAnswer;
    }
    case OpKind::kInsert: {
      const std::array<std::int64_t, 3> row{op.lo, op.a, op.b};
      const auto st = db.Insert(kTable, std::span<const std::int64_t>(row.data(), width));
      return st.ok() ? 1 : kFailedAnswer;
    }
    case OpKind::kDelete: {
      auto r = db.Delete(kTable, "k", op.lo);
      return r.ok() ? (*r ? 1 : 0) : kFailedAnswer;
    }
  }
  return kFailedAnswer;
}

/// Runs a single-column op on a cracked structure: Count/Sum on any of
/// them, writes on those that take them (CrackerColumn is read-only;
/// UpdatableCrackerColumn deletes by value through DeleteValue).
template <typename Column>
std::uint64_t ExecColumn(Column& col, const Op& op) {
  const auto pred = aidx::RangePredicate<std::int64_t>::Between(op.lo, op.hi);
  switch (op.kind) {
    case OpKind::kCount:
    case OpKind::kCountA:
      return static_cast<std::uint64_t>(col.Count(pred));
    case OpKind::kSum:
      return SumAnswer(static_cast<double>(col.Sum(pred)));
    case OpKind::kInsert:
      if constexpr (requires { col.Insert(op.lo); }) {
        col.Insert(op.lo);
        return 1;
      }
      break;
    case OpKind::kDelete:
      if constexpr (requires { col.DeleteValue(op.lo); }) {
        return col.DeleteValue(op.lo) ? 1 : 0;
      } else if constexpr (requires { col.Delete(op.lo); }) {
        return col.Delete(op.lo) ? 1 : 0;
      }
      break;
    case OpKind::kProject:
      break;
  }
  return kFailedAnswer;
}

}  // namespace perfbench
