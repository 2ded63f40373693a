// Reference semantics of PartitionedCrackerColumn for the differentials in
// striped_latch_test.cc and striped_write_test.cc.
//
// PartitionOracle is K plain UpdatableCrackerColumns, one per partition,
// driven single-threaded: the column under test's splitters, the same
// scatter of the base (row ids are base offsets), the same per-partition
// stochastic seed (stochastic_seed + p), writes routed to
// upper_bound(splitters, v) with globally assigned row ids
// (InsertWithRid), and queries fanned out over the overlapping partitions
// in ascending order. Every read and write goes through the inner column's
// own query and merge code, so a single-threaded run of the striped
// protocol must give the same answers, the same Delete hits and, for pure
// query streams, the same summed CrackerStats.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/cut.h"
#include "parallel/partitioned_cracker_column.h"
#include "storage/predicate.h"
#include "storage/types.h"
#include "update/updatable_column.h"

namespace aidx {

template <ColumnValue T>
class PartitionOracle {
 public:
  /// Partitions `base` exactly as `column` did; `column` must have been
  /// built from the same `base`.
  PartitionOracle(std::span<const T> base, const PartitionedCrackerColumn<T>& column)
      : splitters_(column.splitters().begin(), column.splitters().end()),
        next_rid_(static_cast<row_id_t>(base.size())) {
    const PartitionedCrackerOptions& options = column.options();
    const std::size_t k = splitters_.size() + 1;
    const bool with_rids = options.column_options.with_row_ids;
    std::vector<std::vector<T>> values(k);
    std::vector<std::vector<row_id_t>> row_ids(k);
    for (std::size_t i = 0; i < base.size(); ++i) {
      const std::size_t p = PartitionOf(base[i]);
      values[p].push_back(base[i]);
      if (with_rids) row_ids[p].push_back(static_cast<row_id_t>(i));
    }
    partitions_.reserve(k);
    for (std::size_t p = 0; p < k; ++p) {
      CrackerColumnOptions crack = options.column_options;
      crack.stochastic_seed += p;
      partitions_.emplace_back(std::move(values[p]), std::move(row_ids[p]),
                               typename UpdatableCrackerColumn<T>::Options{
                                   .policy = options.merge_policy,
                                   .gradual_budget = options.gradual_budget,
                                   .crack = crack},
                               /*first_fresh_rid=*/0);
    }
  }

  row_id_t Insert(T value) {
    const row_id_t rid = next_rid_++;
    partitions_[PartitionOf(value)].InsertWithRid(value, rid);
    return rid;
  }

  bool Delete(T value) { return partitions_[PartitionOf(value)].DeleteValue(value); }

  std::size_t Count(const RangePredicate<T>& pred) {
    std::size_t total = 0;
    ForEachOverlapping(pred, [&](UpdatableCrackerColumn<T>& c) { total += c.Count(pred); });
    return total;
  }

  long double Sum(const RangePredicate<T>& pred) {
    long double total = 0;
    ForEachOverlapping(pred, [&](UpdatableCrackerColumn<T>& c) { total += c.Sum(pred); });
    return total;
  }

  CrackerStats AggregatedStats() const {
    CrackerStats total;
    for (const auto& c : partitions_) {
      const CrackerStats& s = c.stats();
      total.num_selects += s.num_selects;
      total.num_crack_in_two += s.num_crack_in_two;
      total.num_crack_in_three += s.num_crack_in_three;
      total.num_stochastic_cracks += s.num_stochastic_cracks;
      total.values_touched += s.values_touched;
    }
    return total;
  }

  UpdateStats AggregatedUpdateStats() const {
    UpdateStats total;
    for (const auto& c : partitions_) {
      const UpdateStats& s = c.update_stats();
      total.inserts_queued += s.inserts_queued;
      total.deletes_queued += s.deletes_queued;
      total.deletes_cancelled += s.deletes_cancelled;
      total.inserts_merged += s.inserts_merged;
      total.deletes_merged += s.deletes_merged;
      total.ripple_element_moves += s.ripple_element_moves;
    }
    return total;
  }

  bool Validate() const {
    return std::all_of(partitions_.begin(), partitions_.end(),
                       [](const auto& c) { return c.Validate(); });
  }

 private:
  std::size_t PartitionOf(T v) const {
    return static_cast<std::size_t>(
        std::upper_bound(splitters_.begin(), splitters_.end(), v) - splitters_.begin());
  }

  // Visits the partitions a non-empty predicate can match, ascending: from
  // the owner of its lower bound to the owner of its inclusive upper bound,
  // or, for an exclusive upper bound, to the last partition holding values
  // below it.
  template <typename Fn>
  void ForEachOverlapping(const RangePredicate<T>& pred, Fn&& fn) {
    if (pred.DefinitelyEmpty()) return;
    std::size_t first = 0;
    std::size_t last = partitions_.size() - 1;
    if (pred.low_kind != BoundKind::kUnbounded) first = PartitionOf(pred.low);
    if (pred.high_kind == BoundKind::kInclusive) {
      last = PartitionOf(pred.high);
    } else if (pred.high_kind == BoundKind::kExclusive) {
      last = static_cast<std::size_t>(
          std::lower_bound(splitters_.begin(), splitters_.end(), pred.high) -
          splitters_.begin());
    }
    for (std::size_t p = first; p <= last; ++p) fn(partitions_[p]);
  }

  std::vector<T> splitters_;
  std::vector<UpdatableCrackerColumn<T>> partitions_;
  row_id_t next_rid_;
};

}  // namespace aidx
