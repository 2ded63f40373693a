#include "storage/table.h"

#include <bit>

#include "util/failpoint.h"
#include "util/logging.h"

namespace aidx {

Status Table::AddColumn(std::unique_ptr<Column> column) {
  // Entry gate, before any validation state is read: an injected failure
  // leaves the table untouched (schema changes are validate-then-mutate).
  AIDX_RETURN_NOT_OK(failpoints::storage_add_column.Inject());
  if (column == nullptr) {
    return Status::InvalidArgument("cannot add null column to table '" + name_ + "'");
  }
  const std::string& col_name = column->name();
  if (col_name.empty()) {
    return Status::InvalidArgument("column name must be non-empty");
  }
  if (ColumnIndex(col_name).ok()) {
    return Status::AlreadyExists("column '" + col_name + "' already exists in table '" +
                                 name_ + "'");
  }
  if (!columns_.empty() && column->size() != num_rows()) {
    return Status::InvalidArgument(
        "column '" + col_name + "' has " + std::to_string(column->size()) +
        " rows; table '" + name_ + "' has " + std::to_string(num_rows()));
  }
  const bool first_column = columns_.empty();
  // The new column holds live rows only: drop the dead ones it lacks.
  Compact();
  order_.push_back(col_name);
  columns_.push_back(std::move(column));
  // The first column defines the row count; identity assigned before it
  // existed (an empty table) is stale, so let it re-initialize on demand.
  if (first_column) {
    row_ids_.clear();
    row_ids_initialized_ = false;
  }
  return Status::OK();
}

Result<std::size_t> Table::ColumnIndex(std::string_view column_name) const {
  for (std::size_t i = 0; i < order_.size(); ++i) {
    if (order_[i] == column_name) return i;
  }
  return Status::NotFound("no column '" + std::string(column_name) + "' in table '" +
                          name_ + "'");
}

void Table::EnsureRowIds() {
  if (row_ids_initialized_) return;
  const std::size_t n = num_slots();
  row_ids_.resize(n);
  for (std::size_t i = 0; i < n; ++i) row_ids_[i] = static_cast<row_id_t>(i);
  if (next_row_id_ < n) next_row_id_ = static_cast<row_id_t>(n);
  row_ids_initialized_ = true;
}

std::span<const row_id_t> Table::row_ids() {
  Compact();
  EnsureRowIds();
  return row_ids_;
}

row_id_t Table::AllocateRowId() {
  EnsureRowIds();
  return next_row_id_++;
}

void Table::CommitAppendedRow(row_id_t rid) {
  // Delay-only point: commit sits inside the cannot-fail apply phase of
  // row-atomic DML, so errors have nowhere to surface — but a delay here
  // widens races for the concurrency harnesses.
  (void)failpoints::storage_commit_row.Inject();
  AIDX_DCHECK(row_ids_initialized_);
  AIDX_DCHECK(row_ids_.size() + 1 == num_slots())
      << "CommitAppendedRow before every column appended the row";
  row_ids_.push_back(rid);
}

Status Table::EraseRow(std::size_t pos) {
  if (pos >= num_rows()) {
    return Status::OutOfRange("row " + std::to_string(pos) + " out of range; table '" +
                              name_ + "' has " + std::to_string(num_rows()) + " rows");
  }
  Compact();
  EnsureRowIds();
  for (auto& col : columns_) col->EraseRow(pos);
  row_ids_.erase(row_ids_.begin() + static_cast<std::ptrdiff_t>(pos));
  return Status::OK();
}

Status Table::EraseRows(std::span<const std::size_t> sorted_positions) {
  if (sorted_positions.empty()) return Status::OK();
  for (std::size_t i = 0; i < sorted_positions.size(); ++i) {
    if (sorted_positions[i] >= num_rows()) {
      return Status::OutOfRange("row " + std::to_string(sorted_positions[i]) +
                                " out of range; table '" + name_ + "' has " +
                                std::to_string(num_rows()) + " rows");
    }
    if (i > 0 && sorted_positions[i] <= sorted_positions[i - 1]) {
      return Status::InvalidArgument(
          "EraseRows positions must be strictly ascending");
    }
  }
  Compact();
  EraseSlots(sorted_positions);
  return Status::OK();
}

void Table::TombstoneRow(std::size_t slot) {
  AIDX_DCHECK(slot < num_slots() && !IsDead(slot));
  // Row identity must cover every slot before any slot dies, so the
  // compaction pass keeps ids and values aligned.
  EnsureRowIds();
  const std::size_t word = slot / 64;
  if (word >= dead_.size()) dead_.resize(word + 1, 0);
  dead_[word] |= std::uint64_t{1} << (slot % 64);
  ++num_dead_;
  if (num_dead_ * kCompactDivisor >= num_slots()) Compact();
}

void Table::Compact() {
  if (num_dead_ == 0) return;
  std::vector<std::size_t> slots;
  slots.reserve(num_dead_);
  for (std::size_t word = 0; word < dead_.size(); ++word) {
    for (std::uint64_t bits = dead_[word]; bits != 0; bits &= bits - 1) {
      slots.push_back(word * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
  AIDX_DCHECK(slots.size() == num_dead_);
  EraseSlots(slots);
  dead_.clear();
  num_dead_ = 0;
}

void Table::EraseSlots(std::span<const std::size_t> sorted_slots) {
  EnsureRowIds();
  for (auto& col : columns_) col->EraseRows(sorted_slots);
  EraseSortedPositions(row_ids_, sorted_slots);
}

Result<Column*> Table::GetColumn(std::string_view column_name) {
  AIDX_ASSIGN_OR_RETURN(const std::size_t i, ColumnIndex(column_name));
  Compact();
  return columns_[i].get();
}

std::size_t Table::MemoryUsageBytes() const {
  std::size_t total = 0;
  for (const auto& col : columns_) total += col->MemoryUsageBytes();
  return total;
}

}  // namespace aidx
