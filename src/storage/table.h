// Tables: named collections of equal-length columns.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "storage/column.h"
#include "storage/types.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/status.h"

namespace aidx {

/// A table is a bag of equal-length columns addressed by name, plus one row
/// identity per position. Positions shift as rows are erased; row ids are
/// stable for a row's lifetime and unique for the table's — they are what
/// lets cached structures (sideways cracker maps) address tuples across
/// base reorganizations. The table allocates ids; the Database facade is
/// the single writer that keeps columns, ids, and cached structures in a
/// row-atomic lock step (docs/UPDATES.md §5).
///
/// Row deletes are **tombstoned**: TombstoneRow marks a row dead in O(1)
/// and leaves the column vectors alone. Dead rows are compacted away by one
/// order-preserving pass (the EraseRows loop) when they reach
/// 1/kCompactDivisor of the stored rows, or as soon as a dense view is about
/// to leave the table — GetColumn, GetTypedColumn, row_ids(), AddColumn,
/// EraseRow(s). So every public position, span, num_rows() and row_ids()
/// describes exactly the live rows in insertion order; only the row
/// primitives below see *slots* (physical positions, dead rows included).
/// Compaction mutates storage: callers that share a table across threads
/// must hold their writer lock around every compacting call.
/// num_columns() and column_names() never compact.
class Table {
 public:
  /// Dead rows are compacted away once they reach 1/kCompactDivisor of the
  /// stored rows — amortized O(1) per delete, bounded dead-row memory.
  static constexpr std::size_t kCompactDivisor = 8;

  explicit Table(std::string name) : name_(std::move(name)) {}

  AIDX_DEFAULT_MOVE_ONLY(Table);

  const std::string& name() const { return name_; }
  std::size_t num_columns() const { return columns_.size(); }
  /// Number of live rows; 0 for a table with no columns.
  std::size_t num_rows() const { return num_slots() - num_dead_; }
  /// Rows tombstoned but not yet compacted away.
  std::size_t num_dead_rows() const { return num_dead_; }

  /// Adds a column; fails if the name exists or the length disagrees with
  /// the table's current row count (unless the table is empty).
  Status AddColumn(std::unique_ptr<Column> column);

  /// Typed helper: builds and adds a column from a vector in one step.
  template <ColumnValue T>
  Status AddColumn(std::string column_name, std::vector<T> values) {
    return AddColumn(MakeColumn<T>(std::move(column_name), std::move(values)));
  }

  /// Looks a column up by name (a dense view: compacts first).
  Result<Column*> GetColumn(std::string_view column_name);

  /// Typed lookup combining GetColumn and Column::As<T>.
  template <ColumnValue T>
  Result<const TypedColumn<T>*> GetTypedColumn(std::string_view column_name) {
    AIDX_ASSIGN_OR_RETURN(Column * col, GetColumn(column_name));
    return static_cast<const Column*>(col)->As<T>();
  }

  /// Column names in insertion order.
  const std::vector<std::string>& column_names() const { return order_; }

  /// Position of the named column in column_names() order. Never compacts.
  Result<std::size_t> ColumnIndex(std::string_view column_name) const;

  /// OK when every column holds T — the precondition of the row
  /// primitives. Never compacts.
  template <ColumnValue T>
  Status CheckRowType() const {
    for (const auto& col : columns_) {
      AIDX_RETURN_NOT_OK(static_cast<const Column&>(*col).As<T>().status());
    }
    return Status::OK();
  }

  /// Row ids by position (lazily initialized to 0..num_rows-1 the first
  /// time row identity is needed; a dense view: compacts first).
  /// Invalidated by the next DML call.
  std::span<const row_id_t> row_ids();

  /// Hands out the next fresh row id (one allocation per row, shared by
  /// every column and cached structure of that row).
  row_id_t AllocateRowId();

  /// Records the id of a row whose values have just been appended to every
  /// column. Call exactly once per row, after the appends.
  void CommitAppendedRow(row_id_t rid);

  /// Erases the row at `pos` from every column (order-preserving) and
  /// retires its id.
  Status EraseRow(std::size_t pos);

  /// Erases the rows at `sorted_positions` (strictly ascending) from every
  /// column in one compaction pass each, retiring their ids — the bulk
  /// form shard rebalance uses to evacuate a migrated key range.
  Status EraseRows(std::span<const std::size_t> sorted_positions);

  // -- Row primitives (row-atomic DML; docs/UPDATES.md §5) ------------------
  //
  // Columns are addressed by index (column_names() order) and rows by slot;
  // every column must hold T (CheckRowType<T>). A slot is valid until the
  // next compaction. Only TombstoneRow may compact.

  /// Appends `row` (one value per column) and commits its id `rid`
  /// (from AllocateRowId).
  template <ColumnValue T>
  void AppendRow(std::span<const T> row, row_id_t rid) {
    AIDX_DCHECK(row.size() == columns_.size());
    for (std::size_t i = 0; i < columns_.size(); ++i) Typed<T>(i).Append(row[i]);
    CommitAppendedRow(rid);
  }

  /// Slot of the first live row (lowest position) whose column `column`
  /// equals `value`; nullopt when none does.
  template <ColumnValue T>
  std::optional<std::size_t> FindFirstLive(std::size_t column, T value) const {
    const std::span<const T> values = Typed<T>(column).Values();
    for (auto it = std::find(values.begin(), values.end(), value); it != values.end();
         it = std::find(it + 1, values.end(), value)) {
      const auto slot = static_cast<std::size_t>(it - values.begin());
      if (!IsDead(slot)) return slot;
    }
    return std::nullopt;
  }

  /// Copies the row at live `slot` into `out` (one value per column) and
  /// returns its row id.
  template <ColumnValue T>
  row_id_t ReadRow(std::size_t slot, std::span<T> out) {
    AIDX_DCHECK(out.size() == columns_.size());
    AIDX_DCHECK(slot < num_slots() && !IsDead(slot));
    for (std::size_t i = 0; i < columns_.size(); ++i) out[i] = Typed<T>(i).Get(slot);
    EnsureRowIds();
    return row_ids_[slot];
  }

  /// Marks the live row at `slot` deleted in O(1), retiring its id;
  /// compacts once dead rows reach 1/kCompactDivisor of the stored rows.
  void TombstoneRow(std::size_t slot);

  /// Total payload bytes across columns (dead rows included until they
  /// are compacted away).
  std::size_t MemoryUsageBytes() const;

 private:
  std::size_t num_slots() const {
    return columns_.empty() ? 0 : columns_.front()->size();
  }
  bool IsDead(std::size_t slot) const {
    const std::size_t word = slot / 64;
    return word < dead_.size() && ((dead_[word] >> (slot % 64)) & 1) != 0;
  }
  template <ColumnValue T>
  TypedColumn<T>& Typed(std::size_t column) const {
    AIDX_DCHECK(column < columns_.size());
    AIDX_DCHECK(columns_[column]->type() == TypeTraits<T>::kType);
    return static_cast<TypedColumn<T>&>(*columns_[column]);
  }
  void EnsureRowIds();
  /// Drops every tombstoned row (order-preserving); no-op when none.
  void Compact();
  /// Removes `sorted_slots` from every column and from row_ids_.
  void EraseSlots(std::span<const std::size_t> sorted_slots);

  std::string name_;
  std::vector<std::string> order_;
  std::vector<std::unique_ptr<Column>> columns_;  // order_ order
  std::vector<row_id_t> row_ids_;
  row_id_t next_row_id_ = 0;
  bool row_ids_initialized_ = false;
  std::vector<std::uint64_t> dead_;  // tombstone bitmap by slot, grown lazily
  std::size_t num_dead_ = 0;
};

}  // namespace aidx
