// Columns: fixed-width dense arrays, the storage unit of the substrate.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "storage/types.h"
#include "util/logging.h"
#include "util/macros.h"
#include "util/result.h"
#include "util/status.h"

namespace aidx {

template <ColumnValue T>
class TypedColumn;

/// Removes the elements at `sorted_positions` (strictly ascending, in
/// range) from `values` in one order-preserving compaction pass — the loop
/// behind every bulk row erase (columns, row ids, tombstone compaction).
template <typename V>
void EraseSortedPositions(std::vector<V>& values,
                          std::span<const std::size_t> sorted_positions) {
  if (sorted_positions.empty()) return;
  AIDX_DCHECK(sorted_positions.back() < values.size());
  std::size_t write = sorted_positions.front();
  std::size_t next_victim = 0;
  for (std::size_t read = write; read < values.size(); ++read) {
    if (next_victim < sorted_positions.size() &&
        read == sorted_positions[next_victim]) {
      ++next_victim;
      continue;
    }
    values[write++] = values[read];
  }
  values.resize(write);
}

/// Type-erased handle to a column. Concrete storage lives in TypedColumn<T>.
class Column {
 public:
  virtual ~Column() = default;

  virtual DataType type() const = 0;
  virtual std::size_t size() const = 0;
  virtual const std::string& name() const = 0;

  /// Bytes of value payload held by this column.
  virtual std::size_t MemoryUsageBytes() const = 0;

  /// Erases the value at `pos`, preserving the order of the rest. Type-
  /// erased so Table::EraseRow can remove one row across heterogeneous
  /// columns in lock step (row-atomic DML).
  virtual void EraseRow(std::size_t pos) = 0;

  /// Erases the values at `sorted_positions` (strictly ascending, in
  /// range), order-preserving. The default loops EraseRow back to front;
  /// TypedColumn overrides with a single compaction pass — the bulk
  /// primitive shard rebalance uses to evacuate a key range in O(n)
  /// instead of O(rows_moved * n).
  virtual void EraseRows(std::span<const std::size_t> sorted_positions) {
    for (std::size_t i = sorted_positions.size(); i > 0; --i) {
      EraseRow(sorted_positions[i - 1]);
    }
  }

  /// Down-casts to the typed column; returns an error on a type mismatch.
  template <ColumnValue T>
  Result<TypedColumn<T>*> As() {
    if (type() != TypeTraits<T>::kType) {
      return Status::InvalidArgument("column '" + name() + "' is " +
                                     std::string(DataTypeToString(type())) +
                                     ", requested " + std::string(TypeTraits<T>::kName));
    }
    return static_cast<TypedColumn<T>*>(this);
  }
  template <ColumnValue T>
  Result<const TypedColumn<T>*> As() const {
    if (type() != TypeTraits<T>::kType) {
      return Status::InvalidArgument("column '" + name() + "' is " +
                                     std::string(DataTypeToString(type())) +
                                     ", requested " + std::string(TypeTraits<T>::kName));
    }
    return static_cast<const TypedColumn<T>*>(this);
  }
};

/// Concrete column: a dense std::vector<T> plus a name.
template <ColumnValue T>
class TypedColumn final : public Column {
 public:
  explicit TypedColumn(std::string name) : name_(std::move(name)) {}
  TypedColumn(std::string name, std::vector<T> values)
      : name_(std::move(name)), values_(std::move(values)) {}

  AIDX_DEFAULT_MOVE_ONLY(TypedColumn);

  DataType type() const override { return TypeTraits<T>::kType; }
  std::size_t size() const override { return values_.size(); }
  const std::string& name() const override { return name_; }
  std::size_t MemoryUsageBytes() const override { return values_.capacity() * sizeof(T); }

  void Reserve(std::size_t n) { values_.reserve(n); }
  void Append(T value) { values_.push_back(value); }
  void AppendMany(std::span<const T> values) {
    values_.insert(values_.end(), values.begin(), values.end());
  }
  void EraseRow(std::size_t pos) override {
    AIDX_DCHECK(pos < values_.size());
    values_.erase(values_.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  void EraseRows(std::span<const std::size_t> sorted_positions) override {
    EraseSortedPositions(values_, sorted_positions);
  }

  /// Unchecked element access (hot paths); bounds are the caller's contract.
  T Get(std::size_t i) const {
    AIDX_DCHECK(i < values_.size());
    return values_[i];
  }

  std::span<const T> Values() const { return values_; }
  /// Mutable view; used by bulk loaders and the update pipeline.
  std::vector<T>& MutableValues() { return values_; }

 private:
  std::string name_;
  std::vector<T> values_;
};

/// Convenience factory: wraps a vector into a heap-allocated typed column.
template <ColumnValue T>
std::unique_ptr<TypedColumn<T>> MakeColumn(std::string name, std::vector<T> values) {
  return std::make_unique<TypedColumn<T>>(std::move(name), std::move(values));
}

}  // namespace aidx
