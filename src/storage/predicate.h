// Range predicates: the selection vocabulary shared by all access paths.
//
// Every adaptive-indexing operator in this library answers predicates of the
// form  low (<|<=) x (<|<=) high , possibly unbounded on either side — the
// query class all the surveyed cracking work evaluates.
#pragma once

#include <limits>
#include <sstream>
#include <string>
#include <type_traits>

#include "storage/types.h"

namespace aidx {

/// How a range endpoint participates in the predicate.
enum class BoundKind : char {
  kInclusive,
  kExclusive,
  kUnbounded,
};

/// True for a floating-point NaN. A NaN is unordered against every value:
/// it satisfies no bounded predicate side, and no cut (core/cut.h), and
/// thus no crack pivot, may carry one.
template <ColumnValue T>
bool IsNan(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return v != v;
  } else {
    (void)v;
    return false;
  }
}

/// A one-dimensional range predicate over a column of T.
template <ColumnValue T>
struct RangePredicate {
  T low{};
  BoundKind low_kind = BoundKind::kUnbounded;
  T high{};
  BoundKind high_kind = BoundKind::kUnbounded;

  /// low <= x <= high
  static RangePredicate Between(T low, T high) {
    return {low, BoundKind::kInclusive, high, BoundKind::kInclusive};
  }
  /// low <= x < high  (the convention of the cracking papers' examples)
  static RangePredicate HalfOpen(T low, T high) {
    return {low, BoundKind::kInclusive, high, BoundKind::kExclusive};
  }
  /// x < high
  static RangePredicate LessThan(T high) {
    return {T{}, BoundKind::kUnbounded, high, BoundKind::kExclusive};
  }
  /// x <= high
  static RangePredicate AtMost(T high) {
    return {T{}, BoundKind::kUnbounded, high, BoundKind::kInclusive};
  }
  /// x > low
  static RangePredicate GreaterThan(T low) {
    return {low, BoundKind::kExclusive, T{}, BoundKind::kUnbounded};
  }
  /// x >= low
  static RangePredicate AtLeast(T low) {
    return {low, BoundKind::kInclusive, T{}, BoundKind::kUnbounded};
  }
  /// Matches every value.
  static RangePredicate All() { return {}; }

  /// Each bounded side must hold, so a value unordered against its bound
  /// (a float NaN) fails every bounded side and matches only All().
  bool Matches(T v) const {
    switch (low_kind) {
      case BoundKind::kInclusive:
        if (!(v >= low)) return false;
        break;
      case BoundKind::kExclusive:
        if (!(v > low)) return false;
        break;
      case BoundKind::kUnbounded:
        break;
    }
    switch (high_kind) {
      case BoundKind::kInclusive:
        if (!(v <= high)) return false;
        break;
      case BoundKind::kExclusive:
        if (!(v < high)) return false;
        break;
      case BoundKind::kUnbounded:
        break;
    }
    return true;
  }

  /// True when no value can satisfy the predicate (conservative syntactic
  /// check; used for early-outs). A NaN bound matches nothing, and the
  /// early-out is what keeps it from becoming a cut in the crack family.
  bool DefinitelyEmpty() const {
    if ((low_kind != BoundKind::kUnbounded && IsNan(low)) ||
        (high_kind != BoundKind::kUnbounded && IsNan(high))) {
      return true;
    }
    if (low_kind == BoundKind::kUnbounded || high_kind == BoundKind::kUnbounded) {
      return false;
    }
    if (low > high) return true;
    if (low == high) {
      return low_kind == BoundKind::kExclusive || high_kind == BoundKind::kExclusive;
    }
    return false;
  }

  std::string ToString() const {
    std::ostringstream os;
    switch (low_kind) {
      case BoundKind::kInclusive:
        os << low << " <= ";
        break;
      case BoundKind::kExclusive:
        os << low << " < ";
        break;
      case BoundKind::kUnbounded:
        break;
    }
    os << "x";
    switch (high_kind) {
      case BoundKind::kInclusive:
        os << " <= " << high;
        break;
      case BoundKind::kExclusive:
        os << " < " << high;
        break;
      case BoundKind::kUnbounded:
        break;
    }
    return os.str();
  }
};

/// A contiguous run of positions [begin, end) in some array.
struct PositionRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }

  bool operator==(const PositionRange&) const = default;
};

}  // namespace aidx
