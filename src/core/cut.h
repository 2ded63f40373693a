// Cuts: the unit of physical-organization knowledge cracking accumulates.
//
// A cut (v, kind) asserted at array position p means:
//   kind == kLess    : every value in [0, p) is  < v, every value in [p, n) is >= v
//   kind == kLessEq  : every value in [0, p) is <= v, every value in [p, n) is  > v
//
// Both cuts for one pivot value may coexist (queries "x < 5" and "x <= 5"
// install different cuts); their positions differ by the number of values
// equal to the pivot. Cuts are totally ordered by (value, kind) with
// kLess < kLessEq, and cut positions are monotone in that order.
#pragma once

#include <limits>
#include <sstream>
#include <string>
#include <type_traits>

#include "storage/predicate.h"
#include "storage/types.h"

namespace aidx {

enum class CutKind : char {
  kLess,    // below-side predicate is v' <  v
  kLessEq,  // below-side predicate is v' <= v
};

/// A pivot plus the side rule; see file comment for semantics.
template <ColumnValue T>
struct Cut {
  T value{};
  CutKind kind = CutKind::kLess;

  /// True when `v` belongs strictly below this cut.
  bool Below(T v) const { return kind == CutKind::kLess ? v < value : v <= value; }

  /// Total order consistent with position monotonicity.
  friend bool operator<(const Cut& a, const Cut& b) {
    if (a.value != b.value) return a.value < b.value;
    return a.kind == CutKind::kLess && b.kind == CutKind::kLessEq;
  }
  friend bool operator==(const Cut& a, const Cut& b) {
    return a.value == b.value && a.kind == b.kind;
  }

  std::string ToString() const {
    std::ostringstream os;
    os << "(" << (kind == CutKind::kLess ? "< " : "<= ") << value << ")";
    return os.str();
  }
};

/// The two cuts that realize a range predicate. Either may be absent
/// (unbounded side). Lower-cut position = first qualifying offset; upper-cut
/// position = one past the last qualifying offset.
template <ColumnValue T>
struct PredicateCuts {
  bool has_lower = false;
  Cut<T> lower{};
  bool has_upper = false;
  Cut<T> upper{};
};

/// Translates predicate bounds into cuts.
///
/// x >= a  ⇒ lower cut (a, kLess):   result starts where values stop being < a.
/// x >  a  ⇒ lower cut (a, kLessEq): result starts where values stop being <= a.
/// x <= b  ⇒ upper cut (b, kLessEq): result ends where values stop being <= b.
/// x <  b  ⇒ upper cut (b, kLess):   result ends where values stop being < b.
///
/// A float NaN is below no cut, so cracking parks it above every pivot. A
/// floating-point predicate bounded below only therefore also gets the
/// upper cut (+inf, kLessEq), which keeps NaN out of the result exactly as
/// RangePredicate::Matches does.
template <ColumnValue T>
PredicateCuts<T> CutsForPredicate(const RangePredicate<T>& pred) {
  PredicateCuts<T> cuts;
  switch (pred.low_kind) {
    case BoundKind::kInclusive:
      cuts.has_lower = true;
      cuts.lower = {pred.low, CutKind::kLess};
      break;
    case BoundKind::kExclusive:
      cuts.has_lower = true;
      cuts.lower = {pred.low, CutKind::kLessEq};
      break;
    case BoundKind::kUnbounded:
      break;
  }
  switch (pred.high_kind) {
    case BoundKind::kInclusive:
      cuts.has_upper = true;
      cuts.upper = {pred.high, CutKind::kLessEq};
      break;
    case BoundKind::kExclusive:
      cuts.has_upper = true;
      cuts.upper = {pred.high, CutKind::kLess};
      break;
    case BoundKind::kUnbounded:
      if constexpr (std::is_floating_point_v<T>) {
        if (cuts.has_lower) {
          cuts.has_upper = true;
          cuts.upper = {std::numeric_limits<T>::infinity(), CutKind::kLessEq};
        }
      }
      break;
  }
  return cuts;
}

}  // namespace aidx
