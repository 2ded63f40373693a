// Reference ripple moves for the layout differentials in
// updatable_column_test.cc and sideways_update_test.cc.
//
// RippleOracle runs the SIGMOD'07 ripple insert and delete the two-walk
// way, over a plain snapshot of a cracked array (values, an optional
// payload per value, and the (cut, position) list): one walk collects the
// downstream piece boundaries into a vector, the element moves cascade
// over it (right to left for an insert, left to right for a delete), and a
// second walk shifts the cut positions. The cracker column and the cracker
// map do both in one walk over the paged index; after every ripple their
// values, payloads, cut positions and move counts must match this oracle
// exactly.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/cracker_index.h"
#include "core/cut.h"
#include "storage/types.h"

namespace aidx {

template <ColumnValue T, typename Payload>
struct RippleOracle {
  std::vector<T> values;
  std::vector<Payload> payload;  // empty: the array carries no payload
  std::vector<std::pair<Cut<T>, std::size_t>> cuts;  // ascending
  std::size_t moves = 0;

  static std::vector<std::pair<Cut<T>, std::size_t>> CutsOf(
      const CrackerIndex<T>& index) {
    std::vector<std::pair<Cut<T>, std::size_t>> out;
    index.VisitCuts([&](const Cut<T>& cut, std::size_t pos) { out.emplace_back(cut, pos); });
    return out;
  }

  // Index of the first cut a value `v` lies below: the target piece's upper
  // cut, where the downstream boundaries begin.
  std::size_t FirstCutAbove(T v) const {
    std::size_t k = 0;
    while (k < cuts.size() && !cuts[k].first.Below(v)) ++k;
    return k;
  }

  std::vector<std::size_t> Boundaries(std::size_t first) const {
    std::vector<std::size_t> out;
    for (std::size_t k = first; k < cuts.size(); ++k) out.push_back(cuts[k].second);
    return out;
  }

  void ShiftPositions(std::size_t first, bool up) {
    for (std::size_t k = first; k < cuts.size(); ++k) {
      cuts[k].second = up ? cuts[k].second + 1 : cuts[k].second - 1;
    }
  }

  void Move(std::size_t to, std::size_t from) {
    values[to] = values[from];
    if (!payload.empty()) payload[to] = payload[from];
    ++moves;
  }

  void Insert(T value, const Payload& extra) {
    const std::size_t first = FirstCutAbove(value);
    const std::vector<std::size_t> boundaries = Boundaries(first);
    const std::size_t old_size = values.size();
    values.push_back(value);
    if (!payload.empty()) payload.push_back(extra);
    std::size_t hole = old_size;
    for (auto it = boundaries.rbegin(); it != boundaries.rend(); ++it) {
      if (hole != *it) Move(hole, *it);
      hole = *it;
    }
    values[hole] = value;
    if (!payload.empty()) payload[hole] = extra;
    ShiftPositions(first, /*up=*/true);
  }

  // Deletes the first tuple of `value`'s piece for which `victim(i)` holds;
  // false when there is none.
  template <typename Victim>
  bool Delete(T value, Victim&& victim) {
    const std::size_t first = FirstCutAbove(value);
    const std::size_t old_size = values.size();
    const std::size_t begin = first == 0 ? 0 : cuts[first - 1].second;
    const std::size_t end = first == cuts.size() ? old_size : cuts[first].second;
    std::size_t pos = end;
    for (std::size_t i = begin; i < end; ++i) {
      if (victim(i)) {
        pos = i;
        break;
      }
    }
    if (pos == end) return false;
    const std::vector<std::size_t> boundaries = Boundaries(first);
    std::size_t hole = pos;
    const auto move_last = [&](std::size_t piece_end) {
      if (hole != piece_end - 1) Move(hole, piece_end - 1);
      hole = piece_end - 1;
    };
    move_last(boundaries.empty() ? old_size : boundaries.front());
    for (std::size_t j = 0; j < boundaries.size(); ++j) {
      move_last(j + 1 < boundaries.size() ? boundaries[j + 1] : old_size);
    }
    values.pop_back();
    if (!payload.empty()) payload.pop_back();
    ShiftPositions(first, /*up=*/false);
    return true;
  }
};

}  // namespace aidx
