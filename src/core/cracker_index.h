// The cracker index: a paged sorted array of cuts over one cracked array.
//
// Pieces are the maximal runs between adjacent cut positions. The index
// answers "where is the piece a new cut must crack" (floor/ceiling search),
// records realized cuts, and shifts cut positions for the ripple moves the
// update algorithms (SIGMOD 2007) make.
//
// Layout: cuts are kept in ascending order in a vector of pages, each page
// holding up to kPageCapacity cuts and their positions in two contiguous
// arrays. A search is a binary search over the pages' last cuts, then one
// inside a page; a ripple walks the downstream positions as flat arrays.
// Main-memory adaptive indexing is bound by cache behaviour (Alvarez et al.,
// "Main Memory Adaptive Indexing for Multi-core Systems"): one heap node per
// cut, as in the paper's AVL tree, made every ripple a pointer chase.
//
// Ownership: a CrackerIndex stores only (cut, position) bookkeeping — it
// never owns or touches the cracked array itself. It is owned by exactly
// one physical container (CrackerColumn or CrackerMap), which is
// responsible for keeping positions consistent with the array it manages:
// the contract is that AddCut(cut, p) is called only after the owner has
// physically partitioned the enclosing piece at p, and set_column_size /
// ShiftForInsert / ShiftForDelete are reserved for the update pipeline that
// shifts positions in lock step with ripple moves.
//
// Usage (the cracking inner loop):
//   CutLookup<T> look = index.Lookup(cut);
//   if (!look.exact) {                       // piece [begin, end) must crack
//     std::size_t p = /* CrackInTwo over look.piece */;
//     index.AddCut(cut, p);
//   }                                        // look.position / p is the answer
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "core/cut.h"
#include "storage/types.h"
#include "util/logging.h"
#include "util/macros.h"

namespace aidx {

/// Bookkeeping for one piece of a cracked array.
template <ColumnValue T>
struct PieceInfo {
  std::size_t begin = 0;
  std::size_t end = 0;
  /// Bound cuts; absent at the array's extremes.
  std::optional<Cut<T>> lower;  // values in the piece are !lower->Below(v)
  std::optional<Cut<T>> upper;  // values in the piece are  upper->Below(v)
};

/// Result of probing the index with a cut.
template <ColumnValue T>
struct CutLookup {
  /// True when the cut is already realized; `position` is then exact and
  /// `piece` is meaningless.
  bool exact = false;
  std::size_t position = 0;
  /// The piece that must be cracked to realize the cut.
  PieceInfo<T> piece;
};

template <ColumnValue T>
class CrackerIndex {
 public:
  /// Cuts per page. A full page splits in half on the next insert; a page
  /// whose last cut is erased is dropped.
  static constexpr std::size_t kPageCapacity = 128;

  explicit CrackerIndex(std::size_t column_size) : column_size_(column_size) {}

  AIDX_DEFAULT_MOVE_ONLY(CrackerIndex);

  std::size_t column_size() const { return column_size_; }
  /// Updates the logical array size (update pipeline grows/shrinks the
  /// cracked array); existing cut positions must already be consistent.
  void set_column_size(std::size_t n) { column_size_ = n; }

  std::size_t num_cuts() const { return num_cuts_; }
  std::size_t num_pieces() const { return num_cuts_ + 1; }
  std::size_t num_pages() const { return pages_.size(); }

  /// Probes for `cut`; either finds it realized or identifies the enclosing
  /// piece that a crack would have to reorganize.
  CutLookup<T> Lookup(const Cut<T>& cut) const {
    CutLookup<T> out;
    const Slot s = LowerBound(cut);
    if (s.page < pages_.size() && pages_[s.page].cuts[s.i] == cut) {
      out.exact = true;
      out.position = pages_[s.page].positions[s.i];
      return out;
    }
    out.piece = PieceBefore(s);
    return out;
  }

  /// Records a realized cut. The position must lie inside the enclosing
  /// piece identified by Lookup (checked in debug builds).
  void AddCut(const Cut<T>& cut, std::size_t position) {
    AIDX_DCHECK(position <= column_size_);
    AIDX_DCHECK(!IsNan(cut.value)) << "NaN cut " << cut.ToString();
    Slot s = LowerBound(cut);
    if (s.page == pages_.size()) {  // above every cut: append to the last page
      if (pages_.empty()) pages_.push_back(NewPage());
      s.page = pages_.size() - 1;
      s.i = pages_.back().cuts.size();
    } else {
      AIDX_CHECK(!(pages_[s.page].cuts[s.i] == cut))
          << "cut " << cut.ToString() << " already realized";
    }
    if (pages_[s.page].cuts.size() == kPageCapacity) {
      constexpr std::size_t kHalf = kPageCapacity / 2;
      Page upper = NewPage();
      Page& full = pages_[s.page];
      upper.cuts.assign(full.cuts.begin() + kHalf, full.cuts.end());
      upper.positions.assign(full.positions.begin() + kHalf, full.positions.end());
      full.cuts.resize(kHalf);
      full.positions.resize(kHalf);
      pages_.insert(pages_.begin() + static_cast<std::ptrdiff_t>(s.page) + 1,
                    std::move(upper));
      if (s.i > kHalf) {
        ++s.page;
        s.i -= kHalf;
      }
    }
    Page& page = pages_[s.page];
    page.cuts.insert(page.cuts.begin() + static_cast<std::ptrdiff_t>(s.i), cut);
    page.positions.insert(page.positions.begin() + static_cast<std::ptrdiff_t>(s.i),
                          position);
    ++num_cuts_;
  }

  /// The piece that would contain a not-yet-realized cut. (Also correct for
  /// realized cuts: returns the zero-or-more-width piece to its right.)
  PieceInfo<T> PieceAround(const Cut<T>& cut) const {
    return PieceBefore(PartitionPoint([&](const Cut<T>& c) { return !(cut < c); }));
  }

  /// The piece whose value interval admits value `v` — where an insert of
  /// `v` must land. Boundary rule: v belongs below every cut c with
  /// c.Below(v) and at-or-above every cut with !c.Below(v). Cuts are
  /// ordered so that Below(v) is monotone (false...false, true...true); the
  /// piece ends at the first cut with Below(v).
  PieceInfo<T> PieceForValue(T v) const {
    return PieceBefore(PartitionPoint([&](const Cut<T>& c) { return !c.Below(v); }));
  }

  /// Visits cuts in ascending order: `fn(const Cut<T>&, std::size_t pos)`.
  template <typename Fn>
  void VisitCuts(Fn&& fn) const {
    for (const Page& page : pages_) {
      for (std::size_t i = 0; i < page.cuts.size(); ++i) {
        fn(page.cuts[i], page.positions[i]);
      }
    }
  }

  /// Visits every piece left to right.
  template <typename Fn>
  void VisitPieces(Fn&& fn) const {
    PieceInfo<T> current;
    current.begin = 0;
    VisitCuts([&](const Cut<T>& cut, std::size_t pos) {
      current.end = pos;
      current.upper = cut;
      fn(current);
      current = PieceInfo<T>{};
      current.begin = pos;
      current.lower = cut;
    });
    current.end = column_size_;
    current.upper.reset();
    fn(current);
  }

  /// Index side of a ripple insert (SIGMOD'07): the array grows by one slot
  /// at its end and every cut at or above `from` moves one position right.
  /// `move(p)` is called once per distinct old position p of those cuts,
  /// ascending, in the same walk that shifts them. An absent `from` (the
  /// target piece is the last one) shifts no cut.
  template <typename MoveFn>
  void ShiftForInsert(const std::optional<Cut<T>>& from, MoveFn&& move) {
    ShiftFrom(from, /*up=*/true, move);
    ++column_size_;
  }

  /// Index side of a ripple delete: the array shrinks by one slot at its end
  /// and every cut at or above `from` moves one position left. `move(p)` is
  /// called as in ShiftForInsert, with the old positions.
  template <typename MoveFn>
  void ShiftForDelete(const std::optional<Cut<T>>& from, MoveFn&& move) {
    AIDX_DCHECK(column_size_ > 0);
    ShiftFrom(from, /*up=*/false, move);
    --column_size_;
  }

  /// Drops a realized cut (piece merge; used by update algorithms).
  bool EraseCut(const Cut<T>& cut) {
    const Slot s = LowerBound(cut);
    if (s.page == pages_.size() || !(pages_[s.page].cuts[s.i] == cut)) return false;
    Page& page = pages_[s.page];
    page.cuts.erase(page.cuts.begin() + static_cast<std::ptrdiff_t>(s.i));
    page.positions.erase(page.positions.begin() + static_cast<std::ptrdiff_t>(s.i));
    if (page.cuts.empty()) {
      pages_.erase(pages_.begin() + static_cast<std::ptrdiff_t>(s.page));
    }
    --num_cuts_;
    return true;
  }

  /// Deep copy (the type is otherwise move-only). Sideways cracking clones
  /// a fully-aligned sibling's index when a map joins its cohort after
  /// updates: copying the cuts along with the layout is what keeps a later
  /// Select from re-cracking — and thereby re-permuting — the clone.
  CrackerIndex Clone() const {
    CrackerIndex out(column_size_);
    out.pages_.reserve(pages_.size());
    for (const Page& page : pages_) {
      Page copy = NewPage();
      copy.cuts = page.cuts;
      copy.positions = page.positions;
      out.pages_.push_back(std::move(copy));
    }
    out.num_cuts_ = num_cuts_;
    return out;
  }

  void Clear() {
    pages_.clear();
    num_cuts_ = 0;
  }

  /// Invariants: every page holds 1..kPageCapacity cuts with one position
  /// each, cuts strictly ascend within and across pages, positions are
  /// monotone and within the array, and the pages add up to num_cuts().
  /// O(n); tests only.
  bool Validate() const {
    std::size_t count = 0;
    std::size_t prev_pos = 0;
    const Cut<T>* prev = nullptr;
    for (const Page& page : pages_) {
      if (page.cuts.empty() || page.cuts.size() > kPageCapacity ||
          page.positions.size() != page.cuts.size()) {
        return false;
      }
      for (std::size_t i = 0; i < page.cuts.size(); ++i) {
        if (prev != nullptr && !(*prev < page.cuts[i])) return false;
        if (page.positions[i] < prev_pos || page.positions[i] > column_size_) {
          return false;
        }
        prev = &page.cuts[i];
        prev_pos = page.positions[i];
      }
      count += page.cuts.size();
    }
    return count == num_cuts_;
  }

 private:
  struct Page {
    std::vector<Cut<T>> cuts;
    std::vector<std::size_t> positions;
  };

  /// A place in cut order: cut `i` of page `page`, or the end when `page`
  /// is pages_.size() (then `i` is 0).
  struct Slot {
    std::size_t page = 0;
    std::size_t i = 0;
  };

  static Page NewPage() {
    Page page;
    page.cuts.reserve(kPageCapacity);
    page.positions.reserve(kPageCapacity);
    return page;
  }

  /// The first cut for which `pred` is false, given that `pred` holds for
  /// a prefix of the cut order.
  template <typename Pred>
  Slot PartitionPoint(Pred&& pred) const {
    const auto page = std::partition_point(
        pages_.begin(), pages_.end(),
        [&](const Page& p) { return pred(p.cuts.back()); });
    if (page == pages_.end()) return {pages_.size(), 0};
    const auto it = std::partition_point(page->cuts.begin(), page->cuts.end(), pred);
    return {static_cast<std::size_t>(page - pages_.begin()),
            static_cast<std::size_t>(it - page->cuts.begin())};
  }

  /// The first cut not below `cut`.
  Slot LowerBound(const Cut<T>& cut) const {
    return PartitionPoint([&](const Cut<T>& c) { return c < cut; });
  }

  /// The piece between the cut before `s` and the cut at `s`.
  PieceInfo<T> PieceBefore(Slot s) const {
    PieceInfo<T> piece;
    if (s.i > 0 || s.page > 0) {
      const Page& page = s.i > 0 ? pages_[s.page] : pages_[s.page - 1];
      const std::size_t i = s.i > 0 ? s.i - 1 : page.cuts.size() - 1;
      piece.begin = page.positions[i];
      piece.lower = page.cuts[i];
    }
    if (s.page < pages_.size()) {
      piece.end = pages_[s.page].positions[s.i];
      piece.upper = pages_[s.page].cuts[s.i];
    } else {
      piece.end = column_size_;
    }
    if (piece.end < piece.begin) piece.end = piece.begin;  // zero-width tolerance
    return piece;
  }

  /// Shifts every cut at or above `from` by one, calling `move` once per
  /// distinct old position, ascending.
  template <typename MoveFn>
  void ShiftFrom(const std::optional<Cut<T>>& from, bool up, MoveFn& move) {
    if (!from.has_value()) return;
    const Slot s = LowerBound(*from);
    std::size_t last = std::numeric_limits<std::size_t>::max();
    for (std::size_t p = s.page; p < pages_.size(); ++p) {
      std::vector<std::size_t>& positions = pages_[p].positions;
      for (std::size_t i = p == s.page ? s.i : 0; i < positions.size(); ++i) {
        if (positions[i] != last) {
          last = positions[i];
          move(last);
        }
        positions[i] = up ? positions[i] + 1 : positions[i] - 1;
      }
    }
  }

  std::vector<Page> pages_;
  std::size_t num_cuts_ = 0;
  std::size_t column_size_;
};

}  // namespace aidx
