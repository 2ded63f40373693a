#include "core/cracker_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <vector>

#include "util/rng.h"

namespace aidx {
namespace {

using I64Cut = Cut<std::int64_t>;
using Index = CrackerIndex<std::int64_t>;

TEST(CrackerIndexTest, FreshIndexIsOnePiece) {
  Index idx(100);
  EXPECT_EQ(idx.num_cuts(), 0u);
  EXPECT_EQ(idx.num_pieces(), 1u);
  const auto look = idx.Lookup({50, CutKind::kLess});
  EXPECT_FALSE(look.exact);
  EXPECT_EQ(look.piece.begin, 0u);
  EXPECT_EQ(look.piece.end, 100u);
  EXPECT_FALSE(look.piece.lower.has_value());
  EXPECT_FALSE(look.piece.upper.has_value());
}

TEST(CrackerIndexTest, AddCutThenExactLookup) {
  Index idx(100);
  idx.AddCut({50, CutKind::kLess}, 42);
  const auto look = idx.Lookup({50, CutKind::kLess});
  EXPECT_TRUE(look.exact);
  EXPECT_EQ(look.position, 42u);
  EXPECT_EQ(idx.num_pieces(), 2u);
}

TEST(CrackerIndexTest, LookupIdentifiesEnclosingPiece) {
  Index idx(100);
  idx.AddCut({30, CutKind::kLess}, 25);
  idx.AddCut({70, CutKind::kLess}, 80);
  const auto mid = idx.Lookup({50, CutKind::kLess});
  EXPECT_FALSE(mid.exact);
  EXPECT_EQ(mid.piece.begin, 25u);
  EXPECT_EQ(mid.piece.end, 80u);
  ASSERT_TRUE(mid.piece.lower.has_value());
  EXPECT_EQ(*mid.piece.lower, (I64Cut{30, CutKind::kLess}));
  ASSERT_TRUE(mid.piece.upper.has_value());
  EXPECT_EQ(*mid.piece.upper, (I64Cut{70, CutKind::kLess}));

  const auto left = idx.Lookup({10, CutKind::kLess});
  EXPECT_EQ(left.piece.begin, 0u);
  EXPECT_EQ(left.piece.end, 25u);

  const auto right = idx.Lookup({90, CutKind::kLessEq});
  EXPECT_EQ(right.piece.begin, 80u);
  EXPECT_EQ(right.piece.end, 100u);
}

TEST(CrackerIndexTest, LessAndLessEqCutsCoexist) {
  Index idx(100);
  idx.AddCut({50, CutKind::kLess}, 40);
  idx.AddCut({50, CutKind::kLessEq}, 45);  // 5 values equal to 50
  EXPECT_TRUE(idx.Lookup({50, CutKind::kLess}).exact);
  EXPECT_TRUE(idx.Lookup({50, CutKind::kLessEq}).exact);
  EXPECT_EQ(idx.Lookup({50, CutKind::kLess}).position, 40u);
  EXPECT_EQ(idx.Lookup({50, CutKind::kLessEq}).position, 45u);
  EXPECT_TRUE(idx.Validate());
}

TEST(CrackerIndexTest, PieceForValueRespectsCutKinds) {
  Index idx(100);
  idx.AddCut({50, CutKind::kLess}, 40);    // [0,40) < 50, [40,..) >= 50
  idx.AddCut({50, CutKind::kLessEq}, 45);  // [0,45) <= 50, [45,..) > 50
  // Value 49 must land before position 40.
  auto piece = idx.PieceForValue(49);
  EXPECT_EQ(piece.end, 40u);
  // Value 50 must land in [40, 45).
  piece = idx.PieceForValue(50);
  EXPECT_EQ(piece.begin, 40u);
  EXPECT_EQ(piece.end, 45u);
  // Value 51 lands after 45.
  piece = idx.PieceForValue(51);
  EXPECT_EQ(piece.begin, 45u);
  EXPECT_EQ(piece.end, 100u);
}

TEST(CrackerIndexTest, VisitPiecesCoversWholeArray) {
  Index idx(100);
  idx.AddCut({30, CutKind::kLess}, 25);
  idx.AddCut({70, CutKind::kLessEq}, 80);
  std::vector<PieceInfo<std::int64_t>> pieces;
  idx.VisitPieces([&](const PieceInfo<std::int64_t>& p) { pieces.push_back(p); });
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0].begin, 0u);
  EXPECT_EQ(pieces[0].end, 25u);
  EXPECT_FALSE(pieces[0].lower.has_value());
  EXPECT_EQ(pieces[1].begin, 25u);
  EXPECT_EQ(pieces[1].end, 80u);
  EXPECT_EQ(pieces[2].begin, 80u);
  EXPECT_EQ(pieces[2].end, 100u);
  EXPECT_FALSE(pieces[2].upper.has_value());
}

TEST(CrackerIndexTest, RippleShiftsMoveDownstreamPositions) {
  Index idx(100);
  idx.AddCut({10, CutKind::kLess}, 10);
  idx.AddCut({20, CutKind::kLess}, 20);
  idx.AddCut({20, CutKind::kLessEq}, 20);  // no values equal 20
  idx.AddCut({30, CutKind::kLess}, 30);
  // Ripple insert below (20, kLess): every cut at/after it moves +1 and
  // the move runs once per distinct old boundary, ascending.
  std::vector<std::size_t> moved;
  idx.ShiftForInsert(I64Cut{20, CutKind::kLess},
                     [&](std::size_t p) { moved.push_back(p); });
  EXPECT_EQ(moved, (std::vector<std::size_t>{20, 30}));
  EXPECT_EQ(idx.column_size(), 101u);
  EXPECT_EQ(idx.Lookup({10, CutKind::kLess}).position, 10u);
  EXPECT_EQ(idx.Lookup({20, CutKind::kLess}).position, 21u);
  EXPECT_EQ(idx.Lookup({20, CutKind::kLessEq}).position, 21u);
  EXPECT_EQ(idx.Lookup({30, CutKind::kLess}).position, 31u);

  moved.clear();
  idx.ShiftForDelete(I64Cut{30, CutKind::kLess},
                     [&](std::size_t p) { moved.push_back(p); });
  EXPECT_EQ(moved, (std::vector<std::size_t>{31}));
  EXPECT_EQ(idx.column_size(), 100u);
  EXPECT_EQ(idx.Lookup({20, CutKind::kLessEq}).position, 21u);
  EXPECT_EQ(idx.Lookup({30, CutKind::kLess}).position, 30u);

  // No upper cut (the target piece is the last): only the size changes.
  moved.clear();
  idx.ShiftForInsert(std::nullopt, [&](std::size_t p) { moved.push_back(p); });
  EXPECT_TRUE(moved.empty());
  EXPECT_EQ(idx.column_size(), 101u);
  EXPECT_TRUE(idx.Validate());
}

TEST(CrackerIndexTest, EraseCutMergesPieces) {
  Index idx(100);
  idx.AddCut({30, CutKind::kLess}, 25);
  idx.AddCut({70, CutKind::kLess}, 80);
  EXPECT_TRUE(idx.EraseCut({30, CutKind::kLess}));
  EXPECT_FALSE(idx.EraseCut({30, CutKind::kLess}));
  EXPECT_EQ(idx.num_pieces(), 2u);
  const auto look = idx.Lookup({50, CutKind::kLess});
  EXPECT_EQ(look.piece.begin, 0u);
  EXPECT_EQ(look.piece.end, 80u);
}

TEST(CrackerIndexTest, ValidateCatchesNonMonotonePositions) {
  Index idx(100);
  idx.AddCut({30, CutKind::kLess}, 60);
  idx.AddCut({70, CutKind::kLess}, 40);  // position regressed: invalid
  EXPECT_FALSE(idx.Validate());
}

TEST(CrackerIndexTest, ColumnSizeGrowth) {
  Index idx(100);
  idx.AddCut({50, CutKind::kLess}, 40);
  idx.set_column_size(110);
  const auto look = idx.Lookup({90, CutKind::kLess});
  EXPECT_EQ(look.piece.end, 110u);
}

TEST(CrackerIndexTest, ZeroWidthPieces) {
  Index idx(10);
  idx.AddCut({5, CutKind::kLess}, 4);
  idx.AddCut({5, CutKind::kLessEq}, 4);  // no values equal 5
  const auto look = idx.Lookup({5, CutKind::kLessEq});
  EXPECT_TRUE(look.exact);
  EXPECT_EQ(look.position, 4u);
  EXPECT_TRUE(idx.Validate());
}

TEST(CrackerIndexTest, EmptyColumn) {
  Index idx(0);
  const auto look = idx.Lookup({5, CutKind::kLess});
  EXPECT_FALSE(look.exact);
  EXPECT_EQ(look.piece.begin, 0u);
  EXPECT_EQ(look.piece.end, 0u);
}

TEST(CrackerIndexTest, ValidateSpansPages) {
  Index ordered(100);
  for (std::int64_t v = 0; v < 300; ++v) {
    ordered.AddCut({v, CutKind::kLess}, static_cast<std::size_t>(v) / 3);
  }
  EXPECT_GT(ordered.num_pages(), 2u);
  EXPECT_TRUE(ordered.Validate());
  ordered.set_column_size(50);  // positions past the array end
  EXPECT_FALSE(ordered.Validate());
}

// A std::map keyed by cut, with the same piece rules spelled out the slow
// way: the reference every paged-index answer is checked against.
class IndexOracle {
 public:
  explicit IndexOracle(std::size_t column_size) : column_size_(column_size) {}

  std::map<I64Cut, std::size_t>& cuts() { return cuts_; }
  std::size_t& column_size() { return column_size_; }

  // The piece between the last cut failing `above(cut, pos)` and the first
  // passing it.
  template <typename Above>
  PieceInfo<std::int64_t> PieceWhere(Above&& above) const {
    PieceInfo<std::int64_t> piece;
    piece.end = column_size_;
    for (const auto& [cut, pos] : cuts_) {
      if (above(cut, pos)) {
        piece.end = pos;
        piece.upper = cut;
        break;
      }
      piece.begin = pos;
      piece.lower = cut;
    }
    if (piece.end < piece.begin) piece.end = piece.begin;
    return piece;
  }

  PieceInfo<std::int64_t> PieceAround(const I64Cut& cut) const {
    return PieceWhere([&](const I64Cut& c, std::size_t) { return cut < c; });
  }
  PieceInfo<std::int64_t> PieceForValue(std::int64_t v) const {
    return PieceWhere([&](const I64Cut& c, std::size_t) { return c.Below(v); });
  }

  // Shifts every cut at or above `from`; returns the distinct old positions.
  std::vector<std::size_t> Shift(const std::optional<I64Cut>& from, bool up) {
    std::vector<std::size_t> moved;
    column_size_ = up ? column_size_ + 1 : column_size_ - 1;
    if (!from.has_value()) return moved;
    for (auto it = cuts_.lower_bound(*from); it != cuts_.end(); ++it) {
      if (moved.empty() || moved.back() != it->second) moved.push_back(it->second);
      it->second = up ? it->second + 1 : it->second - 1;
    }
    return moved;
  }

 private:
  std::map<I64Cut, std::size_t> cuts_;
  std::size_t column_size_;
};

void ExpectSamePiece(const PieceInfo<std::int64_t>& got,
                     const PieceInfo<std::int64_t>& want, const char* what) {
  EXPECT_EQ(got.begin, want.begin) << what;
  EXPECT_EQ(got.end, want.end) << what;
  EXPECT_EQ(got.lower, want.lower) << what;
  EXPECT_EQ(got.upper, want.upper) << what;
}

void ExpectSameCuts(const Index& idx, IndexOracle& oracle) {
  std::vector<std::pair<I64Cut, std::size_t>> got;
  idx.VisitCuts([&](const I64Cut& cut, std::size_t pos) { got.emplace_back(cut, pos); });
  const std::vector<std::pair<I64Cut, std::size_t>> want(oracle.cuts().begin(),
                                                         oracle.cuts().end());
  ASSERT_EQ(got, want);
  ASSERT_EQ(idx.num_cuts(), want.size());
  ASSERT_EQ(idx.column_size(), oracle.column_size());
  ASSERT_TRUE(idx.Validate());
}

// Seeded differential against the std::map oracle over every mutating and
// probing call. Alternating grow and shrink phases push the index through
// many page splits (past 20 pages) and back down to a few, dropping every
// page they empty.
TEST(CrackerIndexTest, DifferentialAgainstStdMap) {
  constexpr std::int64_t kDomain = 20000;
  Index idx(1000000);
  IndexOracle oracle(1000000);
  Rng rng(2026);
  const auto random_cut = [&] {
    return I64Cut{static_cast<std::int64_t>(rng.NextBounded(kDomain)),
                  rng.NextBounded(2) == 0 ? CutKind::kLess : CutKind::kLessEq};
  };
  // A realized cut, or nullopt when the index is empty.
  const auto existing_cut = [&]() -> std::optional<I64Cut> {
    if (oracle.cuts().empty()) return std::nullopt;
    auto it = oracle.cuts().begin();
    std::advance(it, static_cast<long>(rng.NextBounded(oracle.cuts().size())));
    return it->first;
  };
  std::size_t max_pages = 0;
  std::size_t pages_dropped = 0;
  for (int phase = 0; phase < 4; ++phase) {
    const bool grow = phase % 2 == 0;
    const std::size_t target = grow ? 2500 : 100;
    for (int step = 0; step < 20000; ++step) {
      if (grow ? oracle.cuts().size() >= target : oracle.cuts().size() <= target) {
        break;
      }
      const std::uint64_t dice = rng.NextBounded(100);
      if (dice < (grow ? 45u : 15u)) {  // AddCut inside the enclosing piece
        const I64Cut cut = random_cut();
        const CutLookup<std::int64_t> look = idx.Lookup(cut);
        const auto it = oracle.cuts().find(cut);
        ASSERT_EQ(look.exact, it != oracle.cuts().end()) << cut.ToString();
        if (look.exact) {
          ASSERT_EQ(look.position, it->second);
          continue;
        }
        ExpectSamePiece(look.piece, oracle.PieceAround(cut), "Lookup");
        const std::size_t pos =
            look.piece.begin + rng.NextBounded(look.piece.end - look.piece.begin + 1);
        idx.AddCut(cut, pos);
        oracle.cuts()[cut] = pos;
      } else if (dice < (grow ? 55u : 75u)) {  // EraseCut, realized or not
        std::optional<I64Cut> cut =
            rng.NextBounded(4) != 0 ? existing_cut() : std::optional(random_cut());
        if (!cut.has_value()) continue;
        // Shrink phases erase runs of neighbours, which empties pages.
        const I64Cut first = *cut;
        const int run = grow ? 1 : 8;
        for (int k = 0; k < run && cut.has_value(); ++k) {
          const std::size_t pages = idx.num_pages();
          const auto next = oracle.cuts().upper_bound(*cut);
          const std::optional<I64Cut> after =
              next == oracle.cuts().end() ? std::nullopt : std::optional(next->first);
          ASSERT_EQ(idx.EraseCut(*cut), oracle.cuts().erase(*cut) == 1)
              << cut->ToString() << " in a run from " << first.ToString();
          if (idx.num_pages() < pages) ++pages_dropped;
          cut = after;
        }
      } else if (dice < 65) {  // PieceAround, realized or not
        const std::optional<I64Cut> cut =
            rng.NextBounded(2) == 0 ? existing_cut() : std::optional(random_cut());
        if (!cut.has_value()) continue;
        ExpectSamePiece(idx.PieceAround(*cut), oracle.PieceAround(*cut), "PieceAround");
      } else if (dice < 75) {
        const auto v = static_cast<std::int64_t>(rng.NextBounded(kDomain));
        ExpectSamePiece(idx.PieceForValue(v), oracle.PieceForValue(v), "PieceForValue");
      } else if (dice < 85) {  // ripple insert from a realized cut or the end
        const std::optional<I64Cut> from =
            rng.NextBounded(8) == 0 ? std::nullopt : existing_cut();
        std::vector<std::size_t> moved;
        idx.ShiftForInsert(from, [&](std::size_t p) { moved.push_back(p); });
        ASSERT_EQ(moved, oracle.Shift(from, /*up=*/true));
      } else if (dice < 95) {
        // Ripple delete: the victim sits in a non-empty piece, so the cuts
        // that shift down are exactly those from that piece's upper cut on.
        const std::size_t victim = rng.NextBounded(oracle.column_size());
        const PieceInfo<std::int64_t> piece = oracle.PieceWhere(
            [&](const I64Cut&, std::size_t pos) { return pos > victim; });
        std::vector<std::size_t> moved;
        idx.ShiftForDelete(piece.upper, [&](std::size_t p) { moved.push_back(p); });
        ASSERT_EQ(moved, oracle.Shift(piece.upper, /*up=*/false));
      } else {  // Clone: equal now, independent afterwards
        Index copy = idx.Clone();
        ExpectSameCuts(copy, oracle);
        const I64Cut cut = random_cut();
        if (!copy.Lookup(cut).exact) {
          copy.AddCut(cut, copy.PieceAround(cut).begin);
          ASSERT_EQ(copy.num_cuts(), idx.num_cuts() + 1);
        }
        ExpectSameCuts(idx, oracle);
      }
      max_pages = std::max(max_pages, idx.num_pages());
      if (step % 256 == 0) ExpectSameCuts(idx, oracle);
    }
    ExpectSameCuts(idx, oracle);
    if (grow) {
      EXPECT_GE(oracle.cuts().size(), target);
    } else {
      EXPECT_LE(oracle.cuts().size(), target);
    }
  }
  EXPECT_GT(max_pages, 20u);
  EXPECT_GT(pages_dropped, 20u);
}

}  // namespace
}  // namespace aidx
