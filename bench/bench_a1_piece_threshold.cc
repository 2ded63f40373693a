// A1 — Ablation: the stop-cracking piece-size threshold.
//
// Cracking pieces forever yields millions of tiny pieces and an ever-bigger
// cracker index; stopping at a threshold trades a small scan of edge pieces
// for far fewer cuts. Sweeps min_piece_size and reports totals, steady
// state, and index size.
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "core/cracker_column.h"
#include "util/timer.h"
#include "workload/data_generator.h"
#include "workload/query_generator.h"
#include "workload/report.h"

using namespace aidx;

int main() {
  bench::PrintHeader("A1 ablation: minimum piece size",
                     "design-choice knob from DESIGN.md §4 (cracking maintenance)");
  const std::size_t n = bench::ColumnSize();
  const std::size_t q = bench::NumQueries();
  const auto domain = static_cast<std::int64_t>(n);
  const auto data = GenerateData({.n = n, .domain = domain, .seed = 7});
  const auto queries = GenerateQueries({.num_queries = q,
                                        .domain = domain,
                                        .selectivity = 0.001,
                                        .seed = 13});

  std::cout << "N=" << n << ", Q=" << q << " random, selectivity 0.1%\n\n";
  TablePrinter table({"min piece", "first query", "steady state", "total", "pieces",
                      "index pages"});
  std::uint64_t checksum = 0;
  for (const std::size_t threshold : {std::size_t{0}, std::size_t{64},
                                      std::size_t{1024}, std::size_t{65536}}) {
    std::unique_ptr<CrackerColumn<std::int64_t>> col;
    std::vector<double> seconds;
    std::uint64_t sum = 0;
    for (const auto& pred : queries) {
      WallTimer t;
      if (col == nullptr) {
        col = std::make_unique<CrackerColumn<std::int64_t>>(
            data, CrackerColumnOptions{.with_row_ids = false,
                                       .min_piece_size = threshold});
      }
      sum += col->Count(pred);
      seconds.push_back(t.ElapsedSeconds());
    }
    if (checksum == 0) {
      checksum = sum;
    } else if (sum != checksum) {
      std::cerr << "CHECKSUM MISMATCH at threshold " << threshold << "\n";
      return 1;
    }
    double total = 0;
    for (const double s : seconds) total += s;
    double tail = 0;
    const std::size_t w = std::min<std::size_t>(100, seconds.size());
    for (std::size_t i = seconds.size() - w; i < seconds.size(); ++i) tail += seconds[i];
    table.AddRow({threshold == 0 ? "always crack" : std::to_string(threshold),
                  FormatSeconds(seconds.front()), FormatSeconds(tail / w),
                  FormatSeconds(total), std::to_string(col->index().num_pieces()),
                  std::to_string(col->index().num_pages())});
  }
  table.Print(std::cout);
  return 0;
}
