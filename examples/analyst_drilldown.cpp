// Analyst drill-down: the workload the tutorial's introduction motivates.
//
// An analyst explores a sales table she has never indexed: she starts with
// a broad month-level question, drills into a region of interest, and
// finally projects several attributes of the interesting rows. Sideways
// cracking turns her own queries into the index — by the time she reaches
// the detailed questions, the hot key range is fully optimized while cold
// ranges were never touched.
//
// Build & run:   ./build/examples/analyst_drilldown
#include <cstdint>
#include <iostream>
#include <vector>

#include "exec/engine.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/report.h"

using namespace aidx;

namespace {

constexpr std::size_t kRows = 1 << 21;
constexpr std::int64_t kDays = 365;

}  // namespace

int main() {
  Database db;
  AIDX_CHECK_OK(db.CreateTable("sales"));
  Rng rng(7);
  std::vector<std::int64_t> day(kRows);
  std::vector<std::int64_t> amount(kRows);
  std::vector<std::int64_t> store(kRows);
  std::vector<std::int64_t> product(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    day[i] = static_cast<std::int64_t>(rng.NextBounded(kDays));
    amount[i] = 10 + static_cast<std::int64_t>(rng.NextBounded(990));
    store[i] = static_cast<std::int64_t>(rng.NextBounded(50));
    product[i] = static_cast<std::int64_t>(rng.NextBounded(10000));
  }
  AIDX_CHECK_OK(db.AddColumn("sales", "day", std::move(day)));
  AIDX_CHECK_OK(db.AddColumn("sales", "amount", std::move(amount)));
  AIDX_CHECK_OK(db.AddColumn("sales", "store", std::move(store)));
  AIDX_CHECK_OK(db.AddColumn("sales", "product", std::move(product)));
  std::cout << "sales table: " << kRows << " rows x 4 columns, no indexes\n\n";

  using Pred = RangePredicate<std::int64_t>;
  struct Step {
    const char* question;
    Pred pred;
    std::vector<std::string> projection;
  };
  // The drill-down narrows the day range step by step; later steps widen
  // the projection — exactly where sideways cracking's aligned maps help.
  const std::vector<Step> session = {
      {"Q1  revenue dip anywhere in Q3?", Pred::HalfOpen(180, 270), {"amount"}},
      {"Q2  zoom: late August", Pred::HalfOpen(230, 245), {"amount"}},
      {"Q3  zoom: the bad week", Pred::HalfOpen(236, 243), {"amount", "store"}},
      {"Q4  same week, which products?", Pred::HalfOpen(236, 243),
       {"amount", "store", "product"}},
      {"Q5  the day itself", Pred::HalfOpen(239, 240),
       {"amount", "store", "product"}},
  };

  TablePrinter table({"step", "rows", "time", "note"});
  for (std::size_t s = 0; s < session.size(); ++s) {
    WallTimer t;
    auto res = db.SelectProject({.table = "sales",
                                 .column = "day",
                                 .predicate = session[s].pred,
                                 .tails = session[s].projection});
    AIDX_CHECK(res.ok()) << res.status().ToString();
    long double revenue = 0;
    for (const auto v : res->columns[0]) revenue += v;
    const double elapsed = t.ElapsedSeconds();
    std::string note;
    if (s == 0) {
      note = "first touch: maps materialize";
    } else if (session[s].projection.size() > session[s - 1].projection.size()) {
      note = "new map catches up via crack tape";
    } else {
      note = "hot range already cracked";
    }
    table.AddRow({session[s].question, std::to_string(res->num_rows),
                  FormatSeconds(elapsed), note});
    (void)revenue;
  }
  table.Print(std::cout);

  std::cout << "\nRe-running the whole session (everything now adapted):\n";
  TablePrinter again({"step", "time"});
  for (const auto& step : session) {
    WallTimer t;
    auto res = db.SelectProject({.table = "sales",
                                 .column = "day",
                                 .predicate = step.pred,
                                 .tails = step.projection});
    AIDX_CHECK(res.ok());
    again.AddRow({step.question, FormatSeconds(t.ElapsedSeconds())});
  }
  again.Print(std::cout);
  std::cout << "\nNo DBA, no CREATE INDEX — the analyst's curiosity built "
               "exactly the index her session needed.\n";
  return 0;
}
