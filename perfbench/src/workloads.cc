// The untraced runs: each workload loads its store through the public API
// several times (setup_s is the median), drives it closed-loop for
// --seconds, then checks every logged answer against an oracle built
// outside the timed window.
#include <algorithm>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>

#include "dist/sharded_database.h"
#include "engine_ops.h"
#include "exec/access_path.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using aidx::AccessPath;
using aidx::Database;
using aidx::ShardedDatabase;
using aidx::StrategyConfig;
using aidx::ThreadPool;

// Set-ups at each end of the measured phase: setup_s is their median, and
// the cold first queries after each load are first_query_ms samples. Taken
// at both ends, they sample more of the host's load than one moment of it.
constexpr int kSetupReps = 4;
// The measured phase runs in one-second segments; per-segment figures are
// combined with a trimmed mean (kTrim of the segments dropped at each end).
constexpr double kTrim = 0.1;

/// What one closed-loop client did: every op with its answer, and latency
/// samples per op class from the measured phase.
struct ClientLog {
  std::vector<Op> ops;
  std::vector<std::uint64_t> answers;
  std::vector<double> read_us, write_us, project_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Answers RunChecked found wrong.
  std::uint64_t mismatches = 0;
  /// Where each segment of the measured phase ended: read samples and
  /// measured ops logged so far.
  struct Mark {
    std::size_t reads = 0;
    std::size_t measured = 0;
  };
  std::vector<Mark> marks;

  void MarkSegmentEnd() {
    marks.push_back({read_us.size(), read_us.size() + write_us.size() + project_us.size()});
  }

  /// Runs one op and logs it with its answer, for the oracle to check after
  /// the run; returns its latency in microseconds.
  template <typename Fn>
  double Run(const Op& op, bool measured, Fn&& exec) {
    double us = 0;
    answers.push_back(Time(op, measured, exec, &us));
    ops.push_back(op);
    return us;
  }

  /// Runs one op and checks its answer against `expected` on the spot,
  /// logging nothing but its latency.
  template <typename Fn>
  double RunChecked(const Op& op, bool measured, Fn&& exec, std::uint64_t expected) {
    double us = 0;
    const std::uint64_t answer = Time(op, measured, exec, &us);
    if (answer != kFailedAnswer && answer != expected) ++mismatches;
    return us;
  }

 private:
  template <typename Fn>
  std::uint64_t Time(const Op& op, bool measured, Fn&& exec, double* us) {
    const std::int64_t t0 = NowNs();
    const std::uint64_t answer = exec(op);
    *us = static_cast<double>(NowNs() - t0) / 1e3;
    ++attempted;
    if (answer == kFailedAnswer) {
      ++failed;  // fails the run; its latency is no sample
      return answer;
    }
    if (!measured) return answer;
    switch (ClassOf(op.kind)) {
      case OpClass::kRead:
        read_us.push_back(*us);
        break;
      case OpClass::kWrite:
        write_us.push_back(*us);
        break;
      case OpClass::kProject:
        project_us.push_back(*us);
        break;
    }
    return answer;
  }
};

/// Runs `clients` threads, client c calling step(c) until its segment's
/// deadline, for `seconds` one-second segments, and marks the end of each
/// segment in logs[0..clients). Returns each segment's duration in seconds.
template <typename Step>
std::vector<double> ClosedLoop(int clients, int seconds, std::vector<ClientLog>& logs,
                               Step&& step) {
  constexpr std::int64_t segment_ns = 1'000'000'000;
  std::vector<double> durations;
  for (int seg = 0; seg < seconds; ++seg) {
    std::latch start(clients + 1);
    std::int64_t deadline = 0;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        start.arrive_and_wait();
        while (NowNs() < deadline) step(c);
      });
    }
    const std::int64_t t0 = NowNs();
    deadline = t0 + segment_ns;
    start.arrive_and_wait();
    for (auto& t : threads) t.join();
    durations.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    for (int c = 0; c < clients; ++c) logs[c].MarkSegmentEnd();
  }
  return durations;
}

/// Checks a log against `oracle`, replaying its writes in order. A failed op
/// fails the run on its own (ReportRun); a failed write leaves the store
/// unchanged (row-atomic DML), so the oracle skips it too.
void Verify(const ClientLog& log, Oracle& oracle, const std::string& who, Report& report) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < log.ops.size(); ++i) {
    if (log.answers[i] == kFailedAnswer) {
      if (log.ops[i].kind == OpKind::kInsert) oracle.SkipInsert();
      continue;
    }
    if (Expected(oracle, log.ops[i]) != log.answers[i] && mismatches++ < 3) {
      report.Fail(who + ": op " + std::to_string(i) + " answered " +
                  std::to_string(log.answers[i]) + ", oracle disagrees");
    }
  }
  if (mismatches > 0) report.Fail(who + ": " + std::to_string(mismatches) + " mismatches");
}

/// Checks the warm-up of a set-up after the measured phase: on the same
/// loaded data, its answers must equal those of the warm-up that opens the
/// verified logs.
void CheckWarmUp(const std::vector<ClientLog>& again, const std::vector<ClientLog>& verified,
                 const std::string& who, Report& report) {
  for (std::size_t c = 0; c < again.size(); ++c) {
    for (std::size_t i = 0; i < again[c].answers.size(); ++i) {
      if (again[c].answers[i] != verified[c].answers[i]) {
        report.Fail(who + " client " + std::to_string(c) + ": warm-up op " + std::to_string(i) +
                    " answered differently after the measured phase");
        return;
      }
    }
  }
}

/// What a workload measured, besides its logs.
struct RunFigures {
  std::vector<double> segments;  // s: measured-phase segments (epochs on cold_crack)
  int clients = 1;
  std::vector<double> setups;  // s
  std::vector<double> firsts;  // ms
  double peak_rss_mb = 0;      // the largest ResidentMb() sample
  /// Samples the RSS at a quiescent point, with no client running.
  void SampleRss() { peak_rss_mb = std::max(peak_rss_mb, ResidentMb()); }

  /// The memory phase, between set-up and the measured phase: client c
  /// calls step(c) `ops_per_client` times, the clients taking turns on this
  /// thread, and the RSS is sampled before and after. The engine's memory
  /// grows with the ops it serves (sideways logs, pending writes), so the RSS
  /// is sampled after a fixed amount of work, never after a fixed time: a
  /// faster engine must not read as a bigger one.
  template <typename Step>
  void MemoryPhase(int clients, int ops_per_client, Step&& step) {
    SampleRss();
    for (int i = 0; i < ops_per_client; ++i) {
      for (int c = 0; c < clients; ++c) step(c);
    }
    SampleRss();
  }
};

/// Picks the cold first queries out of those run on a freshly loaded store:
/// the first Count or Sum to reach each of its range shards (split at the
/// domain's quantiles, as RangeOnK() splits it; one for an unsharded store).
class ColdShards {
 public:
  explicit ColdShards(int shards) : cold_(static_cast<std::size_t>(shards), true) {}
  /// Adds `us` (in ms) to `firsts` if `op` is the first Count or Sum on its shard.
  void Note(const Op& op, double us, std::vector<double>& firsts) {
    if (op.kind != OpKind::kCount && op.kind != OpKind::kSum) return;
    const std::int64_t width = kDomain / static_cast<std::int64_t>(cold_.size());
    const auto shard = static_cast<std::size_t>(op.lo / width);
    if (shard != static_cast<std::size_t>(op.hi / width) || !cold_[shard]) return;
    cold_[shard] = false;
    firsts.push_back(us / 1e3);
  }

 private:
  std::vector<bool> cold_;
};

/// Merges the logs into the end-to-end metrics common to every workload,
/// printing the per-class latencies the gated set leaves out.
void ReportRun(const std::vector<ClientLog>& logs, const RunFigures& fig, Report& report) {
  std::vector<double> reads, writes, projects;
  std::uint64_t attempted = 0, failed = 0, measured = 0;
  for (const ClientLog& log : logs) {
    reads.insert(reads.end(), log.read_us.begin(), log.read_us.end());
    writes.insert(writes.end(), log.write_us.begin(), log.write_us.end());
    projects.insert(projects.end(), log.project_us.begin(), log.project_us.end());
    attempted += log.attempted;
    failed += log.failed;
    measured += log.read_us.size() + log.write_us.size() + log.project_us.size();
  }
  // Throughput and p99 per segment, then a trimmed mean over segments.
  std::vector<double> rates, p99s;
  for (std::size_t s = 0; s < fig.segments.size(); ++s) {
    std::vector<double> seg_reads;
    std::size_t seg_ops = 0;
    for (const ClientLog& log : logs) {
      if (log.marks.empty()) continue;  // the set-up log
      const ClientLog::Mark from = s == 0 ? ClientLog::Mark{} : log.marks[s - 1];
      const ClientLog::Mark to = log.marks[s];
      seg_reads.insert(seg_reads.end(), log.read_us.begin() + static_cast<std::ptrdiff_t>(from.reads),
                       log.read_us.begin() + static_cast<std::ptrdiff_t>(to.reads));
      seg_ops += to.measured - from.measured;
    }
    rates.push_back(static_cast<double>(seg_ops) / fig.segments[s]);
    if (!seg_reads.empty()) p99s.push_back(Percentile(std::move(seg_reads), 0.99));
  }
  double wall_s = 0;
  for (double d : fig.segments) wall_s += d;
  report.AddOps(attempted, failed);
  // No failpoint is armed and deadlines are generous: any non-OK status is
  // the engine's fault.
  if (failed > 0) report.Fail(std::to_string(failed) + " ops returned a non-OK status");
  report.Note("closed loop: " + std::to_string(fig.clients) + " client(s), " +
              std::to_string(measured) + " ops in " + std::to_string(wall_s) + " s, " +
              std::to_string(fig.segments.size()) + " segments");
  report.NoteLatency("read (Count/Sum)", reads, "us");
  // Printed, not gated: co-tenant phases on the measuring host moved it by
  // up to 45% between runs, past any bound a later change could be held to.
  report.Note("read_p99_us " + std::to_string(TrimmedMean(p99s, kTrim)) +
              " us (trimmed mean of per-segment p99s)");
  report.NoteLatency("write (Insert/Delete)", writes, "us");
  report.NoteLatency("project (SelectProject)", projects, "us");
  report.Note("failed_frac " + std::to_string(Ratio(static_cast<double>(failed),
                                                     static_cast<double>(attempted))) +
              " (" + std::to_string(failed) + " of " + std::to_string(attempted) + ")");
  report.Note("setup samples " + std::to_string(fig.setups.size()) +
              ", first-query samples " + std::to_string(fig.firsts.size()));
  report.Metric("setup_s", Median(fig.setups), "s");
  report.Metric("ops_per_s", TrimmedMean(rates, kTrim), "1/s");
  report.Metric("read_p50_us", Percentile(reads, 0.5), "us");
  report.Metric("first_query_ms", Median(fig.firsts), "ms");
  report.Metric("peak_rss_mb", fig.peak_rss_mb, "MB");
}

template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const std::int64_t t0 = NowNs();
  fn();
  return static_cast<double>(NowNs() - t0) / 1e9;
}

// ---------------------------------------------------------------------------
// cold_crack: one column behind Database, cracked from scratch in every
// epoch. The kernel and the cracker index do nearly all the work.
// ---------------------------------------------------------------------------

void ColdCrack(const RunArgs& args, Report& report) {
  // 2^22 rows, not 2^24: a 2^24-row column plus its cracked copy (256 MB)
  // is the size of the host's shared L3 (300 MB), and how much of it other
  // tenants held swung whole runs by +-20%.
  constexpr std::size_t kRows = std::size_t{1} << 22;
  constexpr std::int64_t kWidth = kDomain / 100;  // 1% selectivity
  constexpr int kEpochQueries = 5000;
  std::vector<std::int64_t> data = UniformColumn(kRows, SubSeed(args.seed, 1));

  RunFigures fig;
  std::unique_ptr<Database> db;
  for (int rep = 0; rep < 2 * kSetupReps; ++rep) {
    db.reset();
    ReleaseFreedMemory();
    fig.setups.push_back(TimeSeconds([&] {
      db = std::make_unique<Database>(aidx::DatabaseOptions{});
      Check(db->CreateTable(kTable), "create table");
      Check(db->AddColumn(kTable, "k", std::vector<std::int64_t>(data)), "load");
    }));
  }

  // The oracle (a sorted copy with prefix sums) answers each epoch's queries
  // before the epoch starts, and every answer is checked as it arrives.
  Oracle oracle(std::move(data), {}, kRows, false);
  std::vector<Op> queries(kEpochQueries);
  std::vector<std::uint64_t> expected(kEpochQueries);

  // Whole epochs only, so ops_per_s never depends on where the clock cut an
  // epoch: the first queries of an epoch cost far more than the last.
  std::vector<ClientLog> logs(1);
  const auto exec = [&](const Op& op) { return ExecDb(*db, op, 1, {}, false); };
  const std::int64_t deadline = NowNs() + std::int64_t{args.seconds} * 1'000'000'000;
  for (std::uint64_t epoch = 0; NowNs() < deadline; ++epoch) {
    Rng rng(SubSeed(args.seed, 2, epoch));
    for (int q = 0; q < kEpochQueries; ++q) {
      const Range r = RandomRange(rng, kWidth);
      queries[q] = {q % 2 == 0 ? OpKind::kCount : OpKind::kSum, r.lo, r.hi};
      expected[q] = Expected(oracle, queries[q]);
    }
    if (epoch <= 1) fig.SampleRss();  // after set-up, and after one epoch's work
    std::int64_t t0 = NowNs();
    db->ResetAdaptiveState();
    std::int64_t epoch_ns = NowNs() - t0;
    ReleaseFreedMemory();
    t0 = NowNs();
    for (int q = 0; q < kEpochQueries; ++q) {
      const double us = logs[0].RunChecked(queries[q], true, exec, expected[q]);
      if (q == 0) fig.firsts.push_back(us / 1e3);
    }
    epoch_ns += NowNs() - t0;
    fig.segments.push_back(static_cast<double>(epoch_ns) / 1e9);
    logs[0].MarkSegmentEnd();
  }
  db.reset();
  if (logs[0].mismatches > 0) {
    report.Fail("cold_crack: " + std::to_string(logs[0].mismatches) + " mismatches");
  }
  ReportRun(logs, fig, report);
}

// ---------------------------------------------------------------------------
// converged_serving: a hot set cracked during setup and replayed through a
// 4-shard range-routed ShardedDatabase. No new cracks: the time is the path
// cache, gauge sync, locks, scatter and pool dispatch.
// ---------------------------------------------------------------------------

void ConvergedServing(const RunArgs& args, Report& report) {
  constexpr std::size_t kRows = kShardedRows;
  constexpr std::int64_t kWidth = kDomain / 1000;  // 0.1% selectivity
  constexpr int kClients = 3;
  const std::vector<std::int64_t> k = UniformColumn(kRows, SubSeed(args.seed, 1));
  const std::vector<std::int64_t> a = UniformColumn(kRows, SubSeed(args.seed, 3));
  std::vector<std::int64_t> rows = RowMajor({&k, &a});
  const std::vector<std::string> tails = {"a"};
  const HotSet hot = MakeHotSet(args.seed, kWidth);

  // Every op is a hot-set op, so the oracle answers them all up front (and is
  // gone before the store is built); clients check each answer as it comes.
  std::vector<std::uint64_t> k_count, k_sum, a_count, projected;
  {
    std::vector<std::uint64_t> hashes(kRows);
    for (std::size_t i = 0; i < kRows; ++i) hashes[i] = RowHash(a[i], 0);
    Oracle by_k(k, std::move(hashes), kRows, false);
    Oracle by_a(a, {}, kRows, false);
    for (const Op& op : hot.k) {
      k_count.push_back(by_k.Count(op.lo, op.hi));
      k_sum.push_back(by_k.Sum(op.lo, op.hi));
    }
    for (const Op& op : hot.a) a_count.push_back(by_a.Count(op.lo, op.hi));
    for (const Op& op : hot.p) projected.push_back(by_k.Project(op.lo, op.hi));
  }
  const auto expected = [&](const Op& op, std::size_t i) {
    switch (op.kind) {
      case OpKind::kSum:
        return k_sum[i];
      case OpKind::kCountA:
        return a_count[i];
      case OpKind::kProject:
        return projected[i];
      default:
        return k_count[i];
    }
  };

  RunFigures fig;
  fig.clients = kClients;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<ShardedDatabase> db;
  std::vector<ClientLog> logs(kClients + 1);  // the last one runs the set-ups
  ClientLog& setup_log = logs[kClients];
  const auto set_up = [&] {
    db.reset();
    pool.reset();
    ReleaseFreedMemory();
    fig.setups.push_back(TimeSeconds([&] {
      pool = std::make_unique<ThreadPool>(1);
      db = LoadSharded({"k", "a"}, rows, pool.get());
      const auto exec = [&](const Op& op) { return ExecDb(*db, op, 2, tails, true); };
      ColdShards cold(kShards);
      for (const std::vector<Op>* set : {&hot.k, &hot.a, &hot.p}) {
        for (std::size_t i = 0; i < set->size(); ++i) {
          const double us = setup_log.RunChecked((*set)[i], false, exec, expected((*set)[i], i));
          cold.Note((*set)[i], us, fig.firsts);
        }
      }
    }));
  };
  for (int rep = 0; rep < kSetupReps; ++rep) set_up();
  rows = {};
  ReleaseFreedMemory();

  std::vector<Rng> rngs;
  for (int c = 0; c < kClients; ++c) rngs.emplace_back(SubSeed(args.seed, 10, c));
  const auto exec = [&](const Op& op) { return ExecDb(*db, op, 2, tails, true); };
  const auto step = [&](int c, bool measured) {
    ClientLog& log = logs[c];
    std::size_t i = 0;
    const Op op = hot.Replay(rngs[c], log.attempted, true, &i);
    log.RunChecked(op, measured, exec, expected(op, i));
  };
  fig.MemoryPhase(kClients, 1 << 16, [&](int c) { step(c, false); });
  fig.segments = ClosedLoop(kClients, args.seconds, logs, [&](int c) { step(c, true); });
  rows = RowMajor({&k, &a});
  for (int rep = 0; rep < kSetupReps; ++rep) set_up();
  db.reset();
  pool.reset();

  for (std::size_t c = 0; c < logs.size(); ++c) {
    if (logs[c].mismatches > 0) {
      report.Fail("converged_serving client " + std::to_string(c) + ": " +
                  std::to_string(logs[c].mismatches) + " mismatches");
    }
  }
  ReportRun(logs, fig, report);
}

// ---------------------------------------------------------------------------
// mixed_dml: reads, projections and row DML side by side on a 4-shard
// range-routed store; 2 clients, each inside its own key namespace.
// ---------------------------------------------------------------------------

/// The loaded rows (by index) whose key lies in each client's namespace.
std::vector<std::vector<std::size_t>> RowsByOwner(const std::vector<std::int64_t>& keys,
                                                  int clients) {
  std::vector<std::vector<std::size_t>> out(static_cast<std::size_t>(clients));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    out[static_cast<std::size_t>(OwnerOf(keys[i], clients))].push_back(i);
  }
  return out;
}

/// Oracle for one client: its namespace's loaded rows, then the rows its
/// log inserted, in log order.
Oracle ClientOracle(const std::vector<std::size_t>& owned, const ClientLog& log,
                    const std::vector<std::int64_t>& k, const std::vector<std::int64_t>* a,
                    const std::vector<std::int64_t>* b) {
  std::vector<std::int64_t> keys;
  std::vector<std::uint64_t> hashes;
  for (std::size_t i : owned) {
    keys.push_back(k[i]);
    if (a != nullptr) hashes.push_back(RowHash((*a)[i], (*b)[i]));
  }
  for (const Op& op : log.ops) {
    if (op.kind != OpKind::kInsert) continue;
    keys.push_back(op.lo);
    if (a != nullptr) hashes.push_back(RowHash(op.a, op.b));
  }
  return Oracle(std::move(keys), std::move(hashes), owned.size(), true);
}

std::vector<std::vector<Op>> WarmupReads(std::uint64_t seed, int clients, std::int64_t width,
                                         DmlMix mix, int reads) {
  std::vector<std::vector<Op>> out;
  for (int c = 0; c < clients; ++c) {
    DmlStream stream(SubSeed(seed, 6, static_cast<std::uint64_t>(c)), c, clients, width, mix,
                     {});
    auto& ops = out.emplace_back();
    for (int i = 0; i < reads; ++i) ops.push_back(stream.NextRead());
  }
  return out;
}

/// Runs each client's warm-up reads on a freshly loaded store with `shards`
/// range shards, logging them and timing its cold first queries into `firsts`.
template <typename Exec>
void WarmUp(const std::vector<std::vector<Op>>& warmup, std::vector<ClientLog>& logs,
            Exec&& exec, int shards, std::vector<double>& firsts) {
  ColdShards cold(shards);
  for (std::size_t c = 0; c < warmup.size(); ++c) {
    for (const Op& op : warmup[c]) cold.Note(op, logs[c].Run(op, false, exec), firsts);
  }
}

std::vector<DmlStream> ClientStreams(std::uint64_t seed, int clients, std::int64_t width,
                                     DmlMix mix,
                                     const std::vector<std::vector<std::size_t>>& owned,
                                     const std::vector<std::int64_t>& k) {
  std::vector<DmlStream> out;
  for (int c = 0; c < clients; ++c) {
    std::vector<std::int64_t> live;
    for (std::size_t i : owned[static_cast<std::size_t>(c)]) live.push_back(k[i]);
    out.emplace_back(SubSeed(seed, 10, static_cast<std::uint64_t>(c)), c, clients, width, mix,
                     std::move(live));
  }
  return out;
}

void MixedDml(const RunArgs& args, Report& report) {
  constexpr std::size_t kRows = kShardedRows;
  constexpr std::int64_t kWidth = kDomain / 1000;
  constexpr int kClients = 2;
  constexpr int kMemoryOps = 1 << 11;  // per client, ~1.5 s
  constexpr DmlMix kMix{.insert_pct = 10, .delete_pct = 10, .project_every = 16,
                        .odd_inserts = true};
  const std::vector<std::int64_t> k = UniqueKeys(kRows, SubSeed(args.seed, 1));
  const std::vector<std::int64_t> a = UniformColumn(kRows, SubSeed(args.seed, 3));
  const std::vector<std::int64_t> b = UniformColumn(kRows, SubSeed(args.seed, 5));
  std::vector<std::int64_t> rows = RowMajor({&k, &a, &b});
  const std::vector<std::string> tails = {"a", "b"};
  const auto owned = RowsByOwner(k, kClients);
  const auto warmup = WarmupReads(args.seed, kClients, kWidth, kMix, 128);

  RunFigures fig;
  fig.clients = kClients;
  std::unique_ptr<ShardedDatabase> db;
  const auto exec = [&](const Op& op) { return ExecDb(*db, op, 3, tails, false); };
  std::vector<ClientLog> logs;
  const auto set_up = [&] {
    db.reset();
    logs.assign(kClients, ClientLog{});
    ReleaseFreedMemory();
    fig.setups.push_back(TimeSeconds([&] {
      db = LoadSharded({"k", "a", "b"}, rows, nullptr);
      WarmUp(warmup, logs, exec, kShards, fig.firsts);
    }));
  };
  for (int rep = 0; rep < kSetupReps; ++rep) set_up();
  rows = {};
  ReleaseFreedMemory();

  std::vector<DmlStream> streams = ClientStreams(args.seed, kClients, kWidth, kMix, owned, k);
  const auto step = [&](int c, bool measured) {
    logs[c].Run(streams[static_cast<std::size_t>(c)].Next(), measured, exec);
  };
  fig.MemoryPhase(kClients, kMemoryOps, [&](int c) { step(c, false); });
  fig.segments = ClosedLoop(kClients, args.seconds, logs, [&](int c) { step(c, true); });
  db.reset();

  for (int c = 0; c < kClients; ++c) {
    Oracle oracle = ClientOracle(owned[static_cast<std::size_t>(c)], logs[c], k, &a, &b);
    Verify(logs[c], oracle, "mixed_dml client " + std::to_string(c), report);
  }
  std::vector<ClientLog> measured = std::move(logs);
  rows = RowMajor({&k, &a, &b});
  for (int rep = 0; rep < kSetupReps; ++rep) {
    set_up();
    CheckWarmUp(logs, measured, "mixed_dml", report);
  }
  db.reset();
  ReportRun(measured, fig, report);
}

// ---------------------------------------------------------------------------
// parallel_mixed: one kParallelCrack AccessPath shared by 4 clients, 80%
// reads, 10% inserts, 10% deletes. The only workload on PartitionedCrackerColumn.
// ---------------------------------------------------------------------------

void ParallelMixed(const RunArgs& args, Report& report) {
  constexpr std::size_t kRows = std::size_t{1} << 22;
  constexpr std::int64_t kWidth = kDomain / 1000;
  constexpr int kClients = 4;
  constexpr int kMemoryOps = 1 << 11;  // per client, ~1.5 s
  constexpr DmlMix kMix{.insert_pct = 10, .delete_pct = 10};
  const std::vector<std::int64_t> data = UniformColumn(kRows, SubSeed(args.seed, 1));
  const auto owned = RowsByOwner(data, kClients);
  const auto warmup = WarmupReads(args.seed, kClients, kWidth, kMix, 128);
  StrategyConfig config = StrategyConfig::ParallelCrack();
  config.num_threads = 1;

  RunFigures fig;
  fig.clients = kClients;
  std::unique_ptr<AccessPath<std::int64_t>> path;
  const auto exec = [&](const Op& op) { return ExecColumn(*path, op); };
  std::vector<ClientLog> logs;
  const auto set_up = [&] {
    path.reset();
    logs.assign(kClients, ClientLog{});
    ReleaseFreedMemory();
    fig.setups.push_back(TimeSeconds([&] {
      path = aidx::MakeAccessPath<std::int64_t>(data, config);
      WarmUp(warmup, logs, exec, 1, fig.firsts);
    }));
  };
  for (int rep = 0; rep < kSetupReps; ++rep) set_up();

  std::vector<DmlStream> streams = ClientStreams(args.seed, kClients, kWidth, kMix, owned, data);
  const auto step = [&](int c, bool measured) {
    logs[c].Run(streams[static_cast<std::size_t>(c)].Next(), measured, exec);
  };
  fig.MemoryPhase(kClients, kMemoryOps, [&](int c) { step(c, false); });
  fig.segments = ClosedLoop(kClients, args.seconds, logs, [&](int c) { step(c, true); });
  path.reset();

  for (int c = 0; c < kClients; ++c) {
    Oracle oracle = ClientOracle(owned[static_cast<std::size_t>(c)], logs[c], data, nullptr,
                                 nullptr);
    Verify(logs[c], oracle, "parallel_mixed client " + std::to_string(c), report);
  }
  std::vector<ClientLog> measured = std::move(logs);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    set_up();
    CheckWarmUp(logs, measured, "parallel_mixed", report);
  }
  path.reset();
  ReportRun(measured, fig, report);
}

}  // namespace

void RunWorkload(const RunArgs& args, Report& report) {
  if (args.workload == "cold_crack") return ColdCrack(args, report);
  if (args.workload == "converged_serving") return ConvergedServing(args, report);
  if (args.workload == "mixed_dml") return MixedDml(args, report);
  if (args.workload == "parallel_mixed") return ParallelMixed(args, report);
  throw std::invalid_argument("unknown workload '" + args.workload + "'");
}

}  // namespace perfbench
