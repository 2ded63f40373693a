// The traced run: a layer ladder. One op stream is replayed, single-threaded
// and from identical data, through successively taller stacks of the engine;
// every call is a span, and a rung's self time is its time minus the time of
// the rung below it on the same request. Rungs that replay one stream must
// report identical CrackerStats, or they did different work and the run
// fails. Per-layer metrics come from here; end-to-end ones never do.
//
// Three passes per workload:
//   R (reads): the workload's read stream on its full data, through
//      CrackerColumn -> UpdatableCrackerColumn -> AccessPath -> Database ->
//      Database with a context; then N bare Databases routed by the
//      benchmark (ShardRouter::ShardsFor) -> ShardedDatabase.
//   W (writes): a stream of 20% inserts, 20% deletes and 60% reads, every
//      third read a SelectProject, on the first 2^20 rows (the per-shard
//      size of the sharded workloads): UpdatableCrackerColumn -> AccessPath
//      -> Database; Table + SidewaysCracker; routed -> ShardedDatabase; and
//      PartitionedCrackerColumn. Every op class gets >= 1000 samples, so
//      each p99 has >= 10 samples beyond it on every workload.
//   P (parallel): the R reads on a PartitionedCrackerColumn at 1 client
//      and at 4 clients.
// Plus probes of the crack kernels alone and of ThreadPool::ParallelFor.
#include <algorithm>
#include <memory>
#include <optional>
#include <thread>

#include "core/cracker_column.h"
#include "core/crack_ops.h"
#include "engine_ops.h"
#include "exec/access_path.h"
#include "parallel/partitioned_cracker_column.h"
#include "sideways/sideways.h"
#include "storage/table.h"
#include "update/updatable_column.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using aidx::CrackerStats;
using aidx::Database;
using aidx::ShardedDatabase;
using I64 = std::int64_t;

constexpr std::uint64_t kSkipped = ~std::uint64_t{0} - 2;  // rung lacks the op
constexpr std::size_t kWriteRows = std::size_t{1} << 20;

/// What a workload feeds the ladder.
struct LadderInput {
  std::vector<I64> k, a;     // R data: a only when the workload reads it
  std::vector<Op> reads;     // R stream
  std::vector<Op> writes;    // W stream (over the first kWriteRows rows)
  std::vector<I64> wk, wa, wb;
  bool deadline = false;     // requests carry a deadline
  bool scatter_pool = false; // the sharded rung scatters on a 1-worker pool
};

/// One rung's replay: per-op latency (ns) and answer, and its crack work.
struct Rung {
  std::string name;
  std::vector<double> ns;
  std::vector<std::uint64_t> answers;
  CrackerStats stats{};
  double wall_ns = 0;

  /// Latencies of the ops of class `c` this rung ran.
  std::vector<double> Of(const std::vector<Op>& ops, OpClass c) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (answers[i] != kSkipped && ClassOf(ops[i].kind) == c) out.push_back(ns[i]);
    }
    return out;
  }
};

/// Replays `ops`, one span per call under one root span for the rung.
/// `exec` returns kSkipped for an op the rung does not serve.
template <typename Exec>
Rung Replay(Tracer& tracer, const std::string& name, const std::vector<Op>& ops,
            Exec&& exec) {
  Rung rung;
  rung.name = name;
  rung.ns.resize(ops.size(), 0.0);
  rung.answers.resize(ops.size());
  tracer.Reserve(2 * ops.size() + 1);  // room for one child span per call
  const std::uint32_t call = tracer.Intern(name);
  const std::uint32_t root = tracer.Open(tracer.Intern("ladder." + name), Tracer::kNoParent, 0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::uint32_t span = tracer.Open(call, root, i);
    rung.answers[i] = exec(ops[i]);
    tracer.Close(span);
    rung.ns[i] = tracer.DurationNs(span);
  }
  tracer.Close(root);
  rung.wall_ns = tracer.DurationNs(root);
  return rung;
}

CrackerStats& operator+=(CrackerStats& x, const CrackerStats& y) {
  x.num_selects += y.num_selects;
  x.num_crack_in_two += y.num_crack_in_two;
  x.num_crack_in_three += y.num_crack_in_three;
  x.num_stochastic_cracks += y.num_stochastic_cracks;
  x.values_touched += y.values_touched;
  return x;
}

std::string StatsString(const CrackerStats& s) {
  return "selects=" + std::to_string(s.num_selects) + " crack2=" +
         std::to_string(s.num_crack_in_two) + " crack3=" + std::to_string(s.num_crack_in_three) +
         " stochastic=" + std::to_string(s.num_stochastic_cracks) +
         " values_touched=" + std::to_string(s.values_touched);
}

bool SameWork(const CrackerStats& x, const CrackerStats& y) {
  return x.num_selects == y.num_selects && x.num_crack_in_two == y.num_crack_in_two &&
         x.num_crack_in_three == y.num_crack_in_three &&
         x.num_stochastic_cracks == y.num_stochastic_cracks &&
         x.values_touched == y.values_touched;
}

/// The ladder's self-check: every rung of a group did the same crack work,
/// and every answer a rung gave matches the oracle's.
void CheckGroup(const std::vector<const Rung*>& group, Report& report) {
  for (const Rung* r : group) {
    report.Note("rung " + r->name + ": " + StatsString(r->stats));
    if (!SameWork(r->stats, group[0]->stats)) {
      report.Fail("ladder rungs " + group[0]->name + " and " + r->name +
                  " did different crack work; their self times would compare different work");
    }
  }
}

/// Also counts the rung's calls (and failed ones) into the report.
void CheckAnswers(const Rung& rung, const std::vector<std::uint64_t>& expected,
                  Report& report) {
  std::size_t mismatches = 0, attempted = 0, failed = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (rung.answers[i] == kSkipped) continue;
    ++attempted;
    if (rung.answers[i] == kFailedAnswer) ++failed;
    if (rung.answers[i] != expected[i]) ++mismatches;
  }
  report.AddOps(attempted, failed);
  if (mismatches > 0) {
    report.Fail("rung " + rung.name + ": " + std::to_string(mismatches) +
                " answers disagree with the oracle");
  }
}

std::vector<bool> ClassMask(const std::vector<Op>& ops, OpClass c) {
  std::vector<bool> mask(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) mask[i] = ClassOf(ops[i].kind) == c;
  return mask;
}

aidx::CrackerColumnOptions ColumnOptions() {
  // What CrackPath builds for StrategyConfig::Crack(): no row ids, and every
  // other knob at its default, so the rungs crack identically.
  aidx::CrackerColumnOptions options;
  options.with_row_ids = false;
  return options;
}

aidx::PartitionedCrackerOptions PartitionedOptions() {
  // What ParallelCrackPath builds for parallel_mixed's config.
  aidx::PartitionedCrackerOptions options;
  options.num_partitions = aidx::StrategyConfig::ParallelCrack().num_partitions;
  options.column_options.with_row_ids = false;
  options.splitter_seed = aidx::StrategyConfig{}.seed;
  return options;
}

/// Per-column structures for the R pass: `k`, plus `a` for kCountA.
template <typename S>
struct PerColumn {
  std::optional<S> k, a;
  S& For(const Op& op) { return op.kind == OpKind::kCountA ? *a : *k; }
};

/// Database holding table t with the given columns (moved copies).
std::unique_ptr<Database> LoadDatabase(const std::vector<std::string>& names,
                                       const std::vector<const std::vector<I64>*>& cols) {
  auto db = std::make_unique<Database>(aidx::DatabaseOptions{});
  Check(db->CreateTable(kTable), "create table");
  for (std::size_t c = 0; c < names.size(); ++c) {
    Check(db->AddColumn(kTable, names[c], std::vector<I64>(*cols[c])), "load");
  }
  return db;
}

/// The routed baseline: bare Databases, one per shard, with the benchmark
/// doing the routing and the (serial) scatter itself.
class Routed {
 public:
  Routed(const std::vector<std::string>& names, const std::vector<const std::vector<I64>*>& cols,
         bool deadline)
      : names_(names), router_(kShards), deadline_(deadline) {
    Check(router_.RegisterTable(kTable, RangeOnK()), "register routing");
    std::vector<std::vector<std::vector<I64>>> parts(
        kShards, std::vector<std::vector<I64>>(names.size()));
    for (std::size_t r = 0; r < cols[0]->size(); ++r) {
      const std::size_t s = *router_.ShardOf(kTable, (*cols[0])[r]);
      for (std::size_t c = 0; c < names.size(); ++c) parts[s][c].push_back((*cols[c])[r]);
    }
    for (int s = 0; s < kShards; ++s) {
      auto& db = shards_.emplace_back(std::make_unique<Database>(aidx::DatabaseOptions{}));
      Check(db->CreateTable(kTable), "create table");
      for (std::size_t c = 0; c < names.size(); ++c) {
        Check(db->AddColumn(kTable, names[c], std::move(parts[s][c])), "load");
      }
    }
  }

  /// Shards a read of `op` targets, as ShardedDatabase picks them.
  std::vector<std::size_t> Targets(const Op& op) const {
    if (op.kind == OpKind::kCountA) return {0, 1, 2, 3};
    return *router_.ShardsFor(kTable, aidx::RangePredicate<I64>::Between(op.lo, op.hi));
  }

  std::uint64_t Exec(const Op& op, const std::vector<std::string>& tails) {
    if (op.kind == OpKind::kInsert) {
      const std::size_t s = *router_.ShardOf(kTable, op.lo);
      return ExecDb(*shards_[s], op, names_.size(), tails, false);
    }
    if (op.kind == OpKind::kDelete) {
      for (std::size_t s : Targets({OpKind::kCount, op.lo, op.lo})) {
        const std::uint64_t answer = ExecDb(*shards_[s], op, names_.size(), tails, false);
        if (answer != 0) return answer;
      }
      return 0;
    }
    // ShardedDatabase hands every leg a context, so legs here carry one too
    // and both rungs pay the same gauge sync inside each node.
    std::uint64_t total = 0;
    std::vector<std::vector<I64>> gathered(tails.size());
    for (std::size_t s : Targets(op)) {
      aidx::QueryRequest req;
      req.table = kTable;
      req.column = op.kind == OpKind::kCountA ? "a" : "k";
      req.predicate = aidx::RangePredicate<I64>::Between(op.lo, op.hi);
      req.strategy = aidx::StrategyConfig::Crack();
      req.context = deadline_ ? aidx::QueryContext::WithTimeout(kRequestDeadline)
                              : aidx::QueryContext();
      if (op.kind == OpKind::kProject) {
        req.tails = tails;
        auto r = shards_[s]->SelectProject(req);
        if (!r.ok()) return kFailedAnswer;
        for (std::size_t c = 0; c < tails.size(); ++c) {
          gathered[c].insert(gathered[c].end(), r->columns[c].begin(), r->columns[c].end());
        }
      } else if (op.kind == OpKind::kSum) {
        auto r = shards_[s]->Sum(req);
        if (!r.ok()) return kFailedAnswer;
        total += SumAnswer(*r);
      } else {
        auto r = shards_[s]->Count(req);
        if (!r.ok()) return kFailedAnswer;
        total += *r;
      }
    }
    return op.kind == OpKind::kProject ? ProjectionAnswer(gathered) : total;
  }

  CrackerStats Stats() const {
    CrackerStats out;
    for (const auto& db : shards_) out += db->Stats().crack;
    return out;
  }

 private:
  std::vector<std::string> names_;
  aidx::ShardRouter router_;
  bool deadline_;
  std::vector<std::unique_ptr<Database>> shards_;
};

struct ShardedRung {
  std::unique_ptr<aidx::ThreadPool> pool;
  std::unique_ptr<ShardedDatabase> db;  // declared after the pool it borrows
};

ShardedRung LoadShardedRung(const std::vector<std::string>& names,
                            const std::vector<const std::vector<I64>*>& cols, bool pool) {
  ShardedRung out;
  if (pool) out.pool = std::make_unique<aidx::ThreadPool>(1);
  out.db = LoadSharded(names, RowMajor(cols), out.pool.get());
  return out;
}

void AddShardedStats(const ShardedDatabase& db, CrackerStats* crack, std::size_t* sheds,
                     std::size_t* denials) {
  for (const aidx::ShardStats& s : db.Stats()) {
    *crack += s.crack;
    *sheds += s.sheds;
    *denials += s.admission_denials;
  }
}

// ---------------------------------------------------------------------------
// Workload inputs
// ---------------------------------------------------------------------------

std::size_t Scaled(std::size_t base, int seconds) {
  return std::max<std::size_t>(200, base * static_cast<std::size_t>(seconds) / 10);
}

LadderInput MakeInput(const RunArgs& args) {
  LadderInput in;
  const std::size_t num_reads = Scaled(2000, args.seconds);
  const std::size_t num_writes = Scaled(6000, args.seconds);
  std::int64_t width = kDomain / 1000;
  bool unique_keys = false;
  if (args.workload == "cold_crack") {
    width = kDomain / 100;
    in.k = UniformColumn(std::size_t{1} << 22, SubSeed(args.seed, 1));
    Rng rng(SubSeed(args.seed, 2, 0));  // the first cold epoch
    for (std::size_t q = 0; q < num_reads; ++q) {
      const Range r = RandomRange(rng, width);
      in.reads.push_back({q % 2 == 0 ? OpKind::kCount : OpKind::kSum, r.lo, r.hi});
    }
  } else if (args.workload == "converged_serving") {
    in.k = UniformColumn(kShardedRows, SubSeed(args.seed, 1));
    in.a = UniformColumn(kShardedRows, SubSeed(args.seed, 3));
    const HotSet hot = MakeHotSet(args.seed, width);
    in.reads.insert(in.reads.end(), hot.k.begin(), hot.k.end());
    in.reads.insert(in.reads.end(), hot.a.begin(), hot.a.end());
    Rng rng(SubSeed(args.seed, 10, 0));
    for (std::size_t j = 0; j < num_reads; ++j) in.reads.push_back(hot.Replay(rng, j, false));
    in.deadline = true;
    in.scatter_pool = true;
  } else if (args.workload == "mixed_dml" || args.workload == "parallel_mixed") {
    unique_keys = args.workload == "mixed_dml";
    const std::size_t rows = unique_keys ? kShardedRows : std::size_t{1} << 22;
    in.k = unique_keys ? UniqueKeys(rows, SubSeed(args.seed, 1))
                       : UniformColumn(rows, SubSeed(args.seed, 1));
    DmlStream stream(SubSeed(args.seed, 10, 0), 0, 1, width, DmlMix{}, {});
    for (std::size_t j = 0; j < num_reads; ++j) in.reads.push_back(stream.NextRead());
  } else {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }

  in.wk.assign(in.k.begin(), in.k.begin() + static_cast<std::ptrdiff_t>(kWriteRows));
  in.wa = in.a.empty() ? UniformColumn(kWriteRows, SubSeed(args.seed, 3))
                       : std::vector<I64>(in.a.begin(), in.a.begin() + kWriteRows);
  in.wb = UniformColumn(kWriteRows, SubSeed(args.seed, 5));
  DmlStream stream(SubSeed(args.seed, 11), 0, 1, width,
                   DmlMix{.insert_pct = 20, .delete_pct = 20, .project_every = 3,
                          .odd_inserts = unique_keys},
                   in.wk);
  // A read first: Database builds a column's access path on its first query
  // and applies earlier writes to the base alone, so a write ahead of every
  // read would reach the Database rung's path as loaded data but the lower
  // rungs as pending updates — different crack work.
  in.writes.push_back(stream.NextRead());
  while (in.writes.size() < num_writes) in.writes.push_back(stream.Next());
  return in;
}

std::vector<std::uint64_t> Expect(const std::vector<Op>& ops, Oracle& by_k, Oracle* by_a) {
  std::vector<std::uint64_t> out;
  out.reserve(ops.size());
  for (const Op& op : ops) {
    out.push_back(Expected(op.kind == OpKind::kCountA ? *by_a : by_k, op));
  }
  return out;
}

// ---------------------------------------------------------------------------
// The passes
// ---------------------------------------------------------------------------

struct Counters {
  std::size_t sheds = 0, denials = 0;
};

void ReadPass(const LadderInput& in, Tracer& tracer, Report& report, Counters& counters) {
  const std::vector<Op>& ops = in.reads;
  const bool has_a = !in.a.empty();
  std::vector<std::string> names = {"k"};
  std::vector<const std::vector<I64>*> cols = {&in.k};
  if (has_a) {
    names.push_back("a");
    cols.push_back(&in.a);
  }
  std::vector<std::uint64_t> expected;
  {
    Oracle by_k(in.k, {}, in.k.size(), false);
    std::optional<Oracle> by_a;
    if (has_a) by_a.emplace(in.a, std::vector<std::uint64_t>{}, in.a.size(), false);
    expected = Expect(ops, by_k, has_a ? &*by_a : nullptr);
  }

  Rung core, update, path, facade, facade_ctx, routed, sharded;
  std::size_t pieces = 0;
  {
    PerColumn<aidx::CrackerColumn<I64>> c;
    c.k.emplace(std::span<const I64>(in.k), ColumnOptions());
    if (has_a) c.a.emplace(std::span<const I64>(in.a), ColumnOptions());
    core = Replay(tracer, "core.column", ops, [&](const Op& op) { return ExecColumn(c.For(op), op); });
    core.stats = c.k->stats();
    pieces = c.k->index().num_pieces();
    if (has_a) {
      core.stats += c.a->stats();
      pieces += c.a->index().num_pieces();
    }
  }
  {
    using Updatable = aidx::UpdatableCrackerColumn<I64>;
    const Updatable::Options options{.crack = ColumnOptions()};
    PerColumn<Updatable> c;
    c.k.emplace(std::span<const I64>(in.k), options);
    if (has_a) c.a.emplace(std::span<const I64>(in.a), options);
    update = Replay(tracer, "update", ops, [&](const Op& op) { return ExecColumn(c.For(op), op); });
    update.stats = c.k->stats();
    if (has_a) update.stats += c.a->stats();
  }
  {
    PerColumn<std::unique_ptr<aidx::AccessPath<I64>>> c;
    c.k = aidx::MakeAccessPath<I64>(in.k, aidx::StrategyConfig::Crack());
    if (has_a) c.a = aidx::MakeAccessPath<I64>(in.a, aidx::StrategyConfig::Crack());
    path = Replay(tracer, "exec.path", ops, [&](const Op& op) { return ExecColumn(*c.For(op), op); });
    path.stats = (*c.k)->crack_stats();
    if (has_a) path.stats += (*c.a)->crack_stats();

    // Tracing overhead: the same rung again with no spans recorded.
    c.k = aidx::MakeAccessPath<I64>(in.k, aidx::StrategyConfig::Crack());
    if (has_a) c.a = aidx::MakeAccessPath<I64>(in.a, aidx::StrategyConfig::Crack());
    const std::int64_t t0 = NowNs();
    for (const Op& op : ops) ExecColumn(*c.For(op), op);
    const double untraced = static_cast<double>(NowNs() - t0);
    report.Metric("trace.overhead_frac", Ratio(path.wall_ns, untraced) - 1.0, "ratio");
  }
  std::size_t cached_paths = 0;
  for (const bool ctx : {false, true}) {
    auto db = LoadDatabase(names, cols);
    Rung r = Replay(tracer, ctx ? "exec.facade.ctx" : "exec.facade", ops,
                    [&](const Op& op) { return ExecDb(*db, op, names.size(), {}, ctx); });
    r.stats = db->Stats().crack;
    cached_paths = db->num_cached_paths();
    (ctx ? facade_ctx : facade) = std::move(r);
  }
  std::vector<bool> one_shard(ops.size());
  double fanout = 0;
  {
    Routed r(names, cols, in.deadline);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const std::size_t n = r.Targets(ops[i]).size();
      one_shard[i] = n == 1;
      fanout += static_cast<double>(n);
    }
    routed = Replay(tracer, "dist.routed", ops, [&](const Op& op) { return r.Exec(op, {}); });
    routed.stats = r.Stats();
  }
  {
    ShardedRung s = LoadShardedRung(names, cols, in.scatter_pool);
    sharded = Replay(tracer, "dist.sharded", ops, [&](const Op& op) {
      return ExecDb(*s.db, op, names.size(), {}, in.deadline);
    });
    AddShardedStats(*s.db, &sharded.stats, &counters.sheds, &counters.denials);
  }

  CheckGroup({&core, &update, &path, &facade, &facade_ctx}, report);
  CheckGroup({&routed, &sharded}, report);
  for (const Rung* r : {&core, &update, &path, &facade, &facade_ctx, &routed, &sharded}) {
    CheckAnswers(*r, expected, report);
  }

  const std::vector<double> core_reads = core.Of(ops, OpClass::kRead);
  report.NoteLatency("core.column read", core_reads, "ns");
  report.Metric("core.kernel.values_touched", static_cast<double>(core.stats.values_touched),
                "count");
  report.Metric("core.column.read_p50_ns", Percentile(core_reads, 0.5), "ns");
  report.Metric("core.column.read_p99_ns", Percentile(core_reads, 0.99), "ns");
  const double cracks = static_cast<double>(core.stats.num_crack_in_two +
                                            core.stats.num_crack_in_three +
                                            core.stats.num_stochastic_cracks);
  report.Metric("core.column.cracks", cracks, "count");
  report.Metric("core.column.crack_frac",
                Ratio(cracks, static_cast<double>(core.stats.num_selects)), "ratio");
  report.Metric("core.column.pieces", static_cast<double>(pieces), "count");
  report.Metric("exec.path.read_p50_ns", Percentile(path.Of(ops, OpClass::kRead), 0.5), "ns");
  report.Metric("exec.path.self_p50_ns", PairedSelfMedian(path.ns, update.ns), "ns");
  report.Metric("exec.facade.self_p50_ns", PairedSelfMedian(facade.ns, path.ns), "ns");
  report.Metric("exec.facade.ctx_self_p50_ns", PairedSelfMedian(facade_ctx.ns, facade.ns), "ns");
  report.Metric("exec.facade.cached_paths", static_cast<double>(cached_paths), "count");
  report.Metric("dist.read_p50_ns", Percentile(sharded.Of(ops, OpClass::kRead), 0.5), "ns");
  report.Metric("dist.self_p50_ns", PairedSelfMedian(sharded.ns, routed.ns), "ns");
  const bool any_one_shard = std::find(one_shard.begin(), one_shard.end(), true) != one_shard.end();
  report.Metric("dist.one_shard_self_p50_ns",
                any_one_shard ? PairedSelfMedian(sharded.ns, routed.ns, one_shard) : 0.0, "ns");
  const double fanout_mean = fanout / static_cast<double>(ops.size());
  report.Metric("dist.fanout_mean", fanout_mean, "shards");
  report.Metric("dist.pruned_frac", 1.0 - fanout_mean / kShards, "ratio");
}

void WritePass(const LadderInput& in, Tracer& tracer, Report& report, Counters& counters) {
  const std::vector<Op>& ops = in.writes;
  const std::vector<std::string> names = {"k", "a", "b"};
  const std::vector<const std::vector<I64>*> cols = {&in.wk, &in.wa, &in.wb};
  const std::vector<std::string> tails = {"a", "b"};
  std::vector<std::uint64_t> expected;
  {
    std::vector<I64> keys = in.wk;
    std::vector<std::uint64_t> hashes;
    for (std::size_t i = 0; i < in.wk.size(); ++i) hashes.push_back(RowHash(in.wa[i], in.wb[i]));
    for (const Op& op : ops) {
      if (op.kind != OpKind::kInsert) continue;
      keys.push_back(op.lo);
      hashes.push_back(RowHash(op.a, op.b));
    }
    Oracle oracle(std::move(keys), std::move(hashes), in.wk.size(), true);
    expected = Expect(ops, oracle, nullptr);
  }

  Rung update, path, facade, storage, routed, sharded, parallel;
  aidx::UpdateStats merges{};
  std::size_t pending_peak = 0;
  {
    aidx::UpdatableCrackerColumn<I64> c(std::span<const I64>(in.wk),
                                        {.crack = ColumnOptions()});
    update = Replay(tracer, "update", ops, [&](const Op& op) {
      if (op.kind == OpKind::kProject) return kSkipped;
      const std::uint64_t answer = ExecColumn(c, op);
      pending_peak = std::max(pending_peak, c.num_pending_inserts() + c.num_pending_deletes());
      return answer;
    });
    update.stats = c.stats();
    merges = c.update_stats();
  }
  {
    auto p = aidx::MakeAccessPath<I64>(in.wk, aidx::StrategyConfig::Crack());
    path = Replay(tracer, "exec.path", ops, [&](const Op& op) {
      return op.kind == OpKind::kProject ? kSkipped : ExecColumn(*p, op);
    });
    path.stats = p->crack_stats();
  }
  {
    auto db = LoadDatabase(names, cols);
    facade = Replay(tracer, "exec.facade", ops,
                    [&](const Op& op) { return ExecDb(*db, op, 3, tails, false); });
    facade.stats = db->Stats().crack;
  }

  // storage + sideways: the base table and a table-backed sideways cracker,
  // maintained the way Database maintains them, with the calls into each
  // layer timed as child spans.
  std::vector<double> append_ns, erase_ns, project_ns;
  aidx::SidewaysStats sideways{};
  {
    aidx::Table table(kTable);
    for (std::size_t c = 0; c < names.size(); ++c) {
      Check(table.AddColumn<I64>(names[c], std::vector<I64>(*cols[c])), "load");
    }
    std::vector<aidx::TypedColumn<I64>*> typed;
    for (const std::string& n : names) typed.push_back(*(*table.GetColumn(n))->As<I64>());
    aidx::SidewaysCracker<I64> cracker(&table, "k");
    for (const std::string& t : tails) Check(cracker.AddTailColumn(t), "add tail");
    const std::uint32_t append_name = tracer.Intern("storage.append");
    const std::uint32_t erase_name = tracer.Intern("storage.erase_row");
    const std::uint32_t project_name = tracer.Intern("sideways.project");
    storage = Replay(tracer, "storage+sideways", ops, [&](const Op& op) -> std::uint64_t {
      const std::uint32_t parent = tracer.Last();
      const std::uint64_t request = tracer.RequestOf(parent);
      switch (op.kind) {
        case OpKind::kInsert: {
          const aidx::row_id_t rid = table.AllocateRowId();
          cracker.ApplyInsert(rid, op.lo, {op.a, op.b});
          const std::uint32_t span = tracer.Open(append_name, parent, request);
          typed[0]->Append(op.lo);
          typed[1]->Append(op.a);
          typed[2]->Append(op.b);
          table.CommitAppendedRow(rid);
          tracer.Close(span);
          append_ns.push_back(tracer.DurationNs(span));
          return 1;
        }
        case OpKind::kDelete: {
          const auto keys = typed[0]->Values();
          const auto it = std::find(keys.begin(), keys.end(), op.lo);
          if (it == keys.end()) return 0;
          const std::size_t pos = static_cast<std::size_t>(it - keys.begin());
          cracker.ApplyDelete(table.row_ids()[pos], op.lo);
          const std::uint32_t span = tracer.Open(erase_name, parent, request);
          const aidx::Status st = table.EraseRow(pos);
          tracer.Close(span);
          erase_ns.push_back(tracer.DurationNs(span));
          return st.ok() ? 1 : kFailedAnswer;
        }
        case OpKind::kProject: {
          const std::uint32_t span = tracer.Open(project_name, parent, request);
          auto r = cracker.SelectProject(aidx::RangePredicate<I64>::Between(op.lo, op.hi), tails);
          tracer.Close(span);
          project_ns.push_back(tracer.DurationNs(span));
          return r.ok() ? ProjectionAnswer(r->columns) : kFailedAnswer;
        }
        default:
          return kSkipped;
      }
    });
    sideways = cracker.stats();
  }
  {
    Routed r(names, cols, false);
    routed = Replay(tracer, "dist.routed", ops, [&](const Op& op) { return r.Exec(op, tails); });
    routed.stats = r.Stats();
  }
  {
    ShardedRung s = LoadShardedRung(names, cols, in.scatter_pool);
    sharded = Replay(tracer, "dist.sharded", ops,
                     [&](const Op& op) { return ExecDb(*s.db, op, 3, tails, false); });
    AddShardedStats(*s.db, &sharded.stats, &counters.sheds, &counters.denials);
  }
  aidx::StripedReadPathStats read_paths{};
  std::size_t parallel_pieces = 0;
  {
    aidx::PartitionedCrackerColumn<I64> c(std::span<const I64>(in.wk), PartitionedOptions());
    parallel = Replay(tracer, "parallel", ops, [&](const Op& op) {
      return op.kind == OpKind::kProject ? kSkipped : ExecColumn(c, op);
    });
    read_paths = c.AggregatedReadPathStats();
    parallel_pieces = c.aggregated_num_pieces();
  }

  CheckGroup({&update, &path, &facade}, report);
  CheckGroup({&routed, &sharded}, report);
  for (const Rung* r : {&update, &path, &facade, &storage, &routed, &sharded, &parallel}) {
    CheckAnswers(*r, expected, report);
  }

  const std::vector<double> reads = update.Of(ops, OpClass::kRead);
  const std::vector<double> writes = update.Of(ops, OpClass::kWrite);
  report.NoteLatency("update read", reads, "ns");
  report.NoteLatency("update write", writes, "ns");
  report.NoteLatency("storage.erase_row", erase_ns, "ns");
  report.NoteLatency("sideways.project", project_ns, "ns");
  report.Metric("update.read_p50_ns", Percentile(reads, 0.5), "ns");
  report.Metric("update.read_p99_ns", Percentile(reads, 0.99), "ns");
  report.Metric("update.write_p50_ns", Percentile(writes, 0.5), "ns");
  report.Metric("update.write_p99_ns", Percentile(writes, 0.99), "ns");
  report.Metric("update.inserts_merged", static_cast<double>(merges.inserts_merged), "count");
  report.Metric("update.deletes_merged", static_cast<double>(merges.deletes_merged), "count");
  report.Metric("update.ripple_moves", static_cast<double>(merges.ripple_element_moves), "count");
  report.Metric("update.moves_per_merged",
                Ratio(static_cast<double>(merges.ripple_element_moves),
                      static_cast<double>(merges.inserts_merged + merges.deletes_merged)),
                "ratio");
  report.Metric("update.pending_peak", static_cast<double>(pending_peak), "count");

  std::vector<double> deletes;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == OpKind::kDelete) deletes.push_back(facade.ns[i] / 1e3);
  }
  report.Metric("exec.facade.delete_p50_us", Percentile(deletes, 0.5), "us");
  report.Metric("storage.erase_row_p50_us", Percentile(erase_ns, 0.5) / 1e3, "us");
  report.Metric("storage.append_p50_ns", Percentile(append_ns, 0.5), "ns");
  report.Metric("sideways.project_p50_us", Percentile(project_ns, 0.5) / 1e3, "us");
  report.Metric("sideways.project_p99_us", Percentile(project_ns, 0.99) / 1e3, "us");
  report.Metric("sideways.maps_created", static_cast<double>(sideways.maps_created), "count");
  report.Metric("sideways.alignment_replays", static_cast<double>(sideways.alignment_replays),
                "count");
  report.Metric("sideways.dml_logged",
                static_cast<double>(sideways.dml_inserts + sideways.dml_deletes), "count");
  report.Metric("dist.write_self_p50_us",
                PairedSelfMedian(sharded.ns, routed.ns, ClassMask(ops, OpClass::kWrite)) / 1e3,
                "us");
  report.Metric("parallel.read_p50_ns", Percentile(parallel.Of(ops, OpClass::kRead), 0.5), "ns");
  report.Metric("parallel.write_p50_ns", Percentile(parallel.Of(ops, OpClass::kWrite), 0.5),
                "ns");
  report.Metric("parallel.fast_read_frac",
                Ratio(static_cast<double>(read_paths.fast_reads),
                      static_cast<double>(read_paths.fast_reads + read_paths.overlay_reads +
                                          read_paths.coarse_reads)),
                "ratio");
  report.Metric("parallel.pieces", static_cast<double>(parallel_pieces), "count");
}

/// parallel.contention_ratio: p50 read latency with 4 clients sharing one
/// PartitionedCrackerColumn over p50 with 1 client, on the R pass's key reads.
void ContentionPass(const LadderInput& in, Tracer& tracer, Report& report) {
  std::vector<Op> ops;
  for (const Op& op : in.reads) {
    if (op.kind != OpKind::kCountA) ops.push_back(op);
  }
  std::vector<std::uint64_t> expected;
  {
    Oracle by_k(in.k, {}, in.k.size(), false);
    expected = Expect(ops, by_k, nullptr);
  }
  double p50_one = 0;
  {
    aidx::PartitionedCrackerColumn<I64> c(std::span<const I64>(in.k), PartitionedOptions());
    const Rung one = Replay(tracer, "parallel.1client", ops,
                            [&](const Op& op) { return ExecColumn(c, op); });
    CheckAnswers(one, expected, report);
    p50_one = Median(one.ns);
  }
  constexpr int kClients = 4;
  aidx::PartitionedCrackerColumn<I64> c(std::span<const I64>(in.k), PartitionedOptions());
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> times(kClients);
  std::vector<std::uint64_t> answers(ops.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < ops.size(); i += kClients) {
        const std::int64_t t0 = NowNs();
        answers[i] = ExecColumn(c, ops[i]);
        times[static_cast<std::size_t>(t)].emplace_back(t0, NowNs());
      }
    });
  }
  for (auto& t : threads) t.join();
  // Spans from the client threads are recorded after they join (the tracer
  // is single-threaded); request ids keep each op's position in the stream.
  const std::uint32_t name = tracer.Intern("parallel.4client");
  std::vector<double> ns;
  for (int t = 0; t < kClients; ++t) {
    std::size_t i = static_cast<std::size_t>(t);
    for (const auto& [start, end] : times[static_cast<std::size_t>(t)]) {
      tracer.Add(name, Tracer::kNoParent, i, start, end);
      ns.push_back(static_cast<double>(end - start));
      i += kClients;
    }
  }
  Rung four;
  four.name = "parallel.4client";
  four.answers = std::move(answers);
  CheckAnswers(four, expected, report);
  report.Metric("parallel.contention_ratio", Ratio(Median(ns), p50_one), "ratio");
}

/// The crack kernels alone on a copy of the workload's data, and the
/// dispatch cost of an empty ParallelFor at the scatter pool's size.
void ProbePass(const LadderInput& in, Tracer& tracer, Report& report) {
  constexpr int kReps = 7;
  const std::size_t n = std::min(in.k.size(), std::size_t{1} << 22);
  std::vector<I64> buf(n);
  std::vector<double> two, three;
  const std::uint32_t two_name = tracer.Intern("core.kernel.crack2");
  const std::uint32_t three_name = tracer.Intern("core.kernel.crack3");
  for (int rep = 0; rep < kReps; ++rep) {
    const Op& q = in.reads[static_cast<std::size_t>(rep) % in.reads.size()];
    const aidx::Cut<I64> lo{q.lo, aidx::CutKind::kLess};
    const aidx::Cut<I64> hi{q.hi, aidx::CutKind::kLessEq};
    std::copy_n(in.k.begin(), n, buf.begin());
    std::uint32_t span = tracer.Open(two_name, Tracer::kNoParent, static_cast<std::uint64_t>(rep));
    aidx::CrackInTwo<I64>(std::span<I64>(buf), std::span<aidx::row_id_t>(), lo);
    tracer.Close(span);
    two.push_back(static_cast<double>(n) / (tracer.DurationNs(span) / 1e3));  // rows/us = Mrows/s
    std::copy_n(in.k.begin(), n, buf.begin());
    span = tracer.Open(three_name, Tracer::kNoParent, static_cast<std::uint64_t>(rep));
    aidx::CrackInThree<I64>(std::span<I64>(buf), std::span<aidx::row_id_t>(), lo, hi);
    tracer.Close(span);
    three.push_back(static_cast<double>(n) / (tracer.DurationNs(span) / 1e3));
  }
  report.Metric("core.kernel.crack2_mrows_per_s", Median(two), "Mrows/s");
  report.Metric("core.kernel.crack3_mrows_per_s", Median(three), "Mrows/s");

  constexpr int kCalls = 2000;
  aidx::ThreadPool pool(1);
  const std::uint32_t pf_name = tracer.Intern("util.pool.parallel_for");
  std::vector<double> pf;
  tracer.Reserve(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    const std::uint32_t span = tracer.Open(pf_name, Tracer::kNoParent, static_cast<std::uint64_t>(i));
    pool.ParallelFor(kShards, [](std::size_t) {});
    tracer.Close(span);
    pf.push_back(tracer.DurationNs(span) / 1e3);
  }
  report.Metric("util.pool.parallel_for_p50_us", Percentile(pf, 0.5), "us");
  report.Metric("util.pool.parallel_for_p99_us", Percentile(pf, 0.99), "us");
}

}  // namespace

void RunLadder(const RunArgs& args, Report& report) {
  const LadderInput in = MakeInput(args);
  Tracer tracer;
  Counters counters;
  ProbePass(in, tracer, report);
  ReadPass(in, tracer, report, counters);
  WritePass(in, tracer, report, counters);
  ContentionPass(in, tracer, report);
  report.Metric("util.governor.sheds", static_cast<double>(counters.sheds), "count");
  report.Metric("util.governor.admission_denials", static_cast<double>(counters.denials), "count");

  const std::string path = args.out_dir + "/spans-" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".tsv";
  if (!tracer.WriteTsv(path, "# " + EnvironmentLine(args.workload, args.seed, args.seconds,
                                                     args.trace))) {
    report.Fail("could not write " + path);
  }
  report.Note("spans written to " + path);
}

}  // namespace perfbench
