// Shared pieces of the benchmark program: input generation, the op
// vocabulary, the correctness oracle, the span recorder, the run
// environment, and the report that ends every run with one JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "stats.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Value domain of every generated column: [0, 2^30). Small enough that a
/// sum over any range the workloads read stays below 2^53, so Sum answers
/// are exact in double and are compared for equality.
inline constexpr std::int64_t kDomain = std::int64_t{1} << 30;

/// splitmix64: the benchmark's only source of randomness, so the inputs
/// depend on --seed alone and never on the library under test.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); the modulo bias is below 2^-30 for every n used.
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  std::int64_t Value() { return static_cast<std::int64_t>(Below(kDomain)); }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream for (seed, purpose, index).
inline std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t purpose,
                             std::uint64_t index = 0) {
  return Mix64(Mix64(seed ^ Mix64(purpose)) + index);
}

std::vector<std::int64_t> UniformColumn(std::size_t n, std::uint64_t seed);

/// n distinct even keys spread uniformly over the domain, in random row
/// order: one per 2^30/n-wide slot. Inserts use odd keys, so they never
/// collide with a loaded row.
std::vector<std::int64_t> UniqueKeys(std::size_t n, std::uint64_t seed);

/// A uniform closed range [lo, lo + width - 1] inside [block_lo, block_hi).
struct Range {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};
inline Range RandomRange(Rng& rng, std::int64_t width, std::int64_t block_lo = 0,
                         std::int64_t block_hi = kDomain) {
  const std::int64_t lo =
      block_lo + static_cast<std::int64_t>(rng.Below(
                     static_cast<std::uint64_t>(block_hi - block_lo - width + 1)));
  return {lo, lo + width - 1};
}

/// Key-space namespaces for the concurrent DML workloads: the domain is cut
/// into 64 blocks and client c owns the blocks j with j % clients == c. A
/// client reads and writes only its own blocks, so its answers depend on its
/// own op order alone and one serial replay per client checks them exactly.
inline constexpr int kBlockBits = 24;
inline constexpr std::int64_t kNumBlocks = kDomain >> kBlockBits;
inline int OwnerOf(std::int64_t key, int clients) {
  return static_cast<int>((key >> kBlockBits) % clients);
}
inline Range RandomOwnedRange(Rng& rng, std::int64_t width, int client, int clients) {
  const std::int64_t per_client = kNumBlocks / clients;
  const std::int64_t block =
      static_cast<std::int64_t>(rng.Below(static_cast<std::uint64_t>(per_client))) * clients +
      client;
  return RandomRange(rng, width, block << kBlockBits, (block + 1) << kBlockBits);
}

// ---------------------------------------------------------------------------
// Operations and their answers
// ---------------------------------------------------------------------------

enum class OpKind : std::uint8_t {
  kCount,    // COUNT(*) WHERE k BETWEEN lo AND hi
  kSum,      // SUM(k)   WHERE k BETWEEN lo AND hi
  kCountA,   // COUNT(*) WHERE a BETWEEN lo AND hi (not the routing key)
  kProject,  // SELECT a[, b] WHERE k BETWEEN lo AND hi
  kInsert,   // row (lo, a, b); answer 1
  kDelete,   // first row with k == lo; answer 1 if one was deleted
};
enum class OpClass { kRead, kWrite, kProject };
inline OpClass ClassOf(OpKind kind) {
  switch (kind) {
    case OpKind::kInsert:
    case OpKind::kDelete:
      return OpClass::kWrite;
    case OpKind::kProject:
      return OpClass::kProject;
    default:
      return OpClass::kRead;
  }
}

struct Op {
  OpKind kind = OpKind::kCount;
  std::int64_t lo = 0;  // range low, or the row key for kInsert / kDelete
  std::int64_t hi = 0;
  std::int64_t a = 0;   // kInsert payload
  std::int64_t b = 0;
};

/// Op mix of a read/write stream; percentages of all ops, the rest reads.
struct DmlMix {
  int insert_pct = 10;
  int delete_pct = 10;
  /// Every n-th read is a SelectProject (0: none).
  int project_every = 0;
  /// Inserted keys are odd, so with UniqueKeys() loads every key stays
  /// unique and a delete names exactly one row.
  bool odd_inserts = false;
};

/// One client's op stream inside its key namespace. Deletes always name a
/// live key (tracked here), inserts carry fresh payloads, reads alternate
/// Count and Sum over `width`-wide ranges.
class DmlStream {
 public:
  DmlStream(std::uint64_t seed, int client, int clients, std::int64_t width, DmlMix mix,
            std::vector<std::int64_t> live_keys);
  Op Next();
  /// A read of the stream's kind and width, without drawing a write.
  Op NextRead();

 private:
  Rng rng_;
  int client_;
  int clients_;
  std::int64_t width_;
  DmlMix mix_;
  std::vector<std::int64_t> live_;
  std::unordered_set<std::int64_t> inserted_;  // odd_inserts: live inserted keys
  std::uint64_t reads_ = 0;
};

/// converged_serving's hot set: 0.1%-wide key-range reads, non-key reads
/// and projections, all cracked once during setup and then replayed.
struct HotSet {
  std::vector<Op> k;  // Count on k (Replay turns every other into a Sum)
  std::vector<Op> a;  // Count on a: fans out to every shard
  std::vector<Op> p;  // SelectProject of a by a k range
  /// Op j of a client's replay: every 32nd a projection, else 3 of 4 key
  /// reads and 1 of 4 non-key reads. `index` (optional) receives the op's
  /// position in its set.
  Op Replay(Rng& rng, std::size_t j, bool projections, std::size_t* index = nullptr) const;
};
HotSet MakeHotSet(std::uint64_t seed, std::int64_t width);

/// Answer of a Sum, as an exact integer; a non-integral sum cannot be right
/// (every input is an integer), so it maps to a value no oracle produces.
inline constexpr std::uint64_t kBadAnswer = ~std::uint64_t{0};
std::uint64_t SumAnswer(double sum);

/// Checksum of a projection's rows, compared as multisets. `tails` holds one
/// value vector per projected column (one or two columns).
std::uint64_t ProjectionAnswer(const std::vector<std::vector<std::int64_t>>& tails);

/// Exact reference answers for a table (k, a, b) under a sequence of writes.
/// Rows live in slots sorted by (k, load order); Fenwick trees over the slots
/// give count / sum / row-checksum of any k range in O(log n) after any mix
/// of inserts and deletes. Every row that will ever exist is known up front
/// (loaded rows plus the inserts the run logged), so slots never move.
/// Delete removes the alive row with that key that was loaded or inserted
/// first — the engine's first-match rule, because deletes erase in place and
/// inserts append.
class Oracle {
 public:
  /// `hashes` may be empty (no projections checked). Rows [0, loaded) are
  /// alive from the start; the rest become alive through Insert(i). A
  /// read-only oracle (`writable` false) skips the alive-count tree.
  Oracle(std::vector<std::int64_t> keys, std::vector<std::uint64_t> hashes,
         std::size_t loaded, bool writable);

  /// Makes the next not-yet-inserted row alive (rows are inserted in the
  /// order the constructor received them); SkipInsert passes over a row
  /// whose insert failed.
  void Insert() { Activate(next_insert_++); }
  void SkipInsert() { ++next_insert_; }
  bool Delete(std::int64_t key);
  std::uint64_t Count(std::int64_t lo, std::int64_t hi) const;
  std::uint64_t Sum(std::int64_t lo, std::int64_t hi) const;
  std::uint64_t Project(std::int64_t lo, std::int64_t hi) const;

 private:
  std::size_t Lower(std::int64_t key) const;  // first slot with k >= key
  std::size_t Upper(std::int64_t key) const;  // first slot with k > key
  template <typename V>
  static void Add(std::vector<V>& tree, std::size_t slot, V delta);
  template <typename V>
  static V Prefix(const std::vector<V>& tree, std::size_t end);
  std::size_t FindNth(std::uint64_t nth) const;  // slot of the nth alive row
  void Activate(std::size_t row);

  std::vector<std::int64_t> keys_;        // by slot
  std::vector<std::uint32_t> slot_of_;    // row index -> slot
  std::vector<std::uint64_t> hash_of_;    // by slot
  bool writable_;
  std::size_t next_insert_;
  std::vector<std::uint64_t> count_;      // Fenwick trees over slots
  std::vector<std::uint64_t> sum_;
  std::vector<std::uint64_t> hash_;
};

/// The oracle's answer to one op, applying writes as it goes.
std::uint64_t Expected(Oracle& oracle, const Op& op);

// ---------------------------------------------------------------------------
// Clock, spans, environment, report
// ---------------------------------------------------------------------------

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span store: each span has a name, start, end, parent and
/// request id. Written out once, when the run ends.
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};
  std::uint32_t Intern(const std::string& name);
  std::uint32_t Open(std::uint32_t name, std::uint32_t parent, std::uint64_t request) {
    spans_.push_back({name, parent, request, NowNs(), 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void Close(std::uint32_t span) { spans_[span].end_ns = NowNs(); }
  /// Records a span timed elsewhere (on another thread).
  void Add(std::uint32_t name, std::uint32_t parent, std::uint64_t request,
           std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back({name, parent, request, start_ns, end_ns});
  }
  /// The most recently opened span, and a span's request id: a call made
  /// inside a span records its child spans under them.
  std::uint32_t Last() const { return static_cast<std::uint32_t>(spans_.size() - 1); }
  std::uint64_t RequestOf(std::uint32_t span) const { return spans_[span].request; }
  double DurationNs(std::uint32_t span) const {
    return static_cast<double>(spans_[span].end_ns - spans_[span].start_ns);
  }
  void Reserve(std::size_t n) { spans_.reserve(spans_.size() + n); }
  /// One line per span: id, name, parent (-1 for roots), request, start, end.
  bool WriteTsv(const std::string& path, const std::string& header) const;

 private:
  struct Span {
    std::uint32_t name;
    std::uint32_t parent;
    std::uint64_t request;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<Span> spans_;
  std::vector<std::string> names_;
};

/// nproc, build type, resolved crack kernel and SIMD availability, and the
/// seeds: printed with every run so numbers from different hosts or builds
/// are never compared unknowingly.
std::string EnvironmentLine(const std::string& workload, std::uint64_t seed,
                            int seconds, bool trace);

/// Resident set size now, in MB, after returning freed heap memory to the
/// OS: the memory the process actually holds, not what glibc's per-thread
/// arenas happen to retain.
double ResidentMb();

/// Returns the heap's free memory to the OS (malloc_trim). Called outside
/// every timed window: before each set-up load and each cold epoch, so the
/// discarded store does not linger in the RSS and every first query takes
/// its memory from fresh pages — as after a restart — instead of from
/// whatever glibc happened to keep.
void ReleaseFreedMemory();

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A human-readable line; every line but the last JSON one starts "# ".
  void Note(const std::string& line);
  /// Latency summary line: p50, p99, sample count and samples beyond p99.
  void NoteLatency(const std::string& label, const std::vector<double>& samples,
                   const std::string& unit);
  void Fail(const std::string& why);
  bool correct() const { return correct_; }
  /// Operations issued to the engine, and how many returned a non-OK status
  /// (a request past its deadline included).
  void AddOps(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Prints every metric by name with its unit, then the final JSON line.
  void Finish() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Shared parameters of one invocation.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string out_dir;  // span files land here
};

/// Untraced run: the workload's end-to-end metrics.
void RunWorkload(const RunArgs& args, Report& report);
/// Traced run: the layer ladder's per-layer metrics.
void RunLadder(const RunArgs& args, Report& report);

}  // namespace perfbench
