#include "exec/engine.h"

#include <cstdlib>
#include <functional>
#include <optional>

#include "util/failpoint.h"

namespace aidx {

namespace internal {
namespace {

std::size_t HashCombine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9E3779B97F4A7C15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

std::size_t PathKeyHash::operator()(const PathKey& key) const {
  std::size_t h = std::hash<std::string>{}(key.table);
  h = HashCombine(h, std::hash<std::string>{}(key.column));
  const StrategyConfig& c = key.config;
  h = HashCombine(h, static_cast<std::size_t>(c.kind));
  h = HashCombine(h, c.min_piece_size);
  h = HashCombine(h, c.stochastic_threshold);
  h = HashCombine(h, static_cast<std::size_t>(c.seed));
  h = HashCombine(h, c.run_size);
  h = HashCombine(h, static_cast<std::size_t>(c.hybrid_initial));
  h = HashCombine(h, static_cast<std::size_t>(c.hybrid_final));
  h = HashCombine(h, static_cast<std::size_t>(c.radix_bits));
  h = HashCombine(h, c.num_partitions);
  h = HashCombine(h, c.num_threads);
  h = HashCombine(h, static_cast<std::size_t>(c.merge_policy));
  h = HashCombine(h, c.gradual_budget);
  h = HashCombine(h, static_cast<std::size_t>(c.with_row_ids));
  h = HashCombine(h, static_cast<std::size_t>(c.crack_kernel));
  h = HashCombine(h, c.latch_stripes);
  h = HashCombine(h, c.background_merge_threshold);
  return h;
}

}  // namespace internal

DatabaseOptions DatabaseOptions::FromEnv() {
  DatabaseOptions options;
  if (const char* env = std::getenv("AIDX_MEMORY_BUDGET")) {
    char* end = nullptr;
    const unsigned long long bytes = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') {
      options.memory_budget = static_cast<std::size_t>(bytes);
    }
  }
  return options;
}

Database::Database(const DatabaseOptions& options)
    : thread_pool_(options.thread_pool) {
  governor_->set_budget_bytes(options.memory_budget);
}

Status Database::CreateTable(std::string name) {
  return catalog_.CreateTable(std::move(name)).status();
}

Status Database::AddColumn(std::string_view table, std::string column,
                           std::vector<std::int64_t> values) {
  AIDX_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  AIDX_RETURN_NOT_OK(t->AddColumn<std::int64_t>(std::move(column), std::move(values)));
  // Schema change: cached sideways crackers registered their tails at
  // creation and would not know the new column; rebuild on next use.
  DropSideways(table);
  return Status::OK();
}

Result<std::span<const std::int64_t>> Database::ColumnSpan(
    std::string_view table, std::string_view column) const {
  AIDX_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  AIDX_ASSIGN_OR_RETURN(const TypedColumn<std::int64_t>* col,
                        t->GetTypedColumn<std::int64_t>(column));
  return col->Values();
}

void Database::DropSideways(std::string_view table) {
  const auto it = sideways_.find(table);
  if (it != sideways_.end()) sideways_.erase(it);
}

Result<Table*> Database::PrepareRowDml(std::string_view table) {
  AIDX_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  if (t->num_columns() == 0) {
    return Status::InvalidArgument("table '" + t->name() + "' has no columns");
  }
  AIDX_RETURN_NOT_OK(t->CheckRowType<std::int64_t>());
  // Validate-phase fault injection: one scoped evaluation per column, so a
  // policy can target "table\x1fcolumn" precisely. The scope string is
  // only built when the point is armed.
  if (AIDX_PREDICT_FALSE(failpoints::engine_dml_validate.armed())) {
    for (const std::string& name : t->column_names()) {
      std::string scope;
      scope.reserve(t->name().size() + 1 + name.size());
      scope.append(t->name());
      scope.push_back(kFailpointScopeSep);
      scope.append(name);
      AIDX_RETURN_NOT_OK(failpoints::engine_dml_validate.Inject(scope));
    }
  }
  return t;
}

std::vector<Database::SidewaysColumns> Database::SidewaysColumnsOf(
    std::string_view table, const Table& t) {
  std::vector<SidewaysColumns> out;
  ForEachSidewaysOf(table, [&](std::string_view head,
                               SidewaysCracker<std::int64_t>& cracker) {
    SidewaysColumns& entry = out.emplace_back();
    entry.cracker = &cracker;
    entry.head = t.ColumnIndex(head).value();
    entry.tails.reserve(cracker.registered_tails().size());
    for (const std::string& tail : cracker.registered_tails()) {
      entry.tails.push_back(t.ColumnIndex(tail).value());
    }
  });
  return out;
}

void Database::LogSidewaysInsert(const SidewaysColumns& sideways,
                                 std::span<const std::int64_t> row,
                                 row_id_t rid) {
  std::vector<std::int64_t> tails;
  tails.reserve(sideways.tails.size());
  for (const std::size_t i : sideways.tails) tails.push_back(row[i]);
  sideways.cracker->ApplyInsert(rid, row[sideways.head], std::move(tails));
}

Status Database::Insert(std::string_view table,
                        std::span<const std::int64_t> row) {
  AIDX_ASSIGN_OR_RETURN(Table * t, PrepareRowDml(table));
  if (row.size() != t->num_columns()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values; table '" + t->name() +
        "' has " + std::to_string(t->num_columns()) + " columns");
  }
  // Validate phase done — nothing below can fail (row-atomicity).
  const row_id_t rid = t->AllocateRowId();
  const std::vector<std::string>& names = t->column_names();
  // Paths first: ones that have not materialized yet snapshot the base
  // span now, while it is still untouched.
  for (std::size_t i = 0; i < row.size(); ++i) {
    ForEachPathOf(table, names[i],
                  [&](AccessPath<std::int64_t>& path) { path.Insert(row[i]); });
  }
  for (const SidewaysColumns& sideways : SidewaysColumnsOf(table, *t)) {
    LogSidewaysInsert(sideways, row, rid);
  }
  t->AppendRow(row, rid);
  return Status::OK();
}

Status Database::InsertBatch(std::string_view table,
                             std::span<const std::int64_t> rows) {
  AIDX_ASSIGN_OR_RETURN(Table * t, PrepareRowDml(table));
  const std::size_t width = t->num_columns();
  if (rows.size() % width != 0) {
    return Status::InvalidArgument(
        "row-major batch of " + std::to_string(rows.size()) +
        " values is not a multiple of " + std::to_string(width) + " columns");
  }
  const std::size_t num_rows = rows.size() / width;
  if (num_rows == 0) return Status::OK();
  // Validate phase done — nothing below can fail (row-atomicity).
  const std::vector<std::string>& names = t->column_names();
  std::vector<std::int64_t> column_values(num_rows);
  for (std::size_t c = 0; c < width; ++c) {
    for (std::size_t r = 0; r < num_rows; ++r) {
      column_values[r] = rows[r * width + c];
    }
    ForEachPathOf(table, names[c], [&](AccessPath<std::int64_t>& path) {
      path.InsertBatch(column_values);
    });
  }
  const std::vector<SidewaysColumns> sideways = SidewaysColumnsOf(table, *t);
  for (std::size_t r = 0; r < num_rows; ++r) {
    const std::span<const std::int64_t> row = rows.subspan(r * width, width);
    const row_id_t rid = t->AllocateRowId();
    for (const SidewaysColumns& s : sideways) LogSidewaysInsert(s, row, rid);
    t->AppendRow(row, rid);
  }
  return Status::OK();
}

void Database::DeleteFromPaths(std::string_view table, const Table& t,
                               std::span<const std::int64_t> row) {
  const std::vector<std::string>& names = t.column_names();
  for (std::size_t i = 0; i < row.size(); ++i) {
    ForEachPathOf(table, names[i], [&](AccessPath<std::int64_t>& path) {
      const bool removed = path.Delete(row[i]);
      // Paths mirror the base multiset, so the tuple must exist there too.
      AIDX_DCHECK(removed);
      (void)removed;
    });
  }
}

Result<bool> Database::Delete(std::string_view table, std::string_view column,
                              std::int64_t value) {
  AIDX_ASSIGN_OR_RETURN(Table * t, PrepareRowDml(table));
  AIDX_ASSIGN_OR_RETURN(const std::size_t key_index, t->ColumnIndex(column));
  const std::optional<std::size_t> slot =
      t->FindFirstLive<std::int64_t>(key_index, value);
  if (!slot.has_value()) return false;  // no row matches: no-op
  // Validate phase done — nothing below can fail (row-atomicity). Capture
  // the row before any structure mutates.
  std::vector<std::int64_t> row(t->num_columns());
  const row_id_t rid = t->ReadRow<std::int64_t>(*slot, row);
  DeleteFromPaths(table, *t, row);
  for (const SidewaysColumns& sideways : SidewaysColumnsOf(table, *t)) {
    sideways.cracker->ApplyDelete(rid, row[sideways.head]);
  }
  // O(1): the row is tombstoned; the table compacts dead rows in bulk.
  t->TombstoneRow(*slot);
  return true;
}

Result<std::size_t> Database::DeleteWhere(
    std::string_view table, std::string_view column,
    const RangePredicate<std::int64_t>& pred) {
  AIDX_ASSIGN_OR_RETURN(Table * t, PrepareRowDml(table));
  // A dense view: compacts pending tombstones once, so the positions below
  // are slots too.
  AIDX_ASSIGN_OR_RETURN(const TypedColumn<std::int64_t>* key_col,
                        t->GetTypedColumn<std::int64_t>(column));
  const auto key_values = key_col->Values();
  std::vector<std::size_t> victims;
  for (std::size_t pos = 0; pos < key_values.size(); ++pos) {
    if (pred.Matches(key_values[pos])) victims.push_back(pos);
  }
  if (victims.empty()) return std::size_t{0};
  // Validate phase done — nothing below can fail (row-atomicity). Capture
  // the doomed rows, row-major, before any structure mutates.
  const std::size_t width = t->num_columns();
  std::vector<std::int64_t> rows(victims.size() * width);
  std::vector<row_id_t> rids(victims.size());
  for (std::size_t v = 0; v < victims.size(); ++v) {
    rids[v] = t->ReadRow<std::int64_t>(
        victims[v], std::span<std::int64_t>(rows).subspan(v * width, width));
  }
  const std::vector<SidewaysColumns> sideways = SidewaysColumnsOf(table, *t);
  for (std::size_t v = 0; v < victims.size(); ++v) {
    const std::span<const std::int64_t> row =
        std::span<const std::int64_t>(rows).subspan(v * width, width);
    DeleteFromPaths(table, *t, row);
    for (const SidewaysColumns& s : sideways) {
      s.cracker->ApplyDelete(rids[v], row[s.head]);
    }
  }
  AIDX_CHECK_OK(t->EraseRows(victims));
  return victims.size();
}

Result<AccessPath<std::int64_t>*> Database::PathFor(std::string_view table,
                                                    std::string_view column,
                                                    const StrategyConfig& config) {
  internal::PathKey key{std::string(table), std::string(column), config};
  const auto it = paths_.find(key);
  if (it != paths_.end()) return it->second.get();
  AIDX_ASSIGN_OR_RETURN(const auto span, ColumnSpan(table, column));
  auto path = MakeAccessPath<std::int64_t>(span, config);
  AccessPath<std::int64_t>* raw = path.get();
  paths_.emplace(std::move(key), std::move(path));
  return raw;
}

Result<std::size_t> Database::Count(const QueryRequest& req) {
  AIDX_ASSIGN_OR_RETURN(AccessPath<std::int64_t> * path,
                        PathFor(req.table, req.column, req.strategy));
  if (!req.context.has_value()) return path->Count(req.predicate);
  AIDX_ASSIGN_OR_RETURN(const std::size_t count,
                        path->Count(req.predicate, *req.context));
  SyncResourceGauges();
  return count;
}

Result<double> Database::Sum(const QueryRequest& req) {
  AIDX_ASSIGN_OR_RETURN(AccessPath<std::int64_t> * path,
                        PathFor(req.table, req.column, req.strategy));
  if (!req.context.has_value()) {
    return static_cast<double>(path->Sum(req.predicate));
  }
  AIDX_ASSIGN_OR_RETURN(const long double sum,
                        path->Sum(req.predicate, *req.context));
  SyncResourceGauges();
  return static_cast<double>(sum);
}

Result<SidewaysCracker<std::int64_t>*> Database::SidewaysFor(std::string_view table,
                                                             std::string_view head) {
  if (auto* cached = CachedSideways(table, head)) return cached;

  AIDX_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  AIDX_RETURN_NOT_OK(t->GetTypedColumn<std::int64_t>(head).status());
  // Table-backed mode: spans are fetched per access and DML feeds the
  // cracker's operation log, so maps survive writes.
  auto cracker = std::make_unique<SidewaysCracker<std::int64_t>>(
      t, std::string(head));
  // Register every other int64 column of the table as a potential tail.
  for (const std::string& name : t->column_names()) {
    if (name == head) continue;
    AIDX_ASSIGN_OR_RETURN(Column * col, t->GetColumn(name));
    if (col->type() != DataType::kInt64) continue;
    AIDX_RETURN_NOT_OK(cracker->AddTailColumn(name));
  }
  SidewaysCracker<std::int64_t>* raw = cracker.get();
  sideways_.try_emplace(std::string(table))
      .first->second.emplace(std::string(head), std::move(cracker));
  return raw;
}

Result<ProjectionResult<std::int64_t>> Database::SelectProject(
    const QueryRequest& req) {
  const std::string_view table = req.table;
  const std::string_view head = req.column;
  const RangePredicate<std::int64_t>& pred = req.predicate;
  const std::vector<std::string>& tails = req.tails;
  AIDX_ASSIGN_OR_RETURN(SidewaysCracker<std::int64_t> * cracker,
                        SidewaysFor(table, head));
  // Soft-budget admission over the map bytes this query would newly pin.
  // Denial degrades, never fails: first shed cold sideways state, then —
  // if the incoming maps still do not fit — answer at scan speed without
  // materializing anything (scan-plus-crack-later); investment resumes
  // once pressure clears.
  std::size_t incoming = 0;
  for (const std::string& tail : tails) {
    if (cracker->PeekMap(tail) == nullptr) incoming += cracker->per_map_bytes();
  }
  SyncResourceGauges();
  if (!governor_->Admit(incoming)) {
    governor_->SetPressureCallback(
        [this, table, head] { ShedSidewaysExcept(table, head); });
    governor_->MaybeShed(incoming);
    governor_->SetPressureCallback(nullptr);
    SyncResourceGauges();
    if (!governor_->Admit(incoming)) {
      return ScanProject(table, head, pred, tails);
    }
  }
  auto result = cracker->SelectProject(pred, tails);
  SyncResourceGauges();
  return result;
}

Result<ProjectionResult<std::int64_t>> Database::ScanProject(
    std::string_view table, std::string_view head,
    const RangePredicate<std::int64_t>& pred,
    const std::vector<std::string>& tails) const {
  if (tails.empty()) {
    return Status::InvalidArgument("select-project needs at least one tail column");
  }
  AIDX_ASSIGN_OR_RETURN(const auto head_span, ColumnSpan(table, head));
  std::vector<std::span<const std::int64_t>> tail_spans;
  tail_spans.reserve(tails.size());
  for (const std::string& tail : tails) {
    AIDX_ASSIGN_OR_RETURN(const auto span, ColumnSpan(table, tail));
    tail_spans.push_back(span);
  }
  ProjectionResult<std::int64_t> out;
  out.column_names = tails;
  out.columns.resize(tails.size());
  for (std::size_t i = 0; i < head_span.size(); ++i) {
    if (!pred.Matches(head_span[i])) continue;
    for (std::size_t c = 0; c < tail_spans.size(); ++c) {
      out.columns[c].push_back(tail_spans[c][i]);
    }
    ++out.num_rows;
  }
  return out;
}

void Database::ShedSidewaysExcept(std::string_view table,
                                  std::string_view head) {
  std::erase_if(sideways_,
                [&](const auto& by_table) { return by_table.first != table; });
  if (const auto it = sideways_.find(table); it != sideways_.end()) {
    std::erase_if(it->second,
                  [&](const auto& entry) { return entry.first != head; });
  }
}

SidewaysCracker<std::int64_t>* Database::CachedSideways(
    std::string_view table, std::string_view head) const {
  const auto by_table = sideways_.find(table);
  if (by_table == sideways_.end()) return nullptr;
  const auto it = by_table->second.find(head);
  return it == by_table->second.end() ? nullptr : it->second.get();
}

std::size_t Database::num_cached_sideways() const {
  std::size_t n = 0;
  for (const auto& [table, heads] : sideways_) n += heads.size();
  return n;
}

void Database::SyncResourceGauges() {
  std::size_t sideways_bytes = 0;
  for (const auto& [table, heads] : sideways_) {
    for (const auto& [head, cracker] : heads) {
      sideways_bytes += cracker->MemoryUsageBytes();
    }
  }
  governor_->SetUsage(ResourceComponent::kSidewaysMaps, sideways_bytes);
  std::size_t pending_bytes = 0;
  for (const auto& [key, path] : paths_) {
    pending_bytes += path->approx_pending_bytes();
  }
  governor_->SetUsage(ResourceComponent::kPendingUpdates, pending_bytes);
}

Result<const SidewaysCracker<std::int64_t>*> Database::SidewaysState(
    std::string_view table, std::string_view head) const {
  if (const auto* cached = CachedSideways(table, head)) return cached;
  return Status::NotFound("no cached sideways cracker for table '" +
                          std::string(table) + "', head '" + std::string(head) +
                          "'");
}

void Database::ResetAdaptiveState() {
  paths_.clear();
  sideways_.clear();
}

DatabaseStats Database::Stats() const {
  DatabaseStats out;
  out.tables = catalog_.size();
  for (const std::string& name : catalog_.TableNames()) {
    const auto table = catalog_.GetTable(name);
    if (table.ok()) out.rows += (*table)->num_rows();
  }
  out.cached_paths = paths_.size();
  out.cached_sideways = num_cached_sideways();
  for (const auto& [key, path] : paths_) {
    out.cracked_pieces += path->num_cracked_pieces();
    out.pending_update_bytes += path->approx_pending_bytes();
    const CrackerStats s = path->crack_stats();
    out.crack.num_selects += s.num_selects;
    out.crack.num_crack_in_two += s.num_crack_in_two;
    out.crack.num_crack_in_three += s.num_crack_in_three;
    out.crack.num_stochastic_cracks += s.num_stochastic_cracks;
    out.crack.values_touched += s.values_touched;
  }
  return out;
}

Result<std::vector<ColumnCutExport>> Database::ExportColumnCuts(
    std::string_view table, std::string_view column, std::int64_t lo,
    std::int64_t hi) const {
  AIDX_ASSIGN_OR_RETURN(Table * t, catalog_.GetTable(table));
  AIDX_RETURN_NOT_OK(t->GetTypedColumn<std::int64_t>(column).status());
  std::vector<ColumnCutExport> out;
  for (const auto& [key, path] : paths_) {
    if (key.table != table || key.column != column) continue;
    ColumnCutExport entry;
    entry.config = key.config;
    path->ExportCuts(lo, hi, &entry.bundle);
    if (!entry.bundle.empty()) out.push_back(std::move(entry));
  }
  return out;
}

Status Database::ReplayColumnCuts(std::string_view table,
                                  std::string_view column,
                                  const std::vector<ColumnCutExport>& exports) {
  for (const ColumnCutExport& entry : exports) {
    AIDX_ASSIGN_OR_RETURN(AccessPath<std::int64_t> * path,
                          PathFor(table, column, entry.config));
    path->ReplayCuts(entry.bundle.cuts);
  }
  return Status::OK();
}

}  // namespace aidx
