#include "exec/operators.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <deque>

#include "exec/agg_state.h"
#include "exec/expr_compile.h"
#include "exec/float_sum.h"
#include "exec/simd.h"
#include "exec/spill.h"
#include "exec/vector_batch.h"
#include "obs/obs.h"
#include "obs/plan_profile.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/resource_governor.h"

namespace jsontiles::exec {

namespace {

// kKeyHashSeed / kPerRowTableOverhead / TotalValueOrder live in
// exec/agg_state.h: the distributed exchange shares them with this file so
// worker partials hash and tie-break exactly like local aggregation.

// Copy every string payload of `row` into `arena`. Output rows of a spilled
// partition reference strings in the partition's read-back arena, which dies
// when the partition finishes — rescue them into a query-lifetime arena.
void RescueRowStrings(Row* row, Arena* arena) {
  for (Value& v : *row) {
    if (v.type == ValueType::kString && !v.s.empty()) {
      uint8_t* copy = arena->AllocateCopy(v.s.data(), v.s.size());
      v.s = std::string_view(reinterpret_cast<const char*>(copy), v.s.size());
    }
  }
}

// Emit the spill counters on an operator node (only when it actually
// spilled, so unconstrained plans stay unchanged). Closes the ROADMAP item:
// EXPLAIN ANALYZE reports spilled bytes once operators spill. Also
// accumulates the query-level spill total the multi-tenant service exposes
// as the per-group quota-spill metric.
void ReportSpill(obs::OperatorProfiler& prof, const SpillStats& stats,
                 QueryContext& ctx) {
  ctx.spilled_bytes += stats.spilled_bytes;
  if (stats.spilled_bytes > 0) {
    prof.AddCounter("spilled_bytes",
                    static_cast<int64_t>(stats.spilled_bytes));
    prof.AddCounter("spill_partitions",
                    static_cast<int64_t>(stats.partitions));
    JSONTILES_COUNTER_ADD("exec.spill.bytes",
                          static_cast<int64_t>(stats.spilled_bytes));
    JSONTILES_COUNTER_ADD("exec.spill.partitions",
                          static_cast<int64_t>(stats.partitions));
  }
  if (stats.forced_inmem > 0) {
    prof.AddCounter("spill_forced_inmem",
                    static_cast<int64_t>(stats.forced_inmem));
  }
}

// Reports the query's arena growth across one operator as an `arena_bytes`
// counter (see QueryContext::arena_bytes()). Declare after the profiler so
// the counter lands before the profiler's destructor stamps the node.
class ArenaCounter {
 public:
  ArenaCounter(obs::OperatorProfiler& prof, QueryContext& ctx)
      : prof_(prof), ctx_(ctx), before_(prof.active() ? ctx.arena_bytes() : 0) {}
  ~ArenaCounter() {
    if (prof_.active()) {
      prof_.AddCounter("arena_bytes",
                       static_cast<int64_t>(ctx_.arena_bytes() - before_));
    }
  }

 private:
  obs::OperatorProfiler& prof_;
  QueryContext& ctx_;
  size_t before_;
};

// Infer the static type of every slot in `slots` from a full pass over the
// rows (an all-null slot stays kNull). Returns false — disabling compiled
// evaluation — when a slot is out of range or holds mixed non-null types
// (e.g. a SUM that came back Int for one group and Float for another).
bool InferSlotTypes(const RowSet& rows, const std::vector<int>& slots,
                    std::vector<ValueType>* types) {
  for (int s : slots) {
    if (s < 0 || static_cast<size_t>(s) >= types->size()) return false;
  }
  for (const Row& row : rows) {
    for (int s : slots) {
      const Value& v = row[s];
      if (v.is_null()) continue;
      ValueType& t = (*types)[s];
      if (t == ValueType::kNull) {
        t = v.type;
      } else if (t != v.type) {
        return false;
      }
    }
  }
  return true;
}

// Compiled batch evaluation of a fixed expression list over a RowSet.
// Construction infers slot types and compiles what it can; expressions that
// do not compile (or everything, when disabled) are interpreted per row by
// Get(). Copy instances per worker — LoadBatch/Get are not thread-safe.
class BatchedExprs {
 public:
  BatchedExprs(const RowSet& rows, std::vector<const Expr*> exprs, bool enable)
      : exprs_(std::move(exprs)) {
    if (!enable || rows.empty() || exprs_.empty()) return;
    const size_t num_slots = rows[0].size();
    slot_types_.assign(num_slots, ValueType::kNull);
    std::vector<int> all_slots;
    for (const Expr* e : exprs_) CollectSlotRefs(*e, &all_slots);
    if (!InferSlotTypes(rows, all_slots, &slot_types_)) return;
    programs_.resize(exprs_.size());
    compiled_.assign(exprs_.size(), 0);
    size_t num_compiled = 0;
    for (size_t i = 0; i < exprs_.size(); i++) {
      if (CompiledExpr::Compile(*exprs_[i], slot_types_, &programs_[i])) {
        compiled_[i] = 1;
        num_compiled++;
        for (int s : programs_[i].slots_used()) used_slots_.push_back(s);
      }
    }
    if (num_compiled == 0) return;
    std::sort(used_slots_.begin(), used_slots_.end());
    used_slots_.erase(std::unique(used_slots_.begin(), used_slots_.end()),
                      used_slots_.end());
    slot_vecs_.resize(num_slots);
    results_.resize(exprs_.size());
    enabled_ = true;
  }

  bool enabled() const { return enabled_; }

  /// Gather slots and run every compiled program over rows [begin, begin+n).
  void LoadBatch(const RowSet& rows, size_t begin, size_t n, Arena* arena) {
    sel_.SetAll(n);
    for (int s : used_slots_) {
      ColumnVector& vec = slot_vecs_[s];
      vec.Reset(slot_types_[s]);
      for (size_t k = 0; k < n; k++) vec.SetValue(k, rows[begin + k][s]);
    }
    for (size_t i = 0; i < exprs_.size(); i++) {
      if (compiled_[i]) {
        results_[i] = &programs_[i].Run(slot_vecs_.data(), sel_, arena);
      }
    }
  }

  /// Value of expression e for batch lane k (row = the matching input row).
  Value Get(size_t e, size_t k, const Row& row, Arena* arena) const {
    if (enabled_ && compiled_[e]) return results_[e]->GetValue(k);
    return EvalExpr(*exprs_[e], row.data(), arena);
  }

  /// Raw compiled result vector for expression e, or nullptr when e did not
  /// compile (callers must then go through Get). Valid until next LoadBatch.
  const ColumnVector* Result(size_t e) const {
    return enabled_ && compiled_[e] ? results_[e] : nullptr;
  }

 private:
  std::vector<const Expr*> exprs_;
  std::vector<CompiledExpr> programs_;
  std::vector<uint8_t> compiled_;
  std::vector<int> used_slots_;
  std::vector<ValueType> slot_types_;
  std::vector<ColumnVector> slot_vecs_;
  std::vector<const ColumnVector*> results_;
  SelectionVector sel_;
  bool enabled_ = false;
};

std::vector<const Expr*> RawExprs(const std::vector<ExprPtr>& exprs) {
  std::vector<const Expr*> out;
  out.reserve(exprs.size());
  for (const auto& e : exprs) out.push_back(e.get());
  return out;
}

}  // namespace

RowSet FilterExec(RowSet in, const ExprPtr& predicate, QueryContext& ctx) {
  if (predicate == nullptr) return in;
  JSONTILES_TRACE_SPAN("exec.filter");
  obs::OperatorProfiler prof(ctx.profile, "Filter");
  prof.set_rows_in(in.size());
  ArenaCounter arena_counter(prof, ctx);
  Arena* arena = ctx.arena(0);
  RowSet out;
  out.reserve(in.size());

  // Vectorized path: compile the predicate conjunct-by-conjunct against slot
  // types inferred from the rows, then filter batch-at-a-time with
  // selection-vector intersection (slots are gathered lazily per conjunct,
  // only for still-selected lanes).
  if (ctx.options().enable_vectorized && !in.empty()) {
    std::vector<ValueType> slot_types(in[0].size(), ValueType::kNull);
    std::vector<int> slots;
    CollectSlotRefs(*predicate, &slots);
    if (InferSlotTypes(in, slots, &slot_types)) {
      CompiledPredicate pred = CompiledPredicate::Compile(predicate, slot_types);
      if (pred.any_compiled()) {
        std::vector<ColumnVector> slot_vecs(in[0].size());
        std::vector<uint8_t> ready(in[0].size(), 0);
        SelectionVector sel;
        int64_t batches = 0;
        for (size_t b = 0; b < in.size(); b += kVectorSize) {
          const size_t n = std::min(kVectorSize, in.size() - b);
          batches++;
          sel.SetAll(n);
          std::fill(ready.begin(), ready.end(), 0);
          for (auto& cj : pred.conjuncts()) {
            for (int s : cj.slots) {
              if (ready[s]) continue;
              ready[s] = 1;
              ColumnVector& vec = slot_vecs[s];
              vec.Reset(slot_types[s]);
              for (size_t k = 0; k < sel.count; k++) {
                const uint16_t r = sel.idx[k];
                vec.SetValue(r, in[b + r][s]);
              }
            }
            IntersectSelection(cj.program.Run(slot_vecs.data(), sel, arena),
                               &sel);
            if (sel.empty()) break;
          }
          for (size_t k = 0; k < sel.count; k++) {
            Row& row = in[b + sel.idx[k]];
            bool keep_row = true;
            for (const auto& res : pred.residuals()) {
              Value keep = EvalExpr(*res, row.data(), arena);
              if (keep.is_null() || !keep.bool_value()) {
                keep_row = false;
                break;
              }
            }
            if (keep_row) out.push_back(std::move(row));
          }
        }
        prof.AddCounter("vec_batches", batches);
        JSONTILES_COUNTER_ADD("exec.vec.batches", batches);
        prof.set_rows_out(out.size());
        return out;
      }
    }
  }

  for (auto& row : in) {
    Value keep = EvalExpr(*predicate, row.data(), arena);
    if (!keep.is_null() && keep.bool_value()) out.push_back(std::move(row));
  }
  prof.set_rows_out(out.size());
  return out;
}

RowSet ProjectExec(const RowSet& in, const std::vector<ExprPtr>& exprs,
                   QueryContext& ctx) {
  JSONTILES_TRACE_SPAN("exec.project");
  obs::OperatorProfiler prof(ctx.profile, "Project",
                             std::to_string(exprs.size()) + " exprs");
  prof.set_rows_in(in.size());
  prof.set_rows_out(in.size());
  ArenaCounter arena_counter(prof, ctx);
  Arena* arena = ctx.arena(0);
  RowSet out;
  out.reserve(in.size());
  BatchedExprs batched(in, RawExprs(exprs), ctx.options().enable_vectorized);
  for (size_t b = 0; b < in.size(); b += kVectorSize) {
    const size_t n = std::min(kVectorSize, in.size() - b);
    if (batched.enabled()) batched.LoadBatch(in, b, n, arena);
    for (size_t k = 0; k < n; k++) {
      const Row& row = in[b + k];
      Row projected;
      projected.reserve(exprs.size());
      for (size_t e = 0; e < exprs.size(); e++) {
        projected.push_back(batched.Get(e, k, row, arena));
      }
      out.push_back(std::move(projected));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

namespace {

// Accumulator / AggGroup / AggGroupMap moved to exec/agg_state.h so the
// distributed exchange can build worker-side partials and merge them in the
// coordinator through the same order-independent state.

// One row into the group map. When `batched` is set, group keys and agg args
// come from the compiled batch results (`lane` = row's index in the current
// batch); otherwise they are interpreted per row. `agg_expr_idx[a]` maps agg
// a to its argument's index in the batched expression list (-1 = COUNT(*)).
// Returns the approximate bytes newly allocated (non-zero only when this row
// created a group) so callers can charge the memory budget.
size_t Accumulate(AggGroupMap& groups, const std::vector<ExprPtr>& group_by,
                  const std::vector<AggSpec>& aggs,
                  const std::vector<int>& agg_expr_idx, const Row& row,
                  Arena* arena, const BatchedExprs* batched, size_t lane) {
  uint64_t h = kKeyHashSeed;
  std::vector<Value> keys;
  keys.reserve(group_by.size());
  size_t key_bytes = 0;
  for (size_t g = 0; g < group_by.size(); g++) {
    Value v = batched != nullptr
                  ? batched->Get(g, lane, row, arena)
                  : EvalExpr(*group_by[g], row.data(), arena);
    h = HashCombine(h, v.Hash());
    if (v.type == ValueType::kString) key_bytes += v.s.size();
    keys.push_back(v);
  }
  auto& bucket = groups[h];
  AggGroup* group = nullptr;
  for (auto& g : bucket) {
    bool equal = true;
    for (size_t i = 0; i < keys.size() && equal; i++) {
      equal = g.keys[i].EqualsForGrouping(keys[i]);
    }
    if (equal) {
      group = &g;
      break;
    }
  }
  size_t new_bytes = 0;
  if (group == nullptr) {
    bucket.push_back(AggGroup{std::move(keys), std::vector<Accumulator>(aggs.size())});
    group = &bucket.back();
    new_bytes = sizeof(AggGroup) + aggs.size() * sizeof(Accumulator) +
                group_by.size() * sizeof(Value) + key_bytes +
                kPerRowTableOverhead;
  }
  for (size_t a = 0; a < aggs.size(); a++) {
    Value v = Value::Null();
    if (aggs[a].arg != nullptr) {
      v = batched != nullptr
              ? batched->Get(static_cast<size_t>(agg_expr_idx[a]), lane, row,
                             arena)
              : EvalExpr(*aggs[a].arg, row.data(), arena);
    }
    group->accs[a].AddValue(aggs[a].kind, v);
  }
  return new_bytes;
}

// In-memory aggregation over `in`. When `budgeted`, scratch memory (group
// table) is reserved against ctx.budget() as groups are created; a refused
// charge drops all partial state, sets *aborted and returns OK — the caller
// then takes the spill path. With `budgeted` false the table grows freely
// (the forced path at the spill depth cap).
Status AggregateInMemory(const RowSet& in, const std::vector<ExprPtr>& group_by,
                         const std::vector<AggSpec>& aggs, QueryContext& ctx,
                         bool budgeted, bool* aborted, RowSet* out) {
  *aborted = false;
  const size_t parallel_threshold = 16384;
  std::vector<AggGroupMap> partials;
  // Reservations outlive the group maps' useful life below; one per worker
  // (BudgetReservation is single-threaded, the budget under it is atomic).
  std::deque<BudgetReservation> reservations;

  // Batched expression list: group keys first, then aggregate arguments.
  std::vector<const Expr*> batch_exprs = RawExprs(group_by);
  std::vector<int> agg_expr_idx(aggs.size(), -1);
  for (size_t a = 0; a < aggs.size(); a++) {
    if (aggs[a].arg != nullptr) {
      agg_expr_idx[a] = static_cast<int>(batch_exprs.size());
      batch_exprs.push_back(aggs[a].arg.get());
    }
  }
  // Type inference runs once here; workers run on private copies.
  BatchedExprs master(in, std::move(batch_exprs),
                      ctx.options().enable_vectorized);

  std::atomic<bool> over_budget{false};
  auto accumulate_range = [&](AggGroupMap& groups, size_t begin, size_t end,
                              Arena* arena, BatchedExprs* batched,
                              BudgetReservation* res) {
    JSONTILES_TRACE_SPAN("exec.agg.partial");
    size_t pending = 0;
    for (size_t b = begin; b < end; b += kVectorSize) {
      if (over_budget.load(std::memory_order_relaxed)) return;
      const size_t n = std::min(kVectorSize, end - b);
      const BatchedExprs* cur = nullptr;
      if (batched->enabled()) {
        batched->LoadBatch(in, b, n, arena);
        cur = batched;
      }
      for (size_t k = 0; k < n; k++) {
        pending += Accumulate(groups, group_by, aggs, agg_expr_idx, in[b + k],
                              arena, cur, k);
      }
      if (res != nullptr && pending > 0) {
        if (!res->Grow(pending)) {
          over_budget.store(true, std::memory_order_relaxed);
          return;
        }
        pending = 0;
      }
    }
  };

  if (ctx.pool() != nullptr && in.size() >= parallel_threshold) {
    size_t workers = ctx.num_workers();
    partials.resize(workers);
    std::vector<BatchedExprs> worker_batched(workers, master);
    for (size_t w = 0; w < workers; w++) {
      reservations.emplace_back(budgeted ? ctx.budget() : nullptr);
    }
    size_t chunk = (in.size() + workers - 1) / workers;
    JSONTILES_RETURN_NOT_OK(ctx.pool()->ParallelForStatus(
        workers,
        [&](size_t w, size_t) -> Status {
          JSONTILES_FAILPOINT_RETURN("exec.agg.worker");
          if (ctx.cancelled()) return Status::OK();
          size_t begin = w * chunk;
          size_t end = std::min(begin + chunk, in.size());
          if (begin < end) {
            accumulate_range(partials[w], begin, end, ctx.arena(w),
                             &worker_batched[w], &reservations[w]);
          }
          return Status::OK();
        },
        1));
  } else {
    partials.resize(1);
    reservations.emplace_back(budgeted ? ctx.budget() : nullptr);
    accumulate_range(partials[0], 0, in.size(), ctx.arena(0), &master,
                     &reservations[0]);
  }
  if (over_budget.load(std::memory_order_relaxed)) {
    *aborted = true;
    return Status::OK();
  }

  // Merge partials into the first map. Unique groups across partials were
  // all charged above, so the merged map never exceeds the reservation.
  AggGroupMap& merged = partials[0];
  {
    JSONTILES_TRACE_SPAN("exec.agg.merge");
    for (size_t p = 1; p < partials.size(); p++) {
      for (auto& [h, bucket] : partials[p]) {
        auto& dst_bucket = merged[h];
        for (auto& g : bucket) {
          AggGroup* target = nullptr;
          for (auto& existing : dst_bucket) {
            bool equal = true;
            for (size_t i = 0; i < g.keys.size() && equal; i++) {
              equal = existing.keys[i].EqualsForGrouping(g.keys[i]);
            }
            if (equal) {
              target = &existing;
              break;
            }
          }
          if (target == nullptr) {
            dst_bucket.push_back(std::move(g));
          } else {
            for (size_t a = 0; a < aggs.size(); a++) {
              target->accs[a].Merge(aggs[a].kind, g.accs[a]);
            }
          }
        }
      }
    }
  }

  for (auto& [h, bucket] : merged) {
    (void)h;
    for (auto& g : bucket) {
      Row row;
      row.reserve(group_by.size() + aggs.size());
      for (auto& k : g.keys) row.push_back(k);
      for (size_t a = 0; a < aggs.size(); a++) {
        row.push_back(g.accs[a].Finalize(aggs[a].kind));
      }
      out->push_back(std::move(row));
    }
  }
  return Status::OK();
}

// Aggregate one spill partition (taken by value so its disk space frees as
// soon as it is consumed). When the partition fits in the budget — or the
// recursion hit the depth cap, meaning its keys are unsplittable — it is
// materialized and aggregated in memory; otherwise it repartitions onto the
// next range of stored hash bits.
Status AggSpillPartition(SpillFile file, const std::vector<ExprPtr>& group_by,
                         const std::vector<AggSpec>& aggs, QueryContext& ctx,
                         size_t depth, SpillStats* stats, RowSet* out) {
  if (file.rows() == 0) return Status::OK();
  // Read-back rows + group table (at worst one group per row); 3x raw covers
  // keys and accumulators.
  const size_t est =
      static_cast<size_t>(file.raw_bytes()) * 3 +
      static_cast<size_t>(file.rows()) * kPerRowTableOverhead;
  BudgetReservation res(ctx.budget());
  if (depth >= kMaxSpillDepth || res.Grow(est)) {
    if (depth >= kMaxSpillDepth && stats != nullptr) stats->forced_inmem++;
    Arena part_arena;
    RowSet rows;
    JSONTILES_RETURN_NOT_OK(file.ReadAll(&part_arena, &rows));
    file = SpillFile({}, nullptr);  // release the disk space early
    RowSet local;
    bool aborted = false;
    JSONTILES_RETURN_NOT_OK(AggregateInMemory(rows, group_by, aggs, ctx,
                                              /*budgeted=*/false, &aborted,
                                              &local));
    for (Row& row : local) {
      RescueRowStrings(&row, ctx.arena(0));
      out->push_back(std::move(row));
    }
    return Status::OK();
  }
  std::vector<SpillFile> sub;
  for (size_t p = 0; p < kSpillFanout; p++) {
    sub.emplace_back(ctx.options().spill_dir, stats, ctx.options().spill_disk);
  }
  JSONTILES_RETURN_NOT_OK(file.ForEach(nullptr, [&](uint64_t h, Row&& row) {
    if (ctx.cancelled()) return Status::Cancelled("query cancelled");
    return sub[SpillPartitionOf(h, depth)].Add(h, row);
  }));
  file = SpillFile({}, nullptr);
  for (size_t p = 0; p < kSpillFanout; p++) {
    JSONTILES_RETURN_NOT_OK(sub[p].Finish());
  }
  for (size_t p = 0; p < kSpillFanout; p++) {
    if (ctx.cancelled()) return Status::Cancelled("query cancelled");
    JSONTILES_RETURN_NOT_OK(AggSpillPartition(std::move(sub[p]), group_by,
                                              aggs, ctx, depth + 1, stats,
                                              out));
  }
  return Status::OK();
}

// Grace aggregation: partition the input by group-key hash into disk runs,
// then aggregate each partition independently (a group never crosses
// partitions, so partition outputs concatenate).
Status AggSpill(const RowSet& in, const std::vector<ExprPtr>& group_by,
                const std::vector<AggSpec>& aggs, QueryContext& ctx,
                SpillStats* stats, RowSet* out) {
  JSONTILES_TRACE_SPAN("exec.agg.spill");
  std::vector<SpillFile> parts;
  for (size_t p = 0; p < kSpillFanout; p++) {
    parts.emplace_back(ctx.options().spill_dir, stats,
                       ctx.options().spill_disk);
  }
  Arena scratch;  // derived key strings live only until the row is hashed
  size_t since_reset = 0;
  for (const Row& row : in) {
    uint64_t h = kKeyHashSeed;
    for (const auto& g : group_by) {
      h = HashCombine(h, EvalExpr(*g, row.data(), &scratch).Hash());
    }
    JSONTILES_RETURN_NOT_OK(parts[SpillPartitionOf(h, 0)].Add(h, row));
    if (++since_reset == 4096) {
      if (ctx.cancelled()) return Status::Cancelled("query cancelled");
      scratch.Reset();
      since_reset = 0;
    }
  }
  for (size_t p = 0; p < kSpillFanout; p++) {
    JSONTILES_RETURN_NOT_OK(parts[p].Finish());
  }
  for (size_t p = 0; p < kSpillFanout; p++) {
    if (ctx.cancelled()) return Status::Cancelled("query cancelled");
    JSONTILES_RETURN_NOT_OK(AggSpillPartition(std::move(parts[p]), group_by,
                                              aggs, ctx, 1, stats, out));
  }
  return Status::OK();
}

}  // namespace

RowSet AggregateExec(const RowSet& in, const std::vector<ExprPtr>& group_by,
                     const std::vector<AggSpec>& aggs, QueryContext& ctx) {
  JSONTILES_TRACE_SPAN("exec.aggregate");
  obs::OperatorProfiler prof(ctx.profile, "Aggregate",
                             std::to_string(group_by.size()) + " keys, " +
                                 std::to_string(aggs.size()) + " aggs");
  prof.set_rows_in(in.size());
  ArenaCounter arena_counter(prof, ctx);
  if (ctx.cancelled()) return {};

  SpillStats stats;
  RowSet out;
  bool aborted = false;
  // A global aggregate is a single group — nothing to partition by, and its
  // state is tiny — so only grouped aggregation is budget-governed.
  const bool budgeted = !group_by.empty();
  Status st =
      AggregateInMemory(in, group_by, aggs, ctx, budgeted, &aborted, &out);
  if (st.ok() && aborted) {
    st = AggSpill(in, group_by, aggs, ctx, &stats, &out);
  }
  if (!st.ok()) {
    ctx.Cancel(std::move(st));
    return {};
  }

  // Global aggregate of empty input still yields one row.
  if (group_by.empty() && out.empty()) {
    Row row;
    std::vector<Accumulator> accs(aggs.size());
    for (size_t a = 0; a < aggs.size(); a++) {
      row.push_back(accs[a].Finalize(aggs[a].kind));
    }
    out.push_back(std::move(row));
  }
  ReportSpill(prof, stats, ctx);
  prof.set_rows_out(out.size());
  return out;
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

namespace {

struct JoinSpec {
  const std::vector<ExprPtr>& build_keys;
  const std::vector<ExprPtr>& probe_keys;
  JoinType type;
  const ExprPtr& residual;
  // Width of the full build side. Passed down instead of derived per
  // partition: a spill partition with an empty build side must still pad
  // left-join outputs to the real width.
  size_t build_width;
};

// End of a hash chain (row indices are uint32_t).
constexpr uint32_t kNoRow = UINT32_MAX;

// Join keys of a run of rows: `width` Values per row in one row-major array,
// the kKeyHashSeed-chained hash of each row, and whether any key of the row
// is null (SQL equality: such a row never matches).
struct JoinKeys {
  JoinKeys(size_t width, size_t rows)
      : width(width), values(rows * width), hash(rows), has_null(rows) {}

  const Value* row(size_t r) const { return values.data() + r * width; }

  size_t width;
  std::vector<Value> values;
  std::vector<uint64_t> hash;
  std::vector<uint8_t> has_null;
};

bool KeyRowsEqual(const Value* a, const Value* b, size_t width) {
  for (size_t i = 0; i < width; i++) {
    if (!a[i].EqualsForGrouping(b[i])) return false;
  }
  return true;
}

std::vector<int> SlotRefs(const std::vector<ExprPtr>& exprs) {
  std::vector<int> slots;
  for (const ExprPtr& e : exprs) {
    slots.push_back(e->kind == ExprKind::kSlotRef ? e->slot : -1);
  }
  return slots;
}

// The key expressions of one join input. A key that is a plain slot
// reference (the planner's usual key) is read straight from the row; any
// other key is evaluated batch-at-a-time through the compiled engine, its
// integer-typed lanes hashed with the SIMD batch kernels. Hashes are
// bit-identical to folding Value::Hash() per key — int/bool/timestamp lanes
// hash as HashInt of the payload and null lanes as Value::Null().Hash() — so
// both join inputs and the spill router agree. Copy per worker, like
// BatchedExprs.
class JoinKeyEvaluator {
 public:
  JoinKeyEvaluator(const RowSet& rows, const std::vector<ExprPtr>& exprs,
                   bool vectorized)
      : slots_(SlotRefs(exprs)),
        batched_(rows, RawExprs(exprs),
                 vectorized &&
                     std::count(slots_.begin(), slots_.end(), -1) > 0) {}

  /// Evaluates rows [base, base + n) (n <= kVectorSize) into key rows
  /// [dst, dst + n). Returns the bytes of string keys.
  size_t Eval(const RowSet& rows, size_t base, size_t n, Arena* arena,
              JoinKeys* keys, size_t dst) {
    const size_t width = slots_.size();
    size_t string_bytes = 0;
    uint64_t hacc[kVectorSize];
    uint64_t hkey[kVectorSize];
    if (batched_.enabled()) batched_.LoadBatch(rows, base, n, arena);
    std::fill(hacc, hacc + n, kKeyHashSeed);
    std::fill_n(keys->has_null.begin() + dst, n, 0);
    for (size_t j = 0; j < width; j++) {
      const int slot = slots_[j];
      const ColumnVector* col = slot < 0 ? batched_.Result(j) : nullptr;
      const bool batch_hashed =
          col != nullptr && simd::UseSimd() &&
          (col->type() == ValueType::kInt || col->type() == ValueType::kBool ||
           col->type() == ValueType::kTimestamp);
      if (batch_hashed) {
        simd::HashI64Batch(col->i64(), col->nulls(), Value::Null().Hash(),
                           hkey, n);
        simd::HashCombineBatch(hacc, hkey, n);
      }
      for (size_t k = 0; k < n; k++) {
        const Row& row = rows[base + k];
        const Value v = slot >= 0 ? row[slot] : batched_.Get(j, k, row, arena);
        keys->has_null[dst + k] |= static_cast<uint8_t>(v.is_null());
        if (!batch_hashed) hacc[k] = HashCombine(hacc[k], v.Hash());
        if (v.type == ValueType::kString) string_bytes += v.s.size();
        keys->values[(dst + k) * width + j] = v;
      }
    }
    std::copy(hacc, hacc + n, keys->hash.begin() + dst);
    return string_bytes;
  }

 private:
  std::vector<int> slots_;
  BatchedExprs batched_;
};

// One hash join entirely in memory. Inner joins hash the input with fewer
// rows (HashJoinBuildsOnProbe); residual and output rows keep the caller's
// [probe..., build...] layout either way. When `res` is non-null it is grown
// for the table as it is built; on a refused charge *aborted is set and the
// function returns OK — the caller then takes the spill path. With a null
// `res` nothing is charged (the forced path at the spill depth cap).
Status InMemoryJoin(const RowSet& build, const RowSet& probe,
                    const JoinSpec& spec, QueryContext& ctx,
                    BudgetReservation* res, bool* aborted, RowSet* out) {
  *aborted = false;
  const bool swap =
      HashJoinBuildsOnProbe(spec.type, build.size(), probe.size());
  const RowSet& hashed = swap ? probe : build;
  const RowSet& probed = swap ? build : probe;
  JSONTILES_CHECK(hashed.size() < kNoRow);
  const size_t width = spec.build_keys.size();
  const bool vectorized = ctx.options().enable_vectorized;

  // A table entry and the key Values are charged for the rows of both
  // inputs, whichever one is hashed, so whether a memory limit spills does
  // not hinge on the build-side choice.
  if (res != nullptr &&
      !res->Grow((build.size() + probe.size()) *
                 (kPerRowTableOverhead + width * sizeof(Value)))) {
    *aborted = true;
    return Status::OK();
  }
  // Flat chained table: head[] holds the first row of each power-of-two
  // bucket, next[] the following row of the same bucket.
  JoinKeys hkeys(width, hashed.size());
  std::vector<uint32_t> head(
      std::bit_ceil(std::max<size_t>(2 * hashed.size(), 1)), kNoRow);
  std::vector<uint32_t> next(hashed.size());
  const uint64_t mask = head.size() - 1;
  {
    JSONTILES_TRACE_SPAN("exec.join.build");
    JoinKeyEvaluator eval(hashed, swap ? spec.probe_keys : spec.build_keys,
                          vectorized);
    for (size_t base = 0; base < hashed.size(); base += kVectorSize) {
      const size_t n = std::min(kVectorSize, hashed.size() - base);
      const size_t string_bytes =
          eval.Eval(hashed, base, n, ctx.arena(0), &hkeys, base);
      if (res != nullptr && !res->Grow(string_bytes)) {
        *aborted = true;
        return Status::OK();
      }
    }
    // Inserting in reverse leaves every chain in ascending row order, so
    // each probe row meets its matches in input order. Null-key rows never
    // match and stay out of the table.
    for (size_t r = hashed.size(); r-- > 0;) {
      if (hkeys.has_null[r]) continue;
      uint32_t& first = head[hkeys.hash[r] & mask];
      next[r] = first;
      first = static_cast<uint32_t>(r);
    }
  }

  // Probe phase (parallel chunks); each worker evaluates its probe keys a
  // batch at a time on a private copy of the evaluator.
  const JoinType type = spec.type;
  JoinKeyEvaluator probe_master(
      probed, swap ? spec.build_keys : spec.probe_keys, vectorized);
  auto probe_chunk = [&](size_t begin, size_t end, Arena* arena, RowSet* out,
                         JoinKeyEvaluator* eval) {
    JSONTILES_TRACE_SPAN("exec.join.probe");
    JoinKeys pkeys(width, kVectorSize);
    std::vector<Value> combined;
    for (size_t base = begin; base < end; base += kVectorSize) {
      const size_t n = std::min(kVectorSize, end - base);
      eval->Eval(probed, base, n, arena, &pkeys, 0);
      for (size_t k = 0; k < n; k++) {
        const Row& prow = probed[base + k];
        bool matched = false;
        if (!pkeys.has_null[k]) {
          const uint64_t h = pkeys.hash[k];
          for (uint32_t b = head[h & mask]; b != kNoRow; b = next[b]) {
            if (hkeys.hash[b] != h ||
                !KeyRowsEqual(hkeys.row(b), pkeys.row(k), width)) {
              continue;
            }
            const Row& left = swap ? hashed[b] : prow;
            const Row& right = swap ? prow : hashed[b];
            if (spec.residual != nullptr) {
              combined.assign(left.begin(), left.end());
              combined.insert(combined.end(), right.begin(), right.end());
              Value keep = EvalExpr(*spec.residual, combined.data(), arena);
              if (keep.is_null() || !keep.bool_value()) continue;
            }
            matched = true;
            if (type == JoinType::kSemi || type == JoinType::kAnti) {
              break;  // semi/anti need only existence
            }
            Row out_row;
            out_row.reserve(left.size() + right.size());
            out_row.insert(out_row.end(), left.begin(), left.end());
            out_row.insert(out_row.end(), right.begin(), right.end());
            out->push_back(std::move(out_row));
          }
        }
        switch (type) {
          case JoinType::kInner:
            break;
          case JoinType::kLeft:
            if (!matched) {
              Row out_row;
              out_row.reserve(prow.size() + spec.build_width);
              out_row.insert(out_row.end(), prow.begin(), prow.end());
              out_row.resize(prow.size() + spec.build_width, Value::Null());
              out->push_back(std::move(out_row));
            }
            break;
          case JoinType::kSemi:
            if (matched) out->push_back(prow);
            break;
          case JoinType::kAnti:
            if (!matched) out->push_back(prow);
            break;
        }
      }
    }
  };

  const size_t parallel_threshold = 16384;
  if (ctx.pool() != nullptr && probed.size() >= parallel_threshold) {
    size_t workers = ctx.num_workers();
    std::vector<RowSet> partials(workers);
    std::vector<JoinKeyEvaluator> worker_eval(workers, probe_master);
    size_t chunk = (probed.size() + workers - 1) / workers;
    JSONTILES_RETURN_NOT_OK(ctx.pool()->ParallelForStatus(
        workers,
        [&](size_t w, size_t) -> Status {
          JSONTILES_FAILPOINT_RETURN("exec.join.probe.worker");
          if (ctx.cancelled()) return Status::OK();
          size_t begin = w * chunk;
          size_t end = std::min(begin + chunk, probed.size());
          if (begin < end) {
            probe_chunk(begin, end, ctx.arena(w), &partials[w],
                        &worker_eval[w]);
          }
          return Status::OK();
        },
        1));
    size_t total = 0;
    for (const auto& p : partials) total += p.size();
    out->reserve(out->size() + total);
    for (auto& p : partials) {
      for (auto& row : p) out->push_back(std::move(row));
    }
    return Status::OK();
  }
  probe_chunk(0, probed.size(), ctx.arena(0), out, &probe_master);
  return Status::OK();
}

// Join one spill partition pair (files taken by value so their disk space
// frees as soon as they are consumed). Fits in budget or depth-capped —
// materialize and join in memory; otherwise repartition both sides onto the
// next range of stored hash bits.
Status JoinSpillPartition(SpillFile bfile, SpillFile pfile,
                          const JoinSpec& spec, QueryContext& ctx,
                          size_t depth, SpillStats* stats, RowSet* out) {
  if (pfile.rows() == 0) return Status::OK();  // all join kinds emit per probe row
  const size_t est =
      static_cast<size_t>(bfile.raw_bytes()) * 2 +
      static_cast<size_t>(pfile.raw_bytes()) +
      static_cast<size_t>(bfile.rows() + pfile.rows()) * kPerRowTableOverhead;
  BudgetReservation res(ctx.budget());
  if (depth >= kMaxSpillDepth || res.Grow(est)) {
    if (depth >= kMaxSpillDepth && stats != nullptr) stats->forced_inmem++;
    Arena part_arena;
    RowSet bp, pp;
    JSONTILES_RETURN_NOT_OK(bfile.ReadAll(&part_arena, &bp));
    JSONTILES_RETURN_NOT_OK(pfile.ReadAll(&part_arena, &pp));
    bfile = SpillFile({}, nullptr);
    pfile = SpillFile({}, nullptr);
    RowSet local;
    bool aborted = false;
    JSONTILES_RETURN_NOT_OK(
        InMemoryJoin(bp, pp, spec, ctx, nullptr, &aborted, &local));
    for (Row& row : local) {
      RescueRowStrings(&row, ctx.arena(0));
      out->push_back(std::move(row));
    }
    return Status::OK();
  }
  std::vector<SpillFile> bsub, psub;
  for (size_t p = 0; p < kSpillFanout; p++) {
    bsub.emplace_back(ctx.options().spill_dir, stats, ctx.options().spill_disk);
    psub.emplace_back(ctx.options().spill_dir, stats, ctx.options().spill_disk);
  }
  auto reroute = [&](SpillFile* src, std::vector<SpillFile>& dst) {
    return src->ForEach(nullptr, [&](uint64_t h, Row&& row) {
      if (ctx.cancelled()) return Status::Cancelled("query cancelled");
      return dst[SpillPartitionOf(h, depth)].Add(h, row);
    });
  };
  JSONTILES_RETURN_NOT_OK(reroute(&bfile, bsub));
  JSONTILES_RETURN_NOT_OK(reroute(&pfile, psub));
  bfile = SpillFile({}, nullptr);
  pfile = SpillFile({}, nullptr);
  for (size_t p = 0; p < kSpillFanout; p++) {
    JSONTILES_RETURN_NOT_OK(bsub[p].Finish());
    JSONTILES_RETURN_NOT_OK(psub[p].Finish());
  }
  for (size_t p = 0; p < kSpillFanout; p++) {
    if (ctx.cancelled()) return Status::Cancelled("query cancelled");
    JSONTILES_RETURN_NOT_OK(JoinSpillPartition(std::move(bsub[p]),
                                               std::move(psub[p]), spec, ctx,
                                               depth + 1, stats, out));
  }
  return Status::OK();
}

// Grace hash join: try in memory under the budget; on refusal partition both
// sides by key hash into disk runs and join partition pairs independently.
// The partition of a row is a pure function of its key hash, so matching
// build/probe rows always land in the same pair and the result multiset is
// identical to the in-memory join (output order differs — grouped by
// partition).
Status JoinImpl(const RowSet& build, const RowSet& probe, const JoinSpec& spec,
                QueryContext& ctx, SpillStats* stats, RowSet* out) {
  {
    BudgetReservation res(ctx.budget());
    bool aborted = false;
    JSONTILES_RETURN_NOT_OK(
        InMemoryJoin(build, probe, spec, ctx, &res, &aborted, out));
    if (!aborted) return Status::OK();
  }  // the partial reservation is released before spilling starts
  JSONTILES_TRACE_SPAN("exec.join.spill");
  std::vector<SpillFile> bparts, pparts;
  for (size_t p = 0; p < kSpillFanout; p++) {
    bparts.emplace_back(ctx.options().spill_dir, stats,
                        ctx.options().spill_disk);
    pparts.emplace_back(ctx.options().spill_dir, stats,
                        ctx.options().spill_disk);
  }
  Arena scratch;  // derived key strings live only until the row is hashed
  auto partition_side = [&](const RowSet& rows,
                            const std::vector<ExprPtr>& keys,
                            std::vector<SpillFile>& parts) -> Status {
    size_t since_reset = 0;
    for (const Row& row : rows) {
      uint64_t h = kKeyHashSeed;
      for (const auto& k : keys) {
        h = HashCombine(h, EvalExpr(*k, row.data(), &scratch).Hash());
      }
      JSONTILES_RETURN_NOT_OK(parts[SpillPartitionOf(h, 0)].Add(h, row));
      if (++since_reset == 4096) {
        if (ctx.cancelled()) return Status::Cancelled("query cancelled");
        scratch.Reset();
        since_reset = 0;
      }
    }
    return Status::OK();
  };
  JSONTILES_RETURN_NOT_OK(partition_side(build, spec.build_keys, bparts));
  JSONTILES_RETURN_NOT_OK(partition_side(probe, spec.probe_keys, pparts));
  for (size_t p = 0; p < kSpillFanout; p++) {
    JSONTILES_RETURN_NOT_OK(bparts[p].Finish());
    JSONTILES_RETURN_NOT_OK(pparts[p].Finish());
  }
  for (size_t p = 0; p < kSpillFanout; p++) {
    if (ctx.cancelled()) return Status::Cancelled("query cancelled");
    JSONTILES_RETURN_NOT_OK(JoinSpillPartition(std::move(bparts[p]),
                                               std::move(pparts[p]), spec,
                                               ctx, 1, stats, out));
  }
  return Status::OK();
}

}  // namespace

bool HashJoinBuildsOnProbe(JoinType type, size_t build_rows,
                           size_t probe_rows) {
  return type == JoinType::kInner && probe_rows < build_rows;
}

RowSet HashJoinExec(const RowSet& build, const RowSet& probe,
                    const std::vector<ExprPtr>& build_keys,
                    const std::vector<ExprPtr>& probe_keys, JoinType type,
                    const ExprPtr& residual, QueryContext& ctx) {
  JSONTILES_CHECK(build_keys.size() == probe_keys.size());
  JSONTILES_TRACE_SPAN("exec.hash_join");
  const char* join_name = type == JoinType::kInner  ? "inner"
                          : type == JoinType::kLeft ? "left"
                          : type == JoinType::kSemi ? "semi"
                                                    : "anti";
  obs::OperatorProfiler prof(ctx.profile, "HashJoin", join_name);
  prof.set_rows_in(build.size() + probe.size());
  // The side actually hashed (a spill partition decides again on its own
  // row counts).
  const bool swap = HashJoinBuildsOnProbe(type, build.size(), probe.size());
  prof.AddCounter("build_rows",
                  static_cast<int64_t>(swap ? probe.size() : build.size()));
  prof.AddCounter("probe_rows",
                  static_cast<int64_t>(swap ? build.size() : probe.size()));
  ArenaCounter arena_counter(prof, ctx);
  if (ctx.cancelled()) return {};

  SpillStats stats;
  JoinSpec spec{build_keys, probe_keys, type, residual,
                build.empty() ? 0 : build[0].size()};
  RowSet out;
  Status st = JoinImpl(build, probe, spec, ctx, &stats, &out);
  if (!st.ok()) {
    ctx.Cancel(std::move(st));
    return {};
  }
  ReportSpill(prof, stats, ctx);
  prof.set_rows_out(out.size());
  return out;
}

RowSet SortExec(RowSet in, const std::vector<SortKey>& keys, QueryContext& ctx) {
  JSONTILES_TRACE_SPAN("exec.sort");
  obs::OperatorProfiler prof(ctx.profile, "Sort",
                             std::to_string(keys.size()) + " keys");
  prof.set_rows_in(in.size());
  prof.set_rows_out(in.size());
  ArenaCounter arena_counter(prof, ctx);
  Arena* arena = ctx.arena(0);
  std::stable_sort(in.begin(), in.end(), [&](const Row& a, const Row& b) {
    for (const auto& key : keys) {
      Value va = EvalExpr(*key.expr, a.data(), arena);
      Value vb = EvalExpr(*key.expr, b.data(), arena);
      int cmp;
      if (va.is_null() || vb.is_null()) {
        // PostgreSQL default: nulls sort as the largest value (last when
        // ascending, first when descending).
        cmp = va.is_null() == vb.is_null() ? 0 : va.is_null() ? 1 : -1;
      } else {
        cmp = va.Compare(vb);
      }
      if (cmp != 0) return key.descending ? cmp > 0 : cmp < 0;
    }
    // Deterministic full-row tie-break: input order varies across
    // shard/thread configurations, so ties on every sort key must resolve
    // by row content for ORDER BY ... LIMIT cuts to be reproducible.
    for (size_t i = 0; i < a.size() && i < b.size(); i++) {
      int cmp = TotalValueOrder(a[i], b[i]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  return in;
}

RowSet LimitExec(RowSet in, size_t limit) {
  if (in.size() > limit) in.resize(limit);
  return in;
}

RowSet LimitExec(RowSet in, size_t limit, QueryContext& ctx) {
  obs::OperatorProfiler prof(ctx.profile, "Limit", std::to_string(limit));
  prof.set_rows_in(in.size());
  if (in.size() > limit) in.resize(limit);
  prof.set_rows_out(in.size());
  return in;
}

}  // namespace jsontiles::exec
