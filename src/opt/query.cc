#include "opt/query.h"

#include <algorithm>
#include <unordered_map>

#include "exec/exchange.h"
#include "obs/plan_profile.h"
#include "opt/cardinality.h"
#include "opt/join_order.h"
#include "tiles/keypath.h"
#include "util/logging.h"

namespace jsontiles::opt {

using exec::AggSpec;
using exec::Expr;
using exec::ExprPtr;
using exec::RowSet;
using exec::Value;

QueryBlock& QueryBlock::AddTable(TableRef table) {
  tables_.push_back(std::move(table));
  return *this;
}

QueryBlock& QueryBlock::AddJoin(ExprPtr left, ExprPtr right, ExprPtr residual) {
  joins_.push_back(JoinEdge{std::move(left), std::move(right), std::move(residual)});
  return *this;
}

QueryBlock& QueryBlock::Where(ExprPtr predicate) {
  where_ = std::move(predicate);
  return *this;
}

QueryBlock& QueryBlock::GroupBy(std::vector<ExprPtr> keys) {
  group_by_ = std::move(keys);
  return *this;
}

QueryBlock& QueryBlock::Aggregate(AggSpec agg) {
  aggs_.push_back(std::move(agg));
  return *this;
}

QueryBlock& QueryBlock::Having(ExprPtr predicate) {
  having_ = std::move(predicate);
  return *this;
}

QueryBlock& QueryBlock::Select(std::vector<ExprPtr> projections) {
  projections_ = std::move(projections);
  return *this;
}

QueryBlock& QueryBlock::OrderBy(ExprPtr key, bool descending) {
  order_by_.push_back(exec::SortKey{std::move(key), descending});
  return *this;
}

QueryBlock& QueryBlock::Limit(size_t n) {
  limit_ = n;
  has_limit_ = true;
  return *this;
}

namespace {

// The table alias an expression's accesses belong to (checked single-table).
std::string OwningTable(const ExprPtr& e) {
  std::vector<ExprPtr> accesses;
  exec::CollectAccesses(e, &accesses);
  JSONTILES_CHECK(!accesses.empty());
  for (const auto& a : accesses) {
    JSONTILES_CHECK(a->table == accesses[0]->table);
  }
  return accesses[0]->table;
}

// Pseudo-scan of a materialized row set: output = the accesses, cast to the
// requested types; filter applied.
RowSet ScanRowset(const TableRef& table, const std::vector<ExprPtr>& accesses,
                  const ExprPtr& filter, exec::QueryContext& ctx) {
  obs::OperatorProfiler prof(ctx.profile, "ScanRows", table.alias);
  prof.set_rows_in(table.rowset->size());
  Arena* arena = ctx.arena(0);
  std::vector<int> column_of(accesses.size(), -1);
  for (size_t i = 0; i < accesses.size(); i++) {
    std::string name = tiles::PathToDisplayString(accesses[i]->path);
    for (size_t c = 0; c < table.rowset_columns.size(); c++) {
      if (table.rowset_columns[c] == name) {
        column_of[i] = static_cast<int>(c);
        break;
      }
    }
    JSONTILES_CHECK(column_of[i] >= 0);
  }
  RowSet out;
  out.reserve(table.rowset->size());
  std::vector<Value> slots(accesses.size());
  for (const auto& row : *table.rowset) {
    for (size_t i = 0; i < accesses.size(); i++) {
      const Value& v = row[static_cast<size_t>(column_of[i])];
      slots[i] = v.type == accesses[i]->access_type
                     ? v
                     : exec::CastValue(v, accesses[i]->access_type, arena);
    }
    if (filter != nullptr) {
      Value keep = exec::EvalExpr(*filter, slots.data(), arena);
      if (keep.is_null() || !keep.bool_value()) continue;
    }
    out.push_back(slots);
  }
  prof.set_rows_out(out.size());
  return out;
}

}  // namespace

/// Everything the planning prefix produces; scoped to one Execute/Explain.
struct QueryBlock::PlanState {
  std::unordered_map<std::string, size_t> table_index;
  /// One slot per distinct access per table (§4.2 push-down).
  std::vector<std::vector<ExprPtr>> table_accesses;
  std::vector<std::vector<std::string>> null_rejecting;
  std::vector<std::vector<exec::RangePredicate>> range_predicates;
  /// Left-deep join sequence over table indices.
  std::vector<int> sequence;
  /// Estimated scan output cardinality per table (declaration order).
  std::vector<double> cards;
  /// C_out of the chosen sequence; 0 unless the DP search ran.
  double estimated_cost = 0;

  int LocalSlot(size_t table, const Expr& access) const {
    const auto& list = table_accesses[table];
    for (size_t i = 0; i < list.size(); i++) {
      if (exec::SameAccess(*list[i], access)) return static_cast<int>(i);
    }
    return -1;
  }
};

void QueryBlock::BuildPlan(const PlannerOptions& options, bool estimate_all,
                           PlanState* state) {
  const size_t num_tables = tables_.size();
  JSONTILES_CHECK(num_tables > 0);

  auto& table_index = state->table_index;
  for (size_t i = 0; i < num_tables; i++) table_index[tables_[i].alias] = i;

  // ---- Access push-down (§4.2): one slot per distinct access per table. ---
  auto& table_accesses = state->table_accesses;
  table_accesses.assign(num_tables, {});
  auto register_accesses = [&](const ExprPtr& e) {
    if (e == nullptr) return;
    std::vector<ExprPtr> found;
    exec::CollectAccesses(e, &found);
    for (const auto& a : found) {
      auto it = table_index.find(a->table);
      JSONTILES_CHECK(it != table_index.end());
      auto& list = table_accesses[it->second];
      bool exists = false;
      for (const auto& existing : list) {
        if (exec::SameAccess(*existing, *a)) {
          exists = true;
          break;
        }
      }
      if (!exists) list.push_back(a);
    }
  };
  for (const auto& t : tables_) register_accesses(t.filter);
  for (const auto& j : joins_) {
    register_accesses(j.left);
    register_accesses(j.right);
    register_accesses(j.residual);
  }
  register_accesses(where_);
  for (const auto& e : group_by_) register_accesses(e);
  for (const auto& a : aggs_) register_accesses(a.arg);
  for (const auto& e : projections_) register_accesses(e);

  // ---- Null-rejecting paths per table (filters + inner-join keys, §4.8)
  // ---- plus zone-map range predicates.
  auto& null_rejecting = state->null_rejecting;
  auto& range_predicates = state->range_predicates;
  null_rejecting.assign(num_tables, {});
  range_predicates.assign(num_tables, {});
  for (size_t i = 0; i < num_tables; i++) {
    exec::CollectNullRejectingPaths(tables_[i].filter, tables_[i].alias,
                                    &null_rejecting[i]);
    exec::CollectRangePredicates(tables_[i].filter, tables_[i].alias,
                                 &range_predicates[i]);
  }
  for (const auto& j : joins_) {
    for (const ExprPtr& side : {j.left, j.right}) {
      std::vector<ExprPtr> found;
      exec::CollectAccesses(side, &found);
      for (const auto& a : found) {
        // Virtual row ids exist for every row; they reject nothing.
        if (a->path == exec::kRowIdPath) continue;
        null_rejecting[table_index[a->table]].push_back(a->path);
      }
    }
  }

  // ---- Join ordering (§4.6). ----------------------------------------------
  auto& sequence = state->sequence;
  auto& cards = state->cards;
  sequence.resize(num_tables);
  for (size_t i = 0; i < num_tables; i++) sequence[i] = static_cast<int>(i);
  cards.assign(num_tables, 1);
  if (num_tables > 1 || estimate_all) {
    for (size_t i = 0; i < num_tables; i++) {
      const TableRef& t = tables_[i];
      if (t.relation != nullptr || t.sharded != nullptr) {
        ExprPtr scan_filter = t.filter == nullptr
                                  ? nullptr
                                  : exec::RewriteAccessesToSlots(
                                        t.filter, [&](const Expr& a) {
                                          return state->LocalSlot(i, a);
                                        });
        if (t.relation != nullptr) {
          cards[i] = EstimateScanCardinality(*t.relation, table_accesses[i],
                                             scan_filter, null_rejecting[i],
                                             options.sample_size)
                         .cardinality;
        } else if (t.sharded_side_path.empty()) {
          cards[i] = EstimateShardedScanCardinality(
                         *t.sharded, table_accesses[i], scan_filter,
                         null_rejecting[i], options.sample_size)
                         .cardinality;
        } else {
          // Side-relation scan: estimate each shard's side part separately.
          cards[i] = 0;
          for (const auto& part : t.sharded->SideParts(t.sharded_side_path)) {
            cards[i] += EstimateScanCardinality(
                            *part.relation, table_accesses[i], scan_filter,
                            null_rejecting[i], options.sample_size)
                            .cardinality;
          }
          if (cards[i] < 1) cards[i] = 1;
        }
      } else {
        cards[i] = static_cast<double>(t.rowset->size());
      }
    }
  }
  if (num_tables > 1 && options.optimize_join_order) {
    JoinGraph graph;
    graph.table_cardinalities = cards;
    for (const auto& j : joins_) {
      JoinGraph::Edge edge;
      size_t lt = table_index[OwningTable(j.left)];
      size_t rt = table_index[OwningTable(j.right)];
      edge.left = static_cast<int>(lt);
      edge.right = static_cast<int>(rt);
      auto key_distinct = [&](const ExprPtr& key, size_t t) -> double {
        if (key->kind != exec::ExprKind::kAccess) return cards[t];
        const TableRef& ref = tables_[t];
        if (ref.relation != nullptr) {
          return EstimateJoinKeyDistinct(*ref.relation, key->path, cards[t]);
        }
        if (ref.sharded != nullptr && ref.sharded_side_path.empty()) {
          return EstimateShardedJoinKeyDistinct(*ref.sharded, key->path,
                                                cards[t]);
        }
        return cards[t];
      };
      edge.left_distinct = key_distinct(j.left, lt);
      edge.right_distinct = key_distinct(j.right, rt);
      graph.edges.push_back(edge);
    }
    JoinOrderResult result = OptimizeJoinOrder(graph);
    sequence = std::move(result.sequence);
    state->estimated_cost = result.estimated_cost;
  }
  chosen_order_.clear();
  for (int t : sequence) chosen_order_.push_back(tables_[static_cast<size_t>(t)].alias);
}

PlanEstimate QueryBlock::Explain(const PlannerOptions& options) {
  PlanState state;
  BuildPlan(options, /*estimate_all=*/true, &state);
  PlanEstimate out;
  out.join_order.reserve(state.sequence.size());
  out.table_rows.reserve(state.sequence.size());
  for (int t : state.sequence) {
    out.join_order.push_back(tables_[static_cast<size_t>(t)].alias);
    out.table_rows.push_back(state.cards[static_cast<size_t>(t)]);
  }
  out.estimated_cost = state.estimated_cost;
  return out;
}

RowSet QueryBlock::Execute(exec::QueryContext& ctx, const PlannerOptions& options) {
  PlanState state;
  BuildPlan(options, /*estimate_all=*/false, &state);

  const size_t num_tables = tables_.size();
  auto& table_index = state.table_index;
  auto& table_accesses = state.table_accesses;
  auto& null_rejecting = state.null_rejecting;
  auto& range_predicates = state.range_predicates;
  auto& sequence = state.sequence;
  auto local_slot = [&](size_t table, const Expr& access) -> int {
    return state.LocalSlot(table, access);
  };

  // ---- Distributed partial-aggregate push-down (DESIGN.md §13). -------------
  // A single-table aggregate over a cluster-served sharded relation skips the
  // scan/aggregate pair entirely: workers scan their shards and aggregate
  // locally, the coordinator merges partials through the same accumulators.
  // With one table the global slot layout equals the scan's local layout, so
  // the rewritten expressions are valid on the worker side verbatim.
  obs::PlanProfile* profile = ctx.profile;
  if (ctx.dist != nullptr && num_tables == 1 && joins_.empty() &&
      where_ == nullptr && (!aggs_.empty() || !group_by_.empty()) &&
      tables_[0].sharded != nullptr && tables_[0].sharded_side_path.empty() &&
      ctx.dist->Serves(tables_[0].sharded)) {
    const TableRef& t = tables_[0];
    exec::ScanSpec spec;
    spec.sharded = t.sharded;
    spec.table_alias = t.alias;
    spec.accesses = table_accesses[0];
    spec.filter = t.filter == nullptr
                      ? nullptr
                      : exec::RewriteAccessesToSlots(
                            t.filter,
                            [&](const Expr& a) { return local_slot(0, a); });
    spec.null_rejecting_paths = null_rejecting[0];
    spec.range_predicates = range_predicates[0];
    std::vector<ExprPtr> keys;
    keys.reserve(group_by_.size());
    for (const auto& e : group_by_) {
      keys.push_back(exec::RewriteAccessesToSlots(
          e, [&](const Expr& a) { return local_slot(0, a); }));
    }
    std::vector<AggSpec> aggs;
    aggs.reserve(aggs_.size());
    for (const auto& a : aggs_) {
      AggSpec rewritten = a;
      if (a.arg != nullptr) {
        rewritten.arg = exec::RewriteAccessesToSlots(
            a.arg, [&](const Expr& e) { return local_slot(0, e); });
      }
      aggs.push_back(std::move(rewritten));
    }
    RowSet out = exec::ExchangeAggregateExec(spec, keys, aggs, ctx);
    if (ctx.cancelled()) return {};
    if (profile != nullptr) profile->SetRoot(profile->last_id());
    auto chain_tail = [&]() {
      if (profile != nullptr) profile->Chain(profile->last_id());
    };
    if (having_ != nullptr) {
      out = exec::FilterExec(std::move(out), having_, ctx);
      chain_tail();
    }
    if (!order_by_.empty()) {
      out = exec::SortExec(std::move(out), order_by_, ctx);
      chain_tail();
    }
    if (has_limit_) {
      out = exec::LimitExec(std::move(out), limit_, ctx);
      chain_tail();
    }
    return out;
  }

  // ---- Scans. ---------------------------------------------------------------
  // Profiled runs wire the plan tree as the operators execute: every operator
  // appends exactly one entry, so ctx.profile->last_id() after a call is that
  // operator's node.
  std::vector<int> scan_node(num_tables, -1);
  std::vector<RowSet> scanned(num_tables);
  for (size_t i = 0; i < num_tables; i++) {
    const TableRef& t = tables_[i];
    ExprPtr scan_filter =
        t.filter == nullptr
            ? nullptr
            : exec::RewriteAccessesToSlots(
                  t.filter, [&](const Expr& a) { return local_slot(i, a); });
    if (t.relation != nullptr || t.sharded != nullptr) {
      exec::ScanSpec spec;
      spec.relation = t.relation;
      spec.sharded = t.sharded;
      spec.sharded_side_path = t.sharded_side_path;
      spec.table_alias = t.alias;
      spec.accesses = table_accesses[i];
      spec.filter = scan_filter;
      spec.null_rejecting_paths = null_rejecting[i];
      spec.range_predicates = range_predicates[i];
      scanned[i] = exec::ScanExec(spec, ctx);
    } else {
      scanned[i] = ScanRowset(t, table_accesses[i], scan_filter, ctx);
    }
    if (profile != nullptr) scan_node[i] = profile->last_id();
    // A failed scan cancels the query; stop planning work immediately (the
    // SQL boundary surfaces the recorded Status).
    if (ctx.cancelled()) return {};
  }

  // ---- Left-deep joins in the chosen order. ---------------------------------
  // Global slot layout: tables in join order, each contributing its accesses.
  std::vector<int> slot_offset(num_tables, -1);
  size_t next_offset = 0;
  auto global_slot_fn = [&](const Expr& access) -> int {
    size_t t = table_index[access.table];
    JSONTILES_CHECK(slot_offset[t] >= 0);
    int local = local_slot(t, access);
    return slot_offset[t] + local;
  };

  size_t first = static_cast<size_t>(sequence[0]);
  slot_offset[first] = 0;
  next_offset = table_accesses[first].size();
  RowSet acc = std::move(scanned[first]);
  std::vector<bool> joined(joins_.size(), false);
  if (profile != nullptr) profile->SetRoot(scan_node[first]);

  for (size_t k = 1; k < sequence.size(); k++) {
    size_t t = static_cast<size_t>(sequence[k]);
    // Edges connecting t to the current set become join keys / residuals.
    std::vector<ExprPtr> probe_keys, build_keys;
    std::vector<ExprPtr> residuals;
    for (size_t j = 0; j < joins_.size(); j++) {
      if (joined[j]) continue;
      size_t lt = table_index[OwningTable(joins_[j].left)];
      size_t rt = table_index[OwningTable(joins_[j].right)];
      bool l_in = slot_offset[lt] >= 0;
      bool r_in = slot_offset[rt] >= 0;
      ExprPtr t_side, set_side;
      if (lt == t && r_in) {
        t_side = joins_[j].left;
        set_side = joins_[j].right;
      } else if (rt == t && l_in) {
        t_side = joins_[j].right;
        set_side = joins_[j].left;
      } else {
        continue;
      }
      joined[j] = true;
      build_keys.push_back(exec::RewriteAccessesToSlots(
          t_side, [&](const Expr& a) { return local_slot(t, a); }));
      probe_keys.push_back(exec::RewriteAccessesToSlots(set_side, global_slot_fn));
      if (joins_[j].residual != nullptr) residuals.push_back(joins_[j].residual);
    }
    // Combined layout after this join: [acc..., t...].
    slot_offset[t] = static_cast<int>(next_offset);
    next_offset += table_accesses[t].size();
    ExprPtr residual = nullptr;
    if (!residuals.empty()) {
      residual = exec::RewriteAccessesToSlots(exec::And(residuals), global_slot_fn);
    }
    const bool acc_hashed = exec::HashJoinBuildsOnProbe(
        exec::JoinType::kInner, scanned[t].size(), acc.size());
    acc = exec::HashJoinExec(scanned[t], acc, build_keys, probe_keys,
                             exec::JoinType::kInner, residual, ctx);
    scanned[t].clear();
    if (ctx.cancelled()) return {};
    if (profile != nullptr) {
      // Probed input first, hashed input second.
      int join_id = profile->last_id();
      std::vector<int>& children = profile->op(join_id).children;
      children.push_back(profile->root());
      children.push_back(scan_node[t]);
      if (acc_hashed) std::swap(children[0], children[1]);
      profile->SetRoot(join_id);
    }
  }

  // ---- Post-join cross-table predicate. --------------------------------------
  auto chain_last = [&]() {
    if (profile != nullptr) profile->Chain(profile->last_id());
  };
  if (where_ != nullptr) {
    acc = exec::FilterExec(std::move(acc),
                           exec::RewriteAccessesToSlots(where_, global_slot_fn),
                           ctx);
    chain_last();
  }

  // ---- Aggregation / projection. --------------------------------------------
  RowSet out;
  if (!aggs_.empty() || !group_by_.empty()) {
    std::vector<ExprPtr> keys;
    keys.reserve(group_by_.size());
    for (const auto& e : group_by_) {
      keys.push_back(exec::RewriteAccessesToSlots(e, global_slot_fn));
    }
    std::vector<AggSpec> aggs;
    aggs.reserve(aggs_.size());
    for (const auto& a : aggs_) {
      AggSpec rewritten = a;
      if (a.arg != nullptr) {
        rewritten.arg = exec::RewriteAccessesToSlots(a.arg, global_slot_fn);
      }
      aggs.push_back(std::move(rewritten));
    }
    out = exec::AggregateExec(acc, keys, aggs, ctx);
    chain_last();
    if (ctx.cancelled()) return {};
    if (having_ != nullptr) {
      out = exec::FilterExec(std::move(out), having_, ctx);
      chain_last();
    }
  } else if (!projections_.empty()) {
    std::vector<ExprPtr> projected;
    projected.reserve(projections_.size());
    for (const auto& e : projections_) {
      projected.push_back(exec::RewriteAccessesToSlots(e, global_slot_fn));
    }
    out = exec::ProjectExec(acc, projected, ctx);
    chain_last();
  } else {
    out = std::move(acc);
  }

  if (!order_by_.empty()) {
    out = exec::SortExec(std::move(out), order_by_, ctx);
    chain_last();
  }
  if (has_limit_) {
    out = exec::LimitExec(std::move(out), limit_, ctx);
    chain_last();
  }
  return out;
}

Value ScalarResult(const RowSet& rows) {
  JSONTILES_CHECK(rows.size() == 1 && rows[0].size() >= 1);
  return rows[0][0];
}

}  // namespace jsontiles::opt
