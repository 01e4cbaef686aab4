// Physical operators above the scan: filter, project, hash join, hash
// aggregation, sort, limit. Row sets are fully materialized between
// operators; joins and aggregations parallelize over input chunks.

#ifndef JSONTILES_EXEC_OPERATORS_H_
#define JSONTILES_EXEC_OPERATORS_H_

#include <vector>

#include "exec/expression.h"
#include "exec/scan.h"

namespace jsontiles::exec {

RowSet FilterExec(RowSet in, const ExprPtr& predicate, QueryContext& ctx);

RowSet ProjectExec(const RowSet& in, const std::vector<ExprPtr>& exprs,
                   QueryContext& ctx);

struct AggSpec {
  enum class Kind : uint8_t {
    kCountStar,
    kCount,   // non-null arguments
    kSum,
    kAvg,
    kMin,
    kMax,
    kCountDistinct,
  };
  Kind kind = Kind::kCountStar;
  ExprPtr arg;  // null for kCountStar

  static AggSpec CountStar() { return AggSpec{Kind::kCountStar, nullptr}; }
  static AggSpec Count(ExprPtr e) { return AggSpec{Kind::kCount, std::move(e)}; }
  static AggSpec Sum(ExprPtr e) { return AggSpec{Kind::kSum, std::move(e)}; }
  static AggSpec Avg(ExprPtr e) { return AggSpec{Kind::kAvg, std::move(e)}; }
  static AggSpec Min(ExprPtr e) { return AggSpec{Kind::kMin, std::move(e)}; }
  static AggSpec Max(ExprPtr e) { return AggSpec{Kind::kMax, std::move(e)}; }
  static AggSpec CountDistinct(ExprPtr e) {
    return AggSpec{Kind::kCountDistinct, std::move(e)};
  }
};

/// Hash group-by. Output rows are [group keys..., aggregate values...].
/// With an empty `group_by`, emits exactly one (global) row even for empty
/// input (SQL semantics: COUNT(*) of nothing is 0, SUM is null).
RowSet AggregateExec(const RowSet& in, const std::vector<ExprPtr>& group_by,
                     const std::vector<AggSpec>& aggs, QueryContext& ctx);

enum class JoinType : uint8_t { kInner, kLeft, kSemi, kAnti };

/// Hash join. Output rows are [probe row..., build row...] for inner/left
/// (build columns null for unmatched left rows); semi/anti emit the probe
/// row only. `residual` (may be null) is evaluated on the combined row; for
/// semi/anti it decides whether a key match counts. Which input is hashed
/// is the join's own choice (HashJoinBuildsOnProbe); the output layout does
/// not depend on it.
RowSet HashJoinExec(const RowSet& build, const RowSet& probe,
                    const std::vector<ExprPtr>& build_keys,
                    const std::vector<ExprPtr>& probe_keys, JoinType type,
                    const ExprPtr& residual, QueryContext& ctx);

/// Whether HashJoinExec hashes its `probe` input rather than `build`. Inner
/// joins hash whichever input has fewer rows (ties hash `build`); left, semi
/// and anti joins always hash `build`.
bool HashJoinBuildsOnProbe(JoinType type, size_t build_rows, size_t probe_rows);

struct SortKey {
  ExprPtr expr;
  bool descending = false;
};

RowSet SortExec(RowSet in, const std::vector<SortKey>& keys, QueryContext& ctx);

RowSet LimitExec(RowSet in, size_t limit);

/// Profiling-aware variant: records rows in/out into ctx.profile (if set).
RowSet LimitExec(RowSet in, size_t limit, QueryContext& ctx);

}  // namespace jsontiles::exec

#endif  // JSONTILES_EXEC_OPERATORS_H_
