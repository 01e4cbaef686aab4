// Shared aggregation state: the accumulator, group table and merge/finalize
// helpers behind AggregateExec — exported so the distributed exchange can
// build *partial* aggregates in worker processes and merge them in the
// coordinator through exactly the same code path. The accumulator is
// order-independent by construction (exact int64 sums, Shewchuk float sums,
// total-order MIN/MAX ties, hash-set distinct), so partials merge to
// bit-identical results no matter how rows were split across threads, shards,
// spill runs or worker processes (DESIGN.md §10, §13).

#ifndef JSONTILES_EXEC_AGG_STATE_H_
#define JSONTILES_EXEC_AGG_STATE_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/float_sum.h"
#include "exec/operators.h"

namespace jsontiles::exec {

/// Seed of the group/join key hash chain (group hash = kKeyHashSeed combined
/// with each key Value's hash). Workers and coordinator must agree on it so a
/// group's hash is stable across processes.
inline constexpr uint64_t kKeyHashSeed = 0x2545F4914F6CDD1DULL;

/// Estimated hash-table cost per row beyond its key Values, for memory-budget
/// charges. A join charges it for every row of both inputs: each holds a row
/// hash and a null flag, each hashed row a chain link and two to four
/// bucket-head slots (21-29 bytes in all). Aggregation charges it per group for the
/// group map's node and bucket entry. Rounded up so charges over-estimate.
inline constexpr size_t kPerRowTableOverhead = 64;

/// A total order refining Value::Compare for values that compare equal:
/// type tag first, then exact bit pattern for floats (distinguishing -0.0
/// from 0.0 and NaN payloads), then numeric scale. Content-only, so it is
/// identical no matter what order rows arrived in. Nulls order last (the
/// sort operator's convention).
int TotalValueOrder(const Value& a, const Value& b);

/// Per-(group, aggregate) running state. Every operation commutes, so
/// AddValue/Merge in any interleaving finalizes to the same bits.
struct Accumulator {
  // Sum: integers accumulate exactly in sum_i; everything else goes through
  // the exact float summer. Both are order-independent, so SUM/AVG results
  // do not depend on how rows were partitioned across threads, shards or
  // spill runs (DESIGN.md §10).
  int64_t sum_i = 0;
  ExactFloatSum sum_f;
  bool sum_is_float = false;
  bool sum_seen = false;
  int64_t count = 0;  // non-null args (kCount) or rows (kCountStar)
  Value min, max;
  std::unordered_set<uint64_t> distinct;  // hash-based distinct

  void AddValue(AggSpec::Kind kind, const Value& v);
  void Merge(AggSpec::Kind kind, const Accumulator& other);

  /// The exact integer part folded into the float summer: split into two
  /// halves that are each exactly representable as doubles, so the combined
  /// sum stays exact.
  double FloatTotal() const;

  Value Finalize(AggSpec::Kind kind) const;
};

struct AggGroup {
  std::vector<Value> keys;
  std::vector<Accumulator> accs;
};

/// Group table keyed by the kKeyHashSeed-chained key hash; equal-hash groups
/// chain in the bucket vector and are distinguished by EqualsForGrouping.
using AggGroupMap = std::unordered_map<uint64_t, std::vector<AggGroup>>;

/// Scalar partial aggregation: fold every row of `in` into `groups`
/// (interpreted expression evaluation; arena backs derived strings). This is
/// the worker-side path of the distributed partial-aggregate push-down —
/// bit-identical to AggregateExec's accumulation because both feed the same
/// Accumulator (vectorized evaluation is bit-identical to the interpreter by
/// the repo-wide differential contract).
void AccumulateRows(const RowSet& in, const std::vector<ExprPtr>& group_by,
                    const std::vector<AggSpec>& aggs, Arena* arena,
                    AggGroupMap* groups);

/// Merge one group (with its precomputed hash) into `dst`: accumulate into
/// the matching group or insert. Used by the in-memory partial merge and the
/// coordinator-side exchange merge.
void MergeGroup(AggGroupMap* dst, uint64_t hash, AggGroup&& group,
                const std::vector<AggSpec>& aggs);

/// Emit one output row per group: [keys..., finalized aggregates...], in the
/// map's iteration order (callers that need a deterministic order sort the
/// result; every differential-tested query does).
void FinalizeGroups(const AggGroupMap& groups,
                    const std::vector<AggSpec>& aggs, RowSet* out);

/// SQL semantics for a global aggregate of empty input: one row of
/// default-accumulator finalizations (COUNT = 0, SUM = null, ...).
Row EmptyGlobalAggRow(const std::vector<AggSpec>& aggs);

}  // namespace jsontiles::exec

#endif  // JSONTILES_EXEC_AGG_STATE_H_
