// Shared aggregation state: the accumulator and the group table behind
// AggregateExec and the scan-fed aggregation — exported so the distributed
// exchange can build *partial* aggregates in worker processes and merge them
// in the coordinator through exactly the same code path. The accumulator is
// order-independent by construction (exact int64 sums, Shewchuk float sums,
// total-order MIN/MAX ties, hash-set distinct), so partials merge to
// bit-identical results no matter how rows were split across threads, shards,
// spill runs or worker processes (DESIGN.md §10, §13).

#ifndef JSONTILES_EXEC_AGG_STATE_H_
#define JSONTILES_EXEC_AGG_STATE_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "exec/float_sum.h"
#include "exec/operators.h"
#include "exec/vector_batch.h"

namespace jsontiles::exec {

/// Seed of the group/join key hash chain (group hash = kKeyHashSeed combined
/// with each key Value's hash). Workers and coordinator must agree on it so a
/// group's hash is stable across processes.
inline constexpr uint64_t kKeyHashSeed = 0x2545F4914F6CDD1DULL;

/// Estimated hash-table cost per row beyond its key Values, for memory-budget
/// charges. A join charges it for every row of both inputs: each holds a row
/// hash and a null flag, each hashed row a chain link and two to four
/// bucket-head slots (21-29 bytes in all). Aggregation charges it per group for
/// the group's hash, chain link and bucket-head slots. Rounded up so charges
/// over-estimate.
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

/// One input column of an aggregation batch: the group keys and aggregate
/// arguments each come either from a compiled result vector, read at the
/// batch's selected lanes, or from per-lane Values the interpreter produced
/// (indexed by position in the selection). COUNT(*) takes neither.
struct AggInput {
  const ColumnVector* col = nullptr;
  const Value* values = nullptr;

  /// Value of the k-th selected lane (`lanes[k]` indexes `col`).
  Value Get(size_t k, const uint16_t* lanes) const {
    return col != nullptr ? col->GetValue(lanes[k]) : values[k];
  }
};

/// The aggregation hash table. Groups live in insertion order in flat
/// arrays: the keys (groups x keys Values), each group's kKeyHashSeed-chained
/// key hash, and the accumulators (groups x aggregates). Lookup walks
/// power-of-two head[]/next[] uint32_t chains; keys compare with
/// EqualsForGrouping, so numbers that are equal across int, float and
/// numeric share a group, and a group keeps the key Values of its first row.
/// Not thread-safe: parallel aggregation builds one table per worker and
/// merges them.
class GroupTable {
 public:
  GroupTable(size_t num_keys, size_t num_aggs);

  size_t size() const { return hashes_.size(); }
  size_t num_keys() const { return num_keys_; }
  size_t num_aggs() const { return num_aggs_; }
  const Value* keys(size_t g) const { return keys_.data() + g * num_keys_; }
  uint64_t hash(size_t g) const { return hashes_[g]; }
  Accumulator* accs(size_t g) { return accs_.data() + g * num_aggs_; }
  const Accumulator* accs(size_t g) const {
    return accs_.data() + g * num_aggs_;
  }

  /// Id of the group with these keys and hash, appending an empty group when
  /// there is none; *inserted tells which.
  uint32_t FindOrInsert(const Value* keys, uint64_t hash, bool* inserted);

  /// Fold one batch of n selected lanes: map the lanes' keys to group ids
  /// (`keys` has num_keys() inputs), then fold each aggregate's argument
  /// column (`args` has one input per aggregate). Returns the estimated
  /// bytes of the groups this batch created, for the memory budget.
  size_t AddBatch(const AggInput* keys, const AggInput* args,
                  const std::vector<AggSpec>& aggs, const uint16_t* lanes,
                  size_t n);

  /// Fold every group of `other` into this table: matching groups merge
  /// their accumulators, the others are appended in `other`'s order.
  void MergeFrom(GroupTable&& other, const std::vector<AggSpec>& aggs);

  /// One output row per group, in insertion order: [keys..., finalized
  /// aggregates...]. Callers that need a deterministic order sort the result
  /// (every differential-tested query does).
  void Finalize(const std::vector<AggSpec>& aggs, RowSet* out) const;

 private:
  /// Id of the group with these keys and hash, or UINT32_MAX.
  uint32_t Find(const Value* keys, uint64_t hash) const;
  /// Append a group (known to be absent) and return its id.
  uint32_t Insert(const Value* keys, uint64_t hash);
  void Rehash(size_t buckets);

  size_t num_keys_;
  size_t num_aggs_;
  std::vector<Value> keys_;
  std::vector<uint64_t> hashes_;
  std::vector<Accumulator> accs_;
  std::vector<uint32_t> head_;
  std::vector<uint32_t> next_;
  // Per-batch scratch of AddBatch.
  std::vector<Value> lane_keys_;
  std::vector<uint64_t> lane_hashes_;
  std::vector<uint32_t> group_ids_;
};

/// Scan `spec` and aggregate it into `table` without finalizing: the worker
/// side of the distributed partial-aggregate push-down, through the same
/// scan-fed path as ScanAggregateExec (a row scan folded like AggregateExec
/// when the scan cannot run batch-at-a-time). Unbudgeted; a failure cancels
/// `ctx`.
void ScanAggregatePartial(const ScanSpec& spec,
                          const std::vector<ExprPtr>& group_by,
                          const std::vector<AggSpec>& aggs, QueryContext& ctx,
                          GroupTable* table);

/// SQL semantics for a global aggregate of empty input: one row of
/// default-accumulator finalizations (COUNT = 0, SUM = null, ...).
Row EmptyGlobalAggRow(const std::vector<AggSpec>& aggs);

}  // namespace jsontiles::exec

#endif  // JSONTILES_EXEC_AGG_STATE_H_
