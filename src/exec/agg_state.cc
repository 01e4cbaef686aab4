#include "exec/agg_state.h"

#include <cstring>

#include "util/bit_util.h"
#include "util/hash.h"
#include "util/logging.h"

namespace jsontiles::exec {

namespace {

// End of a group chain (group ids are uint32_t).
constexpr uint32_t kNoGroup = UINT32_MAX;

// A total order over values of the same comparison class: type tag first,
// then exact bit pattern for floats (distinguishing -0.0 from 0.0 and NaN
// payloads), then numeric scale.
int DeterministicValueOrder(const Value& a, const Value& b) {
  if (a.type != b.type) return a.type < b.type ? -1 : 1;
  switch (a.type) {
    case ValueType::kNull:
      return 0;
    case ValueType::kFloat: {
      uint64_t ba, bb;
      std::memcpy(&ba, &a.d, 8);
      std::memcpy(&bb, &b.d, 8);
      return ba < bb ? -1 : ba > bb ? 1 : 0;
    }
    case ValueType::kString: {
      int c = a.s.compare(b.s);
      return c < 0 ? -1 : c > 0 ? 1 : 0;
    }
    case ValueType::kNumeric:
      if (a.scale != b.scale) return a.scale < b.scale ? -1 : 1;
      [[fallthrough]];
    default:
      return a.i < b.i ? -1 : a.i > b.i ? 1 : 0;
  }
}

}  // namespace

int TotalValueOrder(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) {
    if (a.is_null() && b.is_null()) return 0;
    return a.is_null() ? 1 : -1;
  }
  int cmp = a.Compare(b);
  if (cmp != 0) return cmp;
  return DeterministicValueOrder(a, b);
}

void Accumulator::AddValue(AggSpec::Kind kind, const Value& v) {
  switch (kind) {
    case AggSpec::Kind::kCountStar:
      count++;
      return;
    case AggSpec::Kind::kCount:
      if (!v.is_null()) count++;
      return;
    case AggSpec::Kind::kSum:
    case AggSpec::Kind::kAvg:
      if (v.is_null()) return;
      count++;
      sum_seen = true;
      if (v.type == ValueType::kInt) {
        sum_i = bit_util::WrapAdd(sum_i, v.i);
      } else {
        sum_is_float = true;
        sum_f.Add(v.AsDouble());
      }
      return;
    case AggSpec::Kind::kMin:
      if (v.is_null()) return;
      if (min.is_null() || TotalValueOrder(v, min) < 0) min = v;
      return;
    case AggSpec::Kind::kMax:
      if (v.is_null()) return;
      if (max.is_null() || TotalValueOrder(v, max) > 0) max = v;
      return;
    case AggSpec::Kind::kCountDistinct:
      if (!v.is_null()) distinct.insert(v.Hash());
      return;
  }
}

void Accumulator::Merge(AggSpec::Kind kind, const Accumulator& other) {
  switch (kind) {
    case AggSpec::Kind::kCountStar:
    case AggSpec::Kind::kCount:
      count += other.count;
      return;
    case AggSpec::Kind::kSum:
    case AggSpec::Kind::kAvg:
      count += other.count;
      sum_seen |= other.sum_seen;
      sum_is_float |= other.sum_is_float;
      sum_i = bit_util::WrapAdd(sum_i, other.sum_i);
      sum_f.Merge(other.sum_f);
      return;
    case AggSpec::Kind::kMin:
      if (!other.min.is_null() &&
          (min.is_null() || TotalValueOrder(other.min, min) < 0)) {
        min = other.min;
      }
      return;
    case AggSpec::Kind::kMax:
      if (!other.max.is_null() &&
          (max.is_null() || TotalValueOrder(other.max, max) > 0)) {
        max = other.max;
      }
      return;
    case AggSpec::Kind::kCountDistinct:
      distinct.insert(other.distinct.begin(), other.distinct.end());
      return;
  }
}

double Accumulator::FloatTotal() const {
  ExactFloatSum total = sum_f;
  int64_t hi_part = (sum_i >> 32) << 32;
  int64_t lo_part = sum_i - hi_part;
  total.Add(static_cast<double>(hi_part));
  total.Add(static_cast<double>(lo_part));
  return total.Round();
}

Value Accumulator::Finalize(AggSpec::Kind kind) const {
  switch (kind) {
    case AggSpec::Kind::kCountStar:
    case AggSpec::Kind::kCount:
      return Value::Int(count);
    case AggSpec::Kind::kSum:
      if (!sum_seen) return Value::Null();
      return sum_is_float ? Value::Float(FloatTotal()) : Value::Int(sum_i);
    case AggSpec::Kind::kAvg: {
      if (count == 0) return Value::Null();
      return Value::Float(FloatTotal() / static_cast<double>(count));
    }
    case AggSpec::Kind::kMin: return min;
    case AggSpec::Kind::kMax: return max;
    case AggSpec::Kind::kCountDistinct:
      return Value::Int(static_cast<int64_t>(distinct.size()));
  }
  return Value::Null();
}

GroupTable::GroupTable(size_t num_keys, size_t num_aggs)
    : num_keys_(num_keys),
      num_aggs_(num_aggs),
      head_(16, kNoGroup) {}

void GroupTable::Rehash(size_t buckets) {
  head_.assign(buckets, kNoGroup);
  const uint64_t mask = buckets - 1;
  for (size_t g = 0; g < size(); g++) {
    uint32_t& first = head_[hashes_[g] & mask];
    next_[g] = first;
    first = static_cast<uint32_t>(g);
  }
}

namespace {

// Value::EqualsForGrouping with the common key types (ints, strings, nulls)
// decided inline.
inline bool KeyEquals(const Value& a, const Value& b) {
  if (a.type == b.type) {
    switch (a.type) {
      case ValueType::kNull:
        return true;
      case ValueType::kBool:
      case ValueType::kInt:
      case ValueType::kTimestamp:
        return a.i == b.i;
      case ValueType::kString:
        return a.s == b.s;
      default:
        break;  // floats and numerics compare as numbers
    }
  }
  return a.EqualsForGrouping(b);
}

}  // namespace

inline uint32_t GroupTable::Find(const Value* keys, uint64_t hash) const {
  for (uint32_t g = head_[hash & (head_.size() - 1)]; g != kNoGroup;
       g = next_[g]) {
    if (hashes_[g] != hash) continue;
    const Value* existing = this->keys(g);
    size_t i = 0;
    while (i < num_keys_ && KeyEquals(existing[i], keys[i])) i++;
    if (i == num_keys_) return g;
  }
  return kNoGroup;
}

uint32_t GroupTable::Insert(const Value* keys, uint64_t hash) {
  JSONTILES_CHECK(size() < kNoGroup);
  const uint32_t g = static_cast<uint32_t>(size());
  keys_.insert(keys_.end(), keys, keys + num_keys_);
  hashes_.push_back(hash);
  accs_.resize(accs_.size() + num_aggs_);
  uint32_t& first = head_[hash & (head_.size() - 1)];
  next_.push_back(first);
  first = g;
  // Keep the load factor at or below one half.
  if (2 * size() > head_.size()) Rehash(2 * head_.size());
  return g;
}

uint32_t GroupTable::FindOrInsert(const Value* keys, uint64_t hash,
                                  bool* inserted) {
  const uint32_t g = Find(keys, hash);
  *inserted = g == kNoGroup;
  return *inserted ? Insert(keys, hash) : g;
}

size_t GroupTable::AddBatch(const AggInput* keys, const AggInput* args,
                            const std::vector<AggSpec>& aggs,
                            const uint16_t* lanes, size_t n) {
  JSONTILES_DCHECK(n <= kVectorSize && aggs.size() == num_aggs_);
  if (group_ids_.size() < n) {
    group_ids_.resize(kVectorSize);
    lane_hashes_.resize(kVectorSize);
    lane_keys_.resize(kVectorSize * num_keys_);
  }
  // Keys to group ids: hash the lanes one key column at a time, then look
  // each lane up.
  uint64_t* hashes = lane_hashes_.data();
  std::fill(hashes, hashes + n, kKeyHashSeed);
  for (size_t j = 0; j < num_keys_; j++) {
    const ColumnVector* col = keys[j].col;
    const ValueType type = col != nullptr ? col->type() : ValueType::kNull;
    if (type == ValueType::kInt || type == ValueType::kString) {
      const uint8_t* nulls = col->nulls();
      const uint64_t null_hash = Value::Null().Hash();
      for (size_t k = 0; k < n; k++) {
        const size_t r = lanes[k];
        const uint64_t h =
            nulls[r] ? null_hash
            : type == ValueType::kInt
                ? HashInt(static_cast<uint64_t>(col->i64()[r]))
                : HashString(col->str()[r]);
        hashes[k] = HashCombine(hashes[k], h);
      }
      continue;
    }
    for (size_t k = 0; k < n; k++) {
      hashes[k] = HashCombine(hashes[k], keys[j].Get(k, lanes).Hash());
    }
  }
  size_t new_bytes = 0;
  for (size_t k = 0; k < n; k++) {
    Value* lane = lane_keys_.data() + k * num_keys_;
    for (size_t j = 0; j < num_keys_; j++) lane[j] = keys[j].Get(k, lanes);
    const uint64_t h = hashes[k];
    uint32_t g = Find(lane, h);
    if (g == kNoGroup) {
      g = Insert(lane, h);
      new_bytes += num_keys_ * sizeof(Value) +
                   num_aggs_ * sizeof(Accumulator) + kPerRowTableOverhead;
      for (size_t j = 0; j < num_keys_; j++) {
        if (lane[j].type == ValueType::kString) new_bytes += lane[j].s.size();
      }
    }
    group_ids_[k] = g;
  }
  // One argument column at a time. Counts, and sums and extremes of
  // compiled int (and float) columns, read the lanes directly; everything
  // else goes through Accumulator::AddValue.
  for (size_t a = 0; a < num_aggs_; a++) {
    const AggSpec::Kind kind = aggs[a].kind;
    Accumulator* base = accs_.data() + a;
    if (kind == AggSpec::Kind::kCountStar) {
      for (size_t k = 0; k < n; k++) base[group_ids_[k] * num_aggs_].count++;
      continue;
    }
    const ColumnVector* col = args[a].col;
    const ValueType type = col != nullptr ? col->type() : ValueType::kNull;
    const uint8_t* nulls = col != nullptr ? col->nulls() : nullptr;
    const bool sum = kind == AggSpec::Kind::kSum || kind == AggSpec::Kind::kAvg;
    if (col != nullptr && (kind == AggSpec::Kind::kCount ||
                           (sum && (type == ValueType::kInt ||
                                    type == ValueType::kFloat)))) {
      for (size_t k = 0; k < n; k++) {
        const size_t r = lanes[k];
        if (nulls[r]) continue;
        Accumulator& acc = base[group_ids_[k] * num_aggs_];
        acc.count++;
        if (!sum) continue;
        acc.sum_seen = true;
        if (type == ValueType::kInt) {
          acc.sum_i = bit_util::WrapAdd(acc.sum_i, col->i64()[r]);
        } else {
          acc.sum_is_float = true;
          acc.sum_f.Add(col->f64()[r]);
        }
      }
      continue;
    }
    const bool is_min = kind == AggSpec::Kind::kMin;
    if (type == ValueType::kInt && (is_min || kind == AggSpec::Kind::kMax)) {
      // Int extremes already held as ints order by value alone.
      for (size_t k = 0; k < n; k++) {
        const size_t r = lanes[k];
        if (nulls[r]) continue;
        Accumulator& acc = base[group_ids_[k] * num_aggs_];
        Value& cur = is_min ? acc.min : acc.max;
        const int64_t v = col->i64()[r];
        if (cur.type != ValueType::kInt) {
          acc.AddValue(kind, Value::Int(v));
        } else if (is_min ? v < cur.i : v > cur.i) {
          cur.i = v;
        }
      }
      continue;
    }
    for (size_t k = 0; k < n; k++) {
      base[group_ids_[k] * num_aggs_].AddValue(kind, args[a].Get(k, lanes));
    }
  }
  return new_bytes;
}

void GroupTable::MergeFrom(GroupTable&& other,
                           const std::vector<AggSpec>& aggs) {
  if (other.size() == 0) return;
  JSONTILES_CHECK(other.num_keys_ == num_keys_ &&
                  other.num_aggs_ == num_aggs_);
  if (size() == 0) {
    *this = std::move(other);
    return;
  }
  for (size_t g = 0; g < other.size(); g++) {
    bool inserted;
    const uint32_t dst = FindOrInsert(other.keys(g), other.hash(g), &inserted);
    Accumulator* to = accs(dst);
    Accumulator* from = other.accs(g);
    for (size_t a = 0; a < num_aggs_; a++) {
      if (inserted) {
        to[a] = std::move(from[a]);
      } else {
        to[a].Merge(aggs[a].kind, from[a]);
      }
    }
  }
}

void GroupTable::Finalize(const std::vector<AggSpec>& aggs,
                          RowSet* out) const {
  out->reserve(out->size() + size());
  for (size_t g = 0; g < size(); g++) {
    Row row;
    row.reserve(num_keys_ + num_aggs_);
    row.insert(row.end(), keys(g), keys(g) + num_keys_);
    for (size_t a = 0; a < num_aggs_; a++) {
      row.push_back(accs(g)[a].Finalize(aggs[a].kind));
    }
    out->push_back(std::move(row));
  }
}

Row EmptyGlobalAggRow(const std::vector<AggSpec>& aggs) {
  Row row;
  std::vector<Accumulator> accs(aggs.size());
  for (size_t a = 0; a < aggs.size(); a++) {
    row.push_back(accs[a].Finalize(aggs[a].kind));
  }
  return row;
}

}  // namespace jsontiles::exec
