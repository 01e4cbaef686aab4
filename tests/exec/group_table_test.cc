// GroupTable (exec/agg_state.h) against a naive std::map oracle: grouping
// semantics across int, float and numeric keys, nulls, -0.0 vs 0.0, string
// keys whose bytes live in different places, every aggregate kind, compiled
// column inputs over sparse selections, rehashing past 64k groups, and the
// partial merge.

#include <algorithm>
#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/agg_state.h"
#include "util/arena.h"

namespace jsontiles::exec {
namespace {

// Aggregates over argument columns: 0 = int (with nulls), 1 = float (exact
// quarters, with nulls), 2 = string.
std::vector<AggSpec> AllKinds() {
  return {AggSpec::CountStar(),        AggSpec::Count(Slot(0)),
          AggSpec::Sum(Slot(0)),       AggSpec::Sum(Slot(1)),
          AggSpec::Avg(Slot(1)),       AggSpec::Avg(Slot(0)),
          AggSpec::Min(Slot(0)),       AggSpec::Max(Slot(2)),
          AggSpec::CountDistinct(Slot(0))};
}

// The oracle's key: numbers by value (grouping compares them numerically
// across types, and -0.0 equals 0.0), strings by content.
std::string Canonical(const Value& v) {
  switch (v.type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kString:
      return "s:" + std::string(v.s);
    case ValueType::kInt:
    case ValueType::kFloat:
    case ValueType::kNumeric: {
      double d = v.AsDouble();
      if (d == 0.0) d = 0.0;  // -0.0
      char buf[40];
      std::snprintf(buf, sizeof(buf), "n:%.17g", d);
      return buf;
    }
    default:
      return std::string(ValueTypeName(v.type)) + ":" + v.ToString();
  }
}

std::string Format(const Value& v) {
  if (v.is_null()) return "null";
  if (v.type == ValueType::kFloat) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v.d);
    return std::string("float:") + buf;
  }
  return std::string(ValueTypeName(v.type)) + ":" + v.ToString();
}

// Naive per-group state for AllKinds().
struct OracleGroup {
  std::vector<Value> first_keys;
  int64_t rows = 0;
  int64_t int_count = 0;
  int64_t int_sum = 0;
  int64_t float_count = 0;
  double float_sum = 0;  // exact: inputs are small quarters
  bool has_min = false;
  int64_t int_min = 0;
  bool has_max = false;
  std::string str_max;
  std::set<int64_t> distinct;

  std::vector<Value> Finalize() const {
    std::vector<Value> out = first_keys;
    out.push_back(Value::Int(rows));
    out.push_back(Value::Int(int_count));
    out.push_back(int_count > 0 ? Value::Int(int_sum) : Value::Null());
    out.push_back(float_count > 0 ? Value::Float(float_sum) : Value::Null());
    out.push_back(float_count > 0
                      ? Value::Float(float_sum / static_cast<double>(float_count))
                      : Value::Null());
    out.push_back(int_count > 0 ? Value::Float(static_cast<double>(int_sum) /
                                               static_cast<double>(int_count))
                                : Value::Null());
    out.push_back(has_min ? Value::Int(int_min) : Value::Null());
    out.push_back(has_max ? Value::String(str_max) : Value::Null());
    out.push_back(Value::Int(static_cast<int64_t>(distinct.size())));
    return out;
  }
};

class Oracle {
 public:
  void Add(const std::vector<Value>& keys, const Value& i, const Value& f,
           const Value& s) {
    std::string key;
    for (const Value& k : keys) key += Canonical(k) + "|";
    auto [it, inserted] = groups_.try_emplace(key);
    OracleGroup& g = it->second;
    if (inserted) {
      order_.push_back(key);
      g.first_keys = keys;
    }
    g.rows++;
    if (!i.is_null()) {
      g.int_count++;
      g.int_sum += i.i;
      if (!g.has_min || i.i < g.int_min) g.int_min = i.i;
      g.has_min = true;
      g.distinct.insert(i.i);
    }
    if (!f.is_null()) {
      g.float_count++;
      g.float_sum += f.d;
    }
    if (!s.is_null() && (!g.has_max || std::string(s.s) > g.str_max)) {
      g.str_max = std::string(s.s);
      g.has_max = true;
    }
  }

  /// Finalized rows in first-insertion order.
  std::vector<std::string> Rows() const {
    std::vector<std::string> out;
    for (const std::string& key : order_) {
      std::string line;
      for (const Value& v : groups_.at(key).Finalize()) line += Format(v) + " ";
      out.push_back(line);
    }
    return out;
  }

 private:
  std::map<std::string, OracleGroup> groups_;
  std::vector<std::string> order_;
};

std::vector<std::string> Lines(const RowSet& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) {
    std::string line;
    for (const Value& v : row) line += Format(v) + " ";
    out.push_back(line);
  }
  return out;
}

TEST(GroupTableTest, MixedKeysMatchOracle) {
  // String bytes from two places: a stand-in for tile storage, and arena
  // copies of the same contents. Equal contents must share a group.
  const std::vector<std::string> tile_strings = {"alpha", "beta", "", "gamma"};
  Arena arena;
  std::vector<Value> key_pool = {
      Value::Int(3),
      Value::Float(3.0),
      Value::Num(Numeric{30, 1}),  // 3.0
      Value::Int(-7),
      Value::Float(-7.0),
      Value::Float(2.5),
      Value::Num(Numeric{25, 1}),  // 2.5
      Value::Float(0.0),
      Value::Float(-0.0),
      Value::Int(0),
      Value::Null(),
      Value::Int(int64_t{1} << 40),
  };
  for (const std::string& s : tile_strings) {
    key_pool.push_back(Value::String(s));
    const uint8_t* copy = arena.AllocateCopy(s.data(), s.size());
    key_pool.push_back(Value::String(
        std::string_view(reinterpret_cast<const char*>(copy), s.size())));
  }
  const std::vector<AggSpec> aggs = AllKinds();
  GroupTable table(2, aggs.size());
  Oracle oracle;
  std::mt19937 rng(17);
  const std::vector<std::string> words = {"x", "yy", "zzz", "w"};
  const size_t kRows = 5000;
  const size_t kBatch = 700;  // not a multiple of anything above
  for (size_t base = 0; base < kRows; base += kBatch) {
    const size_t n = std::min(kBatch, kRows - base);
    std::vector<Value> k0(n), k1(n), ai(n), af(n), as(n);
    for (size_t k = 0; k < n; k++) {
      k0[k] = key_pool[rng() % key_pool.size()];
      k1[k] = rng() % 5 == 0 ? Value::Null() : Value::Int(rng() % 3);
      ai[k] = rng() % 6 == 0 ? Value::Null()
                             : Value::Int(static_cast<int64_t>(rng() % 2001) -
                                          1000);
      af[k] = rng() % 7 == 0
                  ? Value::Null()
                  : Value::Float(static_cast<double>(rng() % 400) * 0.25 - 50);
      as[k] = rng() % 4 == 0 ? Value::Null()
                             : Value::String(words[rng() % words.size()]);
      oracle.Add({k0[k], k1[k]}, ai[k], af[k], as[k]);
    }
    // Interpreted inputs are indexed by selection position, so the lanes
    // only matter for columns.
    SelectionVector sel;
    sel.SetAll(std::min(n, kVectorSize));
    std::vector<AggInput> keys = {{nullptr, k0.data()}, {nullptr, k1.data()}};
    const AggInput i{nullptr, ai.data()}, f{nullptr, af.data()},
        s{nullptr, as.data()};
    std::vector<AggInput> args = {{}, i, i, f, f, i, i, s, i};
    table.AddBatch(keys.data(), args.data(), aggs, sel.idx, n);
  }
  RowSet out;
  table.Finalize(aggs, &out);
  EXPECT_EQ(Lines(out), oracle.Rows());
}

TEST(GroupTableTest, ColumnInputsOverSparseSelectionsAndRehash) {
  // About 69k distinct (int, string) keys: the table rehashes past 64k
  // groups. Arguments arrive as typed columns read at a sparse selection,
  // taking the int/float sum and count fast paths.
  const std::vector<AggSpec> aggs = AllKinds();
  GroupTable table(2, aggs.size());
  Oracle oracle;
  std::vector<std::string> names;
  for (int i = 0; i < 7; i++) names.push_back("name-" + std::to_string(i));
  std::mt19937 rng(23);
  ColumnVector c_key, c_name, c_int, c_float, c_str;
  const size_t kBatches = 110;
  for (size_t b = 0; b < kBatches; b++) {
    c_key.Reset(ValueType::kInt);
    c_name.Reset(ValueType::kString);
    c_int.Reset(ValueType::kInt);
    c_float.Reset(ValueType::kFloat);
    c_str.Reset(ValueType::kString);
    SelectionVector sel;
    sel.count = 0;
    for (size_t r = 0; r < kVectorSize; r++) {
      const int64_t id = static_cast<int64_t>(b * kVectorSize + r) % 100000;
      c_key.SetValue(r, Value::Int(id));
      c_name.SetValue(r, Value::String(names[static_cast<size_t>(id) % 7]));
      c_int.SetValue(r, rng() % 5 == 0 ? Value::Null()
                                       : Value::Int(static_cast<int64_t>(rng() % 100)));
      c_float.SetValue(r, rng() % 5 == 0
                              ? Value::Null()
                              : Value::Float(static_cast<double>(rng() % 64) * 0.25));
      c_str.SetValue(r, Value::String(names[rng() % 7]));
      if (r % 3 != 1) {
        sel.idx[sel.count++] = static_cast<uint16_t>(r);
        oracle.Add({c_key.GetValue(r), c_name.GetValue(r)}, c_int.GetValue(r),
                   c_float.GetValue(r), c_str.GetValue(r));
      }
    }
    std::vector<AggInput> keys = {{&c_key, nullptr}, {&c_name, nullptr}};
    const AggInput i{&c_int, nullptr}, f{&c_float, nullptr},
        s{&c_str, nullptr};
    std::vector<AggInput> args = {{}, i, i, f, f, i, i, s, i};
    table.AddBatch(keys.data(), args.data(), aggs, sel.idx, sel.count);
  }
  EXPECT_GT(table.size(), 65536u);
  RowSet out;
  table.Finalize(aggs, &out);
  EXPECT_EQ(Lines(out), oracle.Rows());
}

TEST(GroupTableTest, MergedPartialsMatchOneTable) {
  const std::vector<AggSpec> aggs = AllKinds();
  GroupTable whole(1, aggs.size());
  std::vector<GroupTable> parts(3, GroupTable(1, aggs.size()));
  std::mt19937 rng(5);
  for (size_t b = 0; b < 30; b++) {
    const size_t n = 500;
    std::vector<Value> key(n), ai(n), af(n), as(n);
    for (size_t k = 0; k < n; k++) {
      key[k] = rng() % 2 ? Value::Int(rng() % 300)
                         : Value::Float(static_cast<double>(rng() % 300));
      ai[k] = Value::Int(static_cast<int64_t>(rng() % 50));
      af[k] = Value::Float(static_cast<double>(rng() % 50) * 0.5);
      as[k] = Value::String(rng() % 2 ? "p" : "q");
    }
    SelectionVector sel;
    sel.SetAll(n);
    std::vector<AggInput> keys = {{nullptr, key.data()}};
    const AggInput i{nullptr, ai.data()}, f{nullptr, af.data()},
        s{nullptr, as.data()};
    std::vector<AggInput> args = {{}, i, i, f, f, i, i, s, i};
    whole.AddBatch(keys.data(), args.data(), aggs, sel.idx, n);
    parts[b % 3].AddBatch(keys.data(), args.data(), aggs, sel.idx, n);
  }
  GroupTable merged(1, aggs.size());
  for (GroupTable& part : parts) merged.MergeFrom(std::move(part), aggs);
  RowSet a, b;
  whole.Finalize(aggs, &a);
  merged.Finalize(aggs, &b);
  // Group keys may differ in type (the first row of a group differs between
  // the two tables); aggregates and key values may not.
  auto canon = [](const RowSet& rows) {
    std::vector<std::string> out;
    for (const Row& row : rows) {
      std::string line = Canonical(row[0]);
      for (size_t c = 1; c < row.size(); c++) line += " " + Format(row[c]);
      out.push_back(line);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(canon(a), canon(b));
  EXPECT_EQ(a.size(), 300u);
}

}  // namespace
}  // namespace jsontiles::exec
