// Hash join against a nested-loop oracle: duplicate and null keys; int,
// string, multi-column and computed keys; a residual predicate; all four join
// types; inner joins in both size orders (so either input gets hashed); the
// spill path and the parallel probe. Also checks that the profile of TPC-H
// joins reports the side that was actually hashed.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/operators.h"
#include "obs/plan_profile.h"
#include "storage/loader.h"
#include "util/random.h"
#include "workload/tpch.h"
#include "workload/tpch_queries.h"

namespace jsontiles::exec {
namespace {

// Build rows are [k_int, k_str, payload]; probe rows are
// [tag, k_int, k_str, payload], so a mixed-up column order shows.
constexpr size_t kBuildWidth = 3;
constexpr size_t kProbeWidth = 4;

const std::vector<std::string>& StringKeys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> out;
    for (int i = 0; i < 12; i++) out.push_back("key-" + std::to_string(i));
    return out;
  }();
  return keys;
}

// Keys from small domains (many duplicates), one in ten null.
Value IntKey(Random& rng) {
  if (rng.Uniform(10) == 0) return Value::Null();
  return Value::Int(static_cast<int64_t>(rng.Uniform(8)));
}
Value StrKey(Random& rng) {
  return rng.Uniform(10) == 0
             ? Value::Null()
             : Value::String(StringKeys()[rng.Uniform(StringKeys().size())]);
}

RowSet MakeBuild(size_t n, uint64_t seed) {
  Random rng(seed);
  RowSet rows;
  for (size_t i = 0; i < n; i++) {
    rows.push_back({IntKey(rng), StrKey(rng),
                    Value::Int(static_cast<int64_t>(rng.Uniform(100)))});
  }
  return rows;
}

RowSet MakeProbe(size_t n, uint64_t seed) {
  Random rng(seed);
  RowSet rows;
  for (size_t i = 0; i < n; i++) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)), IntKey(rng),
                    StrKey(rng),
                    Value::Int(static_cast<int64_t>(rng.Uniform(100)))});
  }
  return rows;
}

// Key column sets: build slot i pairs with probe slot i + 1. A computed
// build key (`slot + 0`) goes through the compiled engine and the SIMD hash
// kernels while the probe side reads its slot directly, so both hashes must
// agree bit for bit.
struct KeyCase {
  const char* name;
  std::vector<int> build_slots;
  bool computed_build_key = false;
};
const KeyCase kKeyCases[] = {{"int", {0}},
                             {"string", {1}},
                             {"int+string", {0, 1}},
                             {"computed int", {0}, true}};

// SQL equality of two key Values: null never matches.
bool KeyMatch(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null() || a.type != b.type) return false;
  return a.type == ValueType::kInt ? a.int_value() == b.int_value()
                                   : a.string_value() == b.string_value();
}

// Nested-loop oracle. `build_outer` walks build rows in the outer loop (the
// emission order when the join hashes its probe input); otherwise each probe
// row lists its matches in build order. The residual is "probe payload <
// build payload".
std::vector<std::string> NaiveJoin(const RowSet& build, const RowSet& probe,
                                   const KeyCase& keys, JoinType type,
                                   bool residual, bool build_outer) {
  auto match = [&](const Row& p, const Row& b) {
    for (int s : keys.build_slots) {
      if (!KeyMatch(b[s], p[s + 1])) return false;
    }
    return !residual || p[3].int_value() < b[2].int_value();
  };
  // Unmatched left rows pad to the build width, which is 0 for no rows.
  const size_t build_width = build.empty() ? 0 : kBuildWidth;
  auto text = [&](const Row& p, const Row* b) {
    std::string s;
    for (const Value& v : p) s += v.ToString() + "|";
    for (size_t i = 0; i < build_width; i++) {
      s += (b != nullptr ? (*b)[i] : Value::Null()).ToString() + "|";
    }
    return s;
  };
  std::vector<std::string> out;
  if (build_outer) {
    for (const Row& b : build) {
      for (const Row& p : probe) {
        if (match(p, b)) out.push_back(text(p, &b));
      }
    }
    return out;
  }
  for (const Row& p : probe) {
    bool matched = false;
    for (const Row& b : build) {
      if (!match(p, b)) continue;
      matched = true;
      if (type != JoinType::kInner && type != JoinType::kLeft) break;
      out.push_back(text(p, &b));
    }
    if (type == JoinType::kLeft && !matched) out.push_back(text(p, nullptr));
    if ((type == JoinType::kSemi && matched) ||
        (type == JoinType::kAnti && !matched)) {
      std::string s;
      for (const Value& v : p) s += v.ToString() + "|";
      out.push_back(std::move(s));
    }
  }
  return out;
}

struct JoinRun {
  std::vector<std::string> rows;  // in output order
  int64_t build_rows = -1;        // profile counters
  int64_t probe_rows = -1;
  size_t spilled_bytes = 0;
};

JoinRun RunJoin(const RowSet& build, const RowSet& probe, const KeyCase& keys,
                JoinType type, bool residual, size_t mem_limit,
                size_t threads) {
  ExecOptions options;
  options.mem_limit_bytes = mem_limit;
  options.num_threads = threads;
  QueryContext ctx(options);
  obs::PlanProfile profile;
  ctx.profile = &profile;
  std::vector<ExprPtr> build_keys, probe_keys;
  for (int s : keys.build_slots) {
    build_keys.push_back(keys.computed_build_key ? Add(Slot(s), ConstInt(0))
                                                 : Slot(s));
    probe_keys.push_back(Slot(s + 1));
  }
  // Combined layout [probe..., build...]: probe payload is slot 3, build
  // payload slot kProbeWidth + 2.
  ExprPtr pred = residual ? Lt(Slot(3), Slot(kProbeWidth + 2)) : nullptr;
  RowSet out =
      HashJoinExec(build, probe, build_keys, probe_keys, type, pred, ctx);
  EXPECT_TRUE(ctx.ConsumeStatus().ok());
  JoinRun run;
  for (const Row& row : out) {
    std::string s;
    for (const Value& v : row) s += v.ToString() + "|";
    run.rows.push_back(std::move(s));
  }
  for (const auto& [name, value] : profile.op(profile.last_id()).counters) {
    if (name == "build_rows") run.build_rows = value;
    if (name == "probe_rows") run.probe_rows = value;
  }
  run.spilled_bytes = ctx.spilled_bytes;
  return run;
}

const JoinType kTypes[] = {JoinType::kInner, JoinType::kLeft, JoinType::kSemi,
                           JoinType::kAnti};

std::string Describe(const KeyCase& keys, JoinType type, bool residual,
                     size_t nb, size_t np) {
  return std::string(keys.name) + " keys, type " +
         std::to_string(static_cast<int>(type)) +
         (residual ? ", residual" : "") + ", build " + std::to_string(nb) +
         " rows, probe " + std::to_string(np) + " rows";
}

std::vector<std::string> Sorted(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(HashJoinTest, MatchesNestedLoopInBothSizeOrders) {
  const std::pair<size_t, size_t> kSizes[] = {{600, 150}, {150, 600}};
  for (const auto& [nb, np] : kSizes) {
    const RowSet build = MakeBuild(nb, 11 + nb);
    const RowSet probe = MakeProbe(np, 29 + np);
    for (const KeyCase& keys : kKeyCases) {
      for (JoinType type : kTypes) {
        for (bool residual : {false, true}) {
          const std::string what = Describe(keys, type, residual, nb, np);
          // Only inner joins hash the smaller input.
          const bool hashes_probe = type == JoinType::kInner && np < nb;
          const auto expected =
              NaiveJoin(build, probe, keys, type, residual, hashes_probe);
          if (type == JoinType::kInner || type == JoinType::kSemi) {
            ASSERT_FALSE(expected.empty()) << what;
          }

          const JoinRun mem = RunJoin(build, probe, keys, type, residual,
                                      /*mem_limit=*/0, /*threads=*/1);
          EXPECT_EQ(mem.rows, expected) << what;
          EXPECT_EQ(mem.spilled_bytes, 0u) << what;
          EXPECT_EQ(static_cast<size_t>(mem.build_rows),
                    hashes_probe ? np : nb)
              << what;
          EXPECT_EQ(static_cast<size_t>(mem.probe_rows),
                    hashes_probe ? nb : np)
              << what;

          // A 4 KiB limit cannot hold either side: the grace path runs.
          // Partitions come back one at a time, so only the order differs.
          const JoinRun spilled = RunJoin(build, probe, keys, type, residual,
                                          /*mem_limit=*/4096, /*threads=*/1);
          EXPECT_GT(spilled.spilled_bytes, 0u) << what;
          EXPECT_EQ(Sorted(spilled.rows), Sorted(mem.rows)) << what;
        }
      }
    }
  }
}

// Above the 16384-row split point the probe, with its key evaluation, runs
// on the pool one chunk per worker; chunk outputs concatenate in order, so
// the order still matches.
TEST(HashJoinTest, ParallelPathsMatchNestedLoop) {
  const RowSet big_build = MakeBuild(20000, 3);
  const RowSet small_build = MakeBuild(120, 5);
  const RowSet big_probe = MakeProbe(20000, 7);
  const RowSet small_probe = MakeProbe(120, 9);
  for (const KeyCase& keys : {kKeyCases[2], kKeyCases[3]}) {
    for (JoinType type : kTypes) {
      for (bool big_is_build : {false, true}) {
        if (big_is_build && type != JoinType::kInner) continue;
        const RowSet& build = big_is_build ? big_build : small_build;
        const RowSet& probe = big_is_build ? small_probe : big_probe;
        const std::string what =
            Describe(keys, type, true, build.size(), probe.size());
        const auto expected =
            NaiveJoin(build, probe, keys, type, true, big_is_build);
        const JoinRun run =
            RunJoin(build, probe, keys, type, true, /*mem_limit=*/0,
                    /*threads=*/4);
        EXPECT_EQ(run.rows, expected) << what;
      }
    }
  }
}

TEST(HashJoinTest, EmptyInputs) {
  const RowSet build = MakeBuild(50, 1);
  const RowSet probe = MakeProbe(50, 2);
  const KeyCase& keys = kKeyCases[0];
  for (JoinType type : kTypes) {
    EXPECT_EQ(RunJoin({}, probe, keys, type, false, 0, 1).rows,
              NaiveJoin({}, probe, keys, type, false, false));
    EXPECT_TRUE(RunJoin(build, {}, keys, type, false, 0, 1).rows.empty());
  }
}

// EXPLAIN ANALYZE and the bench's exec.join_build_rows must agree on which
// input a join hashed: the hashed input is the second child, its row count
// is build_rows, and inner joins never hash the larger input.
TEST(HashJoinTest, TpchProfileReportsHashedSide) {
  workload::TpchOptions options;
  options.scale_factor = 0.01;
  const workload::TpchData data = workload::GenerateTpch(options);
  storage::Loader loader(storage::StorageMode::kTiles, {});
  auto rel = loader.Load(data.combined, "tpch").MoveValueOrDie();
  for (int q : {3, 5, 9}) {
    QueryContext ctx;
    obs::PlanProfile profile;
    ctx.profile = &profile;
    RowSet rows = workload::RunTpchQuery(q, *rel, ctx);
    ASSERT_TRUE(ctx.ConsumeStatus().ok()) << "Q" << q;
    ASSERT_FALSE(rows.empty()) << "Q" << q;
    int joins = 0;
    for (int id = 0; id < static_cast<int>(profile.size()); id++) {
      const obs::OperatorStats& op = profile.op(id);
      if (op.name != "HashJoin" || op.detail != "inner") continue;
      joins++;
      int64_t build_rows = -1, probe_rows = -1;
      for (const auto& [name, value] : op.counters) {
        if (name == "build_rows") build_rows = value;
        if (name == "probe_rows") probe_rows = value;
      }
      EXPECT_LE(build_rows, probe_rows) << "Q" << q << " join " << id;
      ASSERT_EQ(op.children.size(), 2u) << "Q" << q << " join " << id;
      EXPECT_EQ(static_cast<int64_t>(profile.op(op.children[0]).rows_out),
                probe_rows)
          << "Q" << q << " join " << id;
      EXPECT_EQ(static_cast<int64_t>(profile.op(op.children[1]).rows_out),
                build_rows)
          << "Q" << q << " join " << id;
    }
    EXPECT_GT(joins, 0) << "Q" << q;
  }
}

}  // namespace
}  // namespace jsontiles::exec
