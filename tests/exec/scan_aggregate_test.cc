// Scan-fed aggregation (ScanAggregateExec) against the row path it replaced.
// Each single-table block below — the lineitem blocks of TPC-H Q1, Q6, Q15,
// Q17, Q18 and Q20, the customer block of Q22, and Twitter T1-T5 — runs
// fused and as ScanExec -> Filter -> AggregateExec (a cross-table predicate
// that keeps every row takes the planner off the fused path). Both must give
// the same rows in Tiles, JSONB, JSON-text and sharded storage, at 1 and 4
// threads. A memory limit that refuses the group table must spill to the
// unlimited answer, and a fused block must profile as Aggregate over Scan.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/operators.h"
#include "obs/plan_profile.h"
#include "opt/query.h"
#include "storage/loader.h"
#include "storage/shard.h"
#include "workload/tpch.h"
#include "workload/twitter.h"

namespace jsontiles::exec {
namespace {

using opt::QueryBlock;
using opt::TableRef;
using opt::TableSource;
using storage::StorageMode;

ExprPtr AI(const char* t, const char* key) {
  return Access(t, {key}, ValueType::kInt);
}
ExprPtr AF(const char* t, const char* key) {
  return Access(t, {key}, ValueType::kFloat);
}
ExprPtr AS(const char* t, const char* key) {
  return Access(t, {key}, ValueType::kString);
}
ExprPtr AD(const char* t, const char* key) {
  return Access(t, {key}, ValueType::kTimestamp);
}
ExprPtr Revenue() {
  return Mul(AF("l", "l_extendedprice"),
             Sub(ConstFloat(1.0), AF("l", "l_discount")));
}

// One single-table aggregation block. `marker` is the table's null-rejected
// key; `build` adds the group keys, aggregates and HAVING.
struct BlockCase {
  std::string name;
  bool twitter;
  const char* alias;
  std::function<ExprPtr()> marker;
  std::function<ExprPtr()> extra_filter;  // may return null
  std::function<void(QueryBlock&)> build;
};

ExprPtr TweetMarker() {
  return Access("t", {"user", "id"}, ValueType::kInt);
}

std::vector<BlockCase> Cases() {
  auto l_marker = [] { return AI("l", "l_orderkey"); };
  auto none = []() -> ExprPtr { return nullptr; };
  return {
      {"Q1", false, "l", l_marker,
       [] { return Le(AD("l", "l_shipdate"), ConstDate("1998-09-02")); },
       [](QueryBlock& q) {
         q.GroupBy({AS("l", "l_returnflag"), AS("l", "l_linestatus")});
         q.Aggregate(AggSpec::Sum(AI("l", "l_quantity")));
         q.Aggregate(AggSpec::Sum(AF("l", "l_extendedprice")));
         q.Aggregate(AggSpec::Sum(Revenue()));
         q.Aggregate(AggSpec::Sum(
             Mul(Revenue(), Add(ConstFloat(1.0), AF("l", "l_tax")))));
         q.Aggregate(AggSpec::Avg(AI("l", "l_quantity")));
         q.Aggregate(AggSpec::Avg(AF("l", "l_discount")));
         q.Aggregate(AggSpec::CountStar());
       }},
      {"Q6", false, "l", l_marker,
       [] {
         return And({Ge(AD("l", "l_shipdate"), ConstDate("1994-01-01")),
                     Lt(AD("l", "l_shipdate"), ConstDate("1995-01-01")),
                     Between(AF("l", "l_discount"), ConstFloat(0.05),
                             ConstFloat(0.07)),
                     Lt(AI("l", "l_quantity"), ConstInt(24))});
       },
       [](QueryBlock& q) {
         q.GroupBy({});
         q.Aggregate(AggSpec::Sum(
             Mul(AF("l", "l_extendedprice"), AF("l", "l_discount"))));
       }},
      {"Q15", false, "l", l_marker,
       [] {
         return And(Ge(AD("l", "l_shipdate"), ConstDate("1996-01-01")),
                    Lt(AD("l", "l_shipdate"), ConstDate("1996-04-01")));
       },
       [](QueryBlock& q) {
         q.GroupBy({AI("l", "l_suppkey")});
         q.Aggregate(AggSpec::Sum(Revenue()));
       }},
      {"Q17", false, "l", l_marker, none,
       [](QueryBlock& q) {
         q.GroupBy({AI("l", "l_partkey")});
         q.Aggregate(AggSpec::Avg(AI("l", "l_quantity")));
       }},
      {"Q18", false, "l", l_marker, none,
       [](QueryBlock& q) {
         q.GroupBy({AI("l", "l_orderkey")});
         q.Aggregate(AggSpec::Sum(AI("l", "l_quantity")));
         q.Having(Gt(Slot(1), ConstInt(150)));
       }},
      {"Q20", false, "l", l_marker,
       [] {
         return And(Ge(AD("l", "l_shipdate"), ConstDate("1994-01-01")),
                    Lt(AD("l", "l_shipdate"), ConstDate("1995-01-01")));
       },
       [](QueryBlock& q) {
         q.GroupBy({AI("l", "l_partkey"), AI("l", "l_suppkey")});
         q.Aggregate(AggSpec::Sum(AI("l", "l_quantity")));
       }},
      {"Q22", false, "c", [] { return AI("c", "c_custkey"); },
       [] {
         return And(Gt(AF("c", "c_acctbal"), ConstFloat(0.0)),
                    InList(Substring(AS("c", "c_phone"), 1, 2),
                           {"13", "31", "23", "29", "30", "18", "17"}));
       },
       [](QueryBlock& q) {
         q.GroupBy({Substring(AS("c", "c_phone"), 1, 2)});
         q.Aggregate(AggSpec::Avg(AF("c", "c_acctbal")));
         q.Aggregate(AggSpec::CountStar());
       }},
      {"T1", true, "t", TweetMarker, none,
       [](QueryBlock& q) {
         q.GroupBy({Access("t", {"user", "id"}, ValueType::kInt),
                    Access("t", {"user", "screen_name"}, ValueType::kString)});
         q.Aggregate(AggSpec::Max(
             Access("t", {"user", "followers_count"}, ValueType::kInt)));
         q.Aggregate(AggSpec::CountStar());
       }},
      {"T2", true, "t",
       [] { return Access("t", {"delete", "status", "user_id"}, ValueType::kInt); },
       none,
       [](QueryBlock& q) {
         q.GroupBy(
             {Access("t", {"delete", "status", "user_id"}, ValueType::kInt)});
         q.Aggregate(AggSpec::CountStar());
       }},
      {"T3", true, "t", TweetMarker,
       [] {
         return ArrayContains("t", {"entities", "user_mentions"},
                              "screen_name", "ladygaga");
       },
       [](QueryBlock& q) {
         q.GroupBy({Access("t", {"lang"}, ValueType::kString)});
         q.Aggregate(AggSpec::CountStar());
         q.Aggregate(
             AggSpec::Max(Access("t", {"retweet_count"}, ValueType::kInt)));
       }},
      {"T4", true, "t", TweetMarker,
       [] {
         return ArrayContains("t", {"entities", "hashtags"}, "text", "COVID");
       },
       [](QueryBlock& q) {
         q.GroupBy({Access("t", {"lang"}, ValueType::kString)});
         q.Aggregate(AggSpec::CountStar());
         q.Aggregate(
             AggSpec::Max(Access("t", {"retweet_count"}, ValueType::kInt)));
       }},
      {"T5", true, "t", TweetMarker, none,
       [](QueryBlock& q) {
         q.GroupBy({Access("t", {"source"}, ValueType::kString)});
         q.Aggregate(AggSpec::CountStar());
         q.Aggregate(AggSpec::Avg(
             Access("t", {"user", "followers_count"}, ValueType::kInt)));
       }},
  };
}

std::string Format(const Value& v) {
  if (v.type == ValueType::kFloat) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v.d);
    return buf;
  }
  return v.is_null() ? "null" : v.ToString();
}

std::vector<std::string> Lines(const RowSet& rows, bool sorted) {
  std::vector<std::string> out;
  for (const Row& row : rows) {
    std::string line;
    for (const Value& v : row) line += Format(v) + "|";
    out.push_back(line);
  }
  if (sorted) std::sort(out.begin(), out.end());
  return out;
}

// The block over `source`, fused or forced onto the row path.
RowSet RunBlock(const BlockCase& c, const TableSource& source, bool fused,
                QueryContext& ctx) {
  ExprPtr filter = IsNotNull(c.marker());
  if (ExprPtr extra = c.extra_filter()) filter = And(filter, extra);
  QueryBlock q;
  q.AddTable(TableRef::Src(c.alias, source, filter));
  c.build(q);
  // The scan already rejected null markers, so this keeps every row; being
  // a cross-table predicate, it runs as a Filter between scan and aggregate.
  if (!fused) q.Where(IsNotNull(c.marker()));
  return q.Execute(ctx);
}

class ScanAggregateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::TpchOptions tpch;
    tpch.scale_factor = 0.003;
    tpch_docs_ = new std::vector<std::string>(
        workload::GenerateTpch(tpch).combined);
    workload::TwitterOptions twitter;
    twitter.num_tweets = 6000;
    twitter.changing_schema = true;
    twitter_docs_ =
        new std::vector<std::string>(workload::GenerateTwitter(twitter));
    tiles::TileConfig config;
    config.tile_size = 512;
    for (bool tw : {false, true}) {
      const auto& docs = tw ? *twitter_docs_ : *tpch_docs_;
      for (StorageMode mode :
           {StorageMode::kTiles, StorageMode::kJsonb, StorageMode::kJsonText}) {
        storage::Loader loader(mode, config);
        relations_.push_back(
            loader.Load(docs, tw ? "tw" : "tpch").MoveValueOrDie().release());
      }
      storage::ShardOptions shard_options;
      shard_options.shard_count = 3;
      sharded_.push_back(storage::ShardedRelation::Load(
                             docs, tw ? "tw" : "tpch", StorageMode::kTiles,
                             config, {}, shard_options)
                             .MoveValueOrDie()
                             .release());
    }
  }
  static void TearDownTestSuite() {
    for (auto* rel : relations_) delete rel;
    for (auto* rel : sharded_) delete rel;
    relations_.clear();
    sharded_.clear();
    delete tpch_docs_;
    delete twitter_docs_;
  }

  // Every storage form of one workload: Tiles, JSONB, JSON text, sharded.
  static std::vector<std::pair<std::string, TableSource>> Sources(bool tw) {
    const size_t base = tw ? 3 : 0;
    return {{"tiles", TableSource(*relations_[base])},
            {"jsonb", TableSource(*relations_[base + 1])},
            {"json-text", TableSource(*relations_[base + 2])},
            {"sharded", TableSource(*sharded_[tw ? 1 : 0])}};
  }

  static std::vector<std::string>* tpch_docs_;
  static std::vector<std::string>* twitter_docs_;
  static std::vector<storage::Relation*> relations_;
  static std::vector<storage::ShardedRelation*> sharded_;
};

std::vector<std::string>* ScanAggregateTest::tpch_docs_ = nullptr;
std::vector<std::string>* ScanAggregateTest::twitter_docs_ = nullptr;
std::vector<storage::Relation*> ScanAggregateTest::relations_;
std::vector<storage::ShardedRelation*> ScanAggregateTest::sharded_;

TEST_F(ScanAggregateTest, FusedMatchesScanThenAggregate) {
  for (const BlockCase& c : Cases()) {
    for (const auto& [mode, source] : Sources(c.twitter)) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        ExecOptions options;
        options.num_threads = threads;
        QueryContext fused_ctx(options), row_ctx(options);
        RowSet fused = RunBlock(c, source, /*fused=*/true, fused_ctx);
        RowSet rows = RunBlock(c, source, /*fused=*/false, row_ctx);
        ASSERT_TRUE(fused_ctx.ConsumeStatus().ok());
        ASSERT_TRUE(row_ctx.ConsumeStatus().ok());
        // One thread inserts groups in scan order on both paths; at four
        // threads the group order depends on the merge, so compare sorted.
        const bool sorted = threads > 1;
        EXPECT_EQ(Lines(fused, sorted), Lines(rows, sorted))
            << c.name << " " << mode << " threads=" << threads;
        EXPECT_FALSE(fused.empty()) << c.name << " " << mode;
      }
    }
  }
}

TEST_F(ScanAggregateTest, RefusedTableSpillsToTheSameRows) {
  // Q17's block has one group per part: far more than 16 KiB of group table.
  const BlockCase c = Cases()[3];
  ASSERT_EQ(c.name, "Q17");
  for (const auto& [mode, source] : Sources(false)) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ExecOptions unlimited;
      unlimited.num_threads = threads;
      ExecOptions limited = unlimited;
      limited.mem_limit_bytes = 16 * 1024;
      QueryContext free_ctx(unlimited), tight_ctx(limited);
      RowSet expected = RunBlock(c, source, /*fused=*/true, free_ctx);
      RowSet spilled = RunBlock(c, source, /*fused=*/true, tight_ctx);
      ASSERT_TRUE(free_ctx.ConsumeStatus().ok());
      ASSERT_TRUE(tight_ctx.ConsumeStatus().ok());
      EXPECT_GT(tight_ctx.spilled_bytes, 0u) << mode << " threads=" << threads;
      EXPECT_EQ(Lines(spilled, true), Lines(expected, true))
          << mode << " threads=" << threads;
    }
  }
}

TEST_F(ScanAggregateTest, FusedBlockProfilesAsAggregateOverScan) {
  const BlockCase c = Cases()[0];
  ASSERT_EQ(c.name, "Q1");
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ExecOptions options;
    options.num_threads = threads;
    QueryContext ctx(options);
    obs::PlanProfile profile;
    ctx.profile = &profile;
    RowSet rows = RunBlock(c, Sources(false)[0].second, /*fused=*/true, ctx);
    ASSERT_TRUE(ctx.ConsumeStatus().ok());
    ASSERT_EQ(profile.size(), 2u) << profile.FormatTree();
    const obs::OperatorStats& agg = profile.op(profile.root());
    ASSERT_EQ(agg.name, "Aggregate") << profile.FormatTree();
    ASSERT_EQ(agg.children.size(), 1u);
    const obs::OperatorStats& scan = profile.op(agg.children[0]);
    EXPECT_EQ(scan.name, "Scan");
    EXPECT_GT(agg.wall_nanos, 0u);
    EXPECT_GT(scan.wall_nanos, 0u);
    EXPECT_EQ(agg.rows_in, scan.rows_out);
    EXPECT_EQ(agg.rows_out, rows.size());
    bool has_lookups = false;
    for (const auto& [name, value] : scan.counters) {
      if (name == "jsonb_lookups") has_lookups = true;
    }
    EXPECT_TRUE(has_lookups) << profile.FormatTree();
  }
}

}  // namespace
}  // namespace jsontiles::exec
