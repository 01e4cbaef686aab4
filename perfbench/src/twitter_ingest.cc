// twitter-ingest: the write path. Each cycle of the timed phase is one user
// lifecycle over a 180,000-tweet stream with schema evolution: a Tiles load
// with kThreads workers, a persist round trip, a seeded batch of row updates
// on the loaded and on the reopened relation, then T1-T5 (one thread each) on
// the updated reopened relation, so reads after writes show whether a faster
// write costs the next scan.
#include <cstdio>

#include "bench.h"
#include "span_trace.h"
#include "workload/twitter.h"

namespace perfbench {

namespace {

using jt::storage::Relation;

/// Query repetitions per cycle: the cycle is dominated by the load, so the
/// reads are repeated to give the query metrics enough samples.
constexpr int kQueryReps = 3;

/// SQL over the tweets, planned (not executed) for sql.plan_ms.
const std::vector<std::string>& TwitterSqlStatements() {
  static const std::vector<std::string> kStatements = {
      "SELECT t->'user'->>'id'::BigInt, COUNT(*) FROM tweets t "
      "WHERE t->'user'->>'id'::BigInt IS NOT NULL "
      "GROUP BY t->'user'->>'id'::BigInt ORDER BY 2 DESC LIMIT 10",
      "SELECT t->>'source', COUNT(*), "
      "AVG(t->'user'->>'followers_count'::BigInt) FROM tweets t "
      "WHERE t->'user'->>'id'::BigInt IS NOT NULL "
      "GROUP BY t->>'source' ORDER BY 2 DESC LIMIT 5",
      "SELECT d->'delete'->'status'->>'user_id'::BigInt, COUNT(*) "
      "FROM tweets d WHERE d->'delete'->'status'->>'user_id'::BigInt "
      "IS NOT NULL GROUP BY d->'delete'->'status'->>'user_id'::BigInt "
      "ORDER BY 2 DESC LIMIT 10",
  };
  return kStatements;
}

std::vector<Digest> TwitterQueries(const Relation& rel) {
  std::vector<Digest> out;
  for (int q = 1; q <= 5; q++) {
    jt::exec::QueryContext ctx;
    out.push_back(DigestRows(jt::workload::RunTwitterQuery(q, rel, ctx)));
  }
  return out;
}

}  // namespace

void RunTwitterIngest(const RunConfig& config, Report* report, Gate* gate) {
  jt::workload::TwitterOptions twitter;
  twitter.num_tweets = config.tiny ? 5000 : 180000;
  twitter.changing_schema = true;
  twitter.seed = DeriveSeed(config.seed, "twitter");

  // Set-up is data generation only (the relation is built in every cycle),
  // nine times so setup_s is a median.
  CommonSamples common;
  std::vector<std::string> docs;
  for (int rep = 0; rep < 9; rep++) {
    docs = {};
    const double t0 = Now();
    {
      Span span("workload:GenerateTwitter");
      docs = jt::workload::GenerateTwitter(twitter);
    }
    common.generate_s.push_back(Now() - t0);
    common.setup_s.push_back(Now() - t0);
  }
  common.docs_per_load = docs.size();
  common.input_bytes = TextBytes(docs);
  char note[160];
  std::snprintf(note, sizeof(note),
                "twitter-ingest: %zu tweets (changing schema), %.1f MB JSON, "
                "%zu load threads, queries on 1 thread",
                docs.size(), static_cast<double>(common.input_bytes) / 1e6,
                kThreads);
  report->Note(note);
  report->Mark("setup");

  // Reference: a first, untimed load gives the row order the kJsonb
  // relation is aligned to, the update batch and the serialized bytes every
  // cycle must reproduce. The load is deterministic, so every cycle's
  // relation has the same rows in the same order.
  std::vector<Digest> expected;
  Digest serialized;
  UpdateBatch batch;
  {
    LoadSample first;
    std::unique_ptr<Relation> rel = LoadTiles(docs, "tweets", &first, gate);
    if (rel == nullptr) return;
    Dataset set =
        PrepareDataset("tweets", std::move(rel), config.seed);
    expected = InChild(
        [&](Gate* child_gate) {
          std::unique_ptr<Relation> ref =
              AlignedReference(*set.rel, docs, child_gate);
          if (ref == nullptr) return std::vector<Digest>{};
          ApplyUpdates(ref.get(), set.batch, child_gate);
          return TwitterQueries(*ref);
        },
        gate);
    serialized = set.serialized;
    batch = std::move(set.batch);
  }
  gate->Check(expected.size() == 5, "reference answers incomplete");
  if (expected.size() != 5) return;
  if (config.corrupt_reference) expected[0].hash ^= 1;
  report->Mark("reference");

  jt::service::QueryService service;
  jt::service::ResourceGroupConfig group;
  group.concurrency = 1;
  if (!service.CreateGroup("twitter", group).ok()) {
    gate->Check(false, "CreateGroup");
    return;
  }
  const std::string path = config.out_dir + "/relation.jtrl";
  jt::exec::ExecOptions options;  // one thread per query

  // One lifecycle; `timed` adds its samples to `common`. Returns the wall time
  // of its query phase. The updated relation stays alive until the next cycle
  // begins.
  std::unique_ptr<Relation> last;
  auto cycle = [&](bool timed, ExecTrace* trace,
                   std::map<std::string, std::vector<double>>* by_query) {
    last.reset();
    RequestScope request;
    Span span("bench:cycle");
    LoadSample load;
    std::unique_ptr<Relation> rel = LoadTiles(docs, "tweets", &load, gate);
    if (rel == nullptr) return 0.0;
    PersistSample persist;
    std::unique_ptr<Relation> copy =
        PersistRoundTrip(*rel, path, serialized, &persist, gate);
    if (copy == nullptr) return 0.0;
    // The batch runs on the loaded relation and on the reopened copy, so
    // update_rows_per_s is the median of two samples per cycle. The copy's
    // updated state is what the queries check.
    UpdateSample loaded_update = ApplyUpdates(rel.get(), batch, gate);
    rel.reset();
    UpdateSample copy_update = ApplyUpdates(copy.get(), batch, gate);
    if (timed) {
      common.loads.push_back(std::move(load));
      common.persists.push_back(persist);
      common.updates.push_back(std::move(loaded_update));
      common.updates.push_back(std::move(copy_update));
    }
    const double queries_start = Now();
    for (int rep = 0; rep < kQueryReps; rep++) {
      for (int q = 1; q <= 5; q++) {
        const std::string label = "T" + std::to_string(q);
        Digest got;
        double ms = 0;
        jt::Status st = RunAdmitted(
            &service, "twitter", options, "exec:RunTwitterQuery",
            [&](jt::exec::QueryContext& ctx) -> jt::Result<jt::exec::RowSet> {
              return jt::workload::RunTwitterQuery(q, *copy, ctx);
            },
            &got, &ms, trace);
        const bool ok = st.ok() && got == expected[q - 1];
        gate->Check(ok, "Twitter " + label + " after updates: " +
                            (st.ok() ? "result differs from reference"
                                     : st.ToString()));
        if (by_query != nullptr && ok) (*by_query)[label].push_back(ms);
      }
    }
    const double query_s = Now() - queries_start;
    last = std::move(copy);
    return query_s;
  };

  cycle(false, nullptr, nullptr);  // warm-up cycle, checked, not timed
  report->Mark("warm-up");
  // The load dominates a cycle, so the wall time of the cycles' query phases
  // (not the cycle wall time) is the base of queries_per_s.
  RunTimedPhase(
      config,
      [&](double seconds, ExecTrace* trace,
          std::map<std::string, std::vector<double>>* by_query) {
        const double start = Now();
        double query_s = 0;
        do {
          query_s += cycle(true, trace, by_query);
        } while (Now() - start < seconds);
        return query_s;
      },
      &service, "twitter", report);
  report->Mark("timed");
  if (config.trace && last != nullptr) {
    report->Set("sql.plan_ms",
                TimePlanning(TwitterSqlStatements(), {{"tweets", last.get()}},
                             gate),
                "ms");
  }
  ReportCommon(common, config.trace, report);
}

}  // namespace perfbench
