// tpch-analytics: the join-, aggregate- and sort-heavy read path. The TPC-H
// combined relation (SF 0.01, about 86,700 documents) is loaded once as Tiles
// with kThreads workers; one closed-loop client then runs Q1-Q22 in order,
// again and again, each query on one thread. Each timed round is followed by
// one persist round trip and update batch on a reopened copy; loads run only
// in set-up.
#include <cstdio>

#include "bench.h"
#include "span_trace.h"
#include "workload/tpch.h"
#include "workload/tpch_queries.h"

namespace perfbench {

namespace {

using jt::storage::Relation;

/// SQL forms of TPC-H queries, planned (not executed) for sql.plan_ms.
const std::vector<std::string>& TpchSqlStatements() {
  static const std::vector<std::string> kStatements = {
      "SELECT l->>'l_returnflag', l->>'l_linestatus', "
      "SUM(l->>'l_quantity'::BigInt), SUM(l->>'l_extendedprice'::Float), "
      "AVG(l->>'l_discount'::Float), COUNT(*) FROM tpch l "
      "WHERE l->>'l_shipdate'::Date <= DATE '1998-09-02' "
      "AND l->>'l_orderkey'::BigInt IS NOT NULL "
      "GROUP BY l->>'l_returnflag', l->>'l_linestatus' ORDER BY 1, 2",
      "SELECT l->>'l_orderkey'::BigInt, o->>'o_orderdate'::Date, "
      "SUM(l->>'l_extendedprice'::Float * (1 - l->>'l_discount'::Float)) AS rev "
      "FROM tpch c, tpch o, tpch l WHERE c->>'c_mktsegment' = 'BUILDING' "
      "AND c->>'c_custkey'::BigInt = o->>'o_custkey'::BigInt "
      "AND l->>'l_orderkey'::BigInt = o->>'o_orderkey'::BigInt "
      "AND o->>'o_orderdate'::Date < DATE '1995-03-15' "
      "AND l->>'l_shipdate'::Date > DATE '1995-03-15' "
      "AND c->>'c_custkey'::BigInt IS NOT NULL "
      "GROUP BY l->>'l_orderkey'::BigInt, o->>'o_orderdate'::Date "
      "ORDER BY rev DESC, 2 LIMIT 10",
      "SELECT SUM(l->>'l_extendedprice'::Float * l->>'l_discount'::Float) "
      "FROM tpch l WHERE l->>'l_shipdate'::Date >= DATE '1994-01-01' "
      "AND l->>'l_shipdate'::Date < DATE '1995-01-01' "
      "AND l->>'l_discount'::Float BETWEEN 0.05 AND 0.07 "
      "AND l->>'l_quantity'::BigInt < 24 "
      "AND l->>'l_orderkey'::BigInt IS NOT NULL",
      "SELECT l->>'l_shipmode', COUNT(*) FROM tpch o, tpch l "
      "WHERE o->>'o_orderkey'::BigInt = l->>'l_orderkey'::BigInt "
      "AND l->>'l_shipmode' IN ('MAIL','SHIP') "
      "AND l->>'l_receiptdate'::Date >= DATE '1994-01-01' "
      "AND l->>'l_receiptdate'::Date < DATE '1995-01-01' "
      "AND o->>'o_orderkey'::BigInt IS NOT NULL "
      "GROUP BY l->>'l_shipmode' ORDER BY 1",
  };
  return kStatements;
}

/// Q1 and Q6 digests over a TPC-H combined relation: the post-update probe.
std::vector<Digest> TpchUpdateProbe(const Relation& rel, Gate* gate) {
  std::vector<Digest> out;
  for (int q : {1, 6}) {
    jt::exec::ExecOptions options;
    jt::exec::QueryContext ctx(options);
    out.push_back(DigestRows(jt::workload::RunTpchQuery(q, rel, ctx)));
    const jt::Status st = ctx.ConsumeStatus();
    gate->Check(st.ok(), "TPC-H Q" + std::to_string(q) + ": " + st.ToString());
  }
  return out;
}

}  // namespace

void RunTpchAnalytics(const RunConfig& config, Report* report, Gate* gate) {
  jt::workload::TpchOptions tpch;
  // SF 0.01 (29 MB of JSON): a Q1-Q22 round takes under a second, so a run
  // holds dozens of rounds; at SF 0.05 a round took ~3 s and a run ~6.
  tpch.scale_factor = config.tiny ? 0.002 : 0.01;
  tpch.seed = DeriveSeed(config.seed, "tpch");

  // Set-up, five times so setup_s is a median: generation + Tiles load.
  CommonSamples common;
  std::vector<std::string> docs;
  std::unique_ptr<Relation> rel;
  for (int rep = 0; rep < 5; rep++) {
    rel.reset();
    docs = {};
    const double t0 = Now();
    {
      Span span("workload:GenerateTpch");
      docs = std::move(jt::workload::GenerateTpch(tpch).combined);
    }
    common.generate_s.push_back(Now() - t0);
    LoadSample load;
    rel = LoadTiles(docs, "tpch", &load, gate);
    common.setup_s.push_back(Now() - t0);
    common.loads.push_back(std::move(load));
    if (rel == nullptr) return;
  }
  common.docs_per_load = docs.size();
  common.input_bytes = TextBytes(docs);
  char note[160];
  std::snprintf(note, sizeof(note),
                "tpch-analytics: SF %g, %zu docs, %.1f MB JSON, %zu load "
                "threads, queries on 1 thread",
                tpch.scale_factor, docs.size(),
                static_cast<double>(common.input_bytes) / 1e6, kThreads);
  report->Note(note);
  report->Mark("setup");

  Dataset set = PrepareDataset("tpch", std::move(rel), config.seed);
  const Relation& tiles = *set.rel;
  // One thread per query. On a few shared vCPUs a parallel query waits for
  // its slowest worker, so its latency follows how the host schedules the
  // vCPUs: with 4 threads the geomean of 5 runs spread 0.27 (IQR/median) and
  // the tail 0.83, with 1 thread 0.03 and 0.06 in the same time slots, for
  // a geomean only 1.45 times as high.
  jt::exec::ExecOptions options;

  // Reference answers over a kJsonb relation of the same documents: Q1-Q22
  // (expected[q]), then the post-update probe.
  std::vector<Digest> expected = InChild(
      [&](Gate* child_gate) {
        std::vector<Digest> out(23);
        std::unique_ptr<Relation> ref =
            AlignedReference(tiles, docs, child_gate);
        if (ref == nullptr) return std::vector<Digest>{};
        for (int q = 1; q <= 22; q++) {
          jt::exec::QueryContext ctx(options);
          out[q] = DigestRows(jt::workload::RunTpchQuery(q, *ref, ctx));
        }
        ApplyUpdates(ref.get(), set.batch, child_gate);
        for (const Digest& d : TpchUpdateProbe(*ref, child_gate)) {
          out.push_back(d);
        }
        return out;
      },
      gate);
  docs = {};
  gate->Check(expected.size() == 25, "reference answers incomplete");
  if (expected.size() != 25) return;
  const std::vector<Digest> expected_probe(expected.begin() + 23,
                                           expected.end());
  if (config.corrupt_reference) expected[1].hash ^= 1;
  report->Mark("reference");

  jt::service::QueryService service;
  jt::service::ResourceGroupConfig group;
  group.concurrency = 1;
  if (!service.CreateGroup("tpch", group).ok()) {
    gate->Check(false, "CreateGroup");
    return;
  }

  // One lifecycle: persist round trip of the relation, the update batch on
  // the reopened copy and the probe on the updated copy.
  const std::string path = config.out_dir + "/relation.jtrl";
  auto lifecycle = [&] {
    RequestScope request;
    Span span("bench:lifecycle");
    PersistSample persist;
    std::unique_ptr<Relation> copy =
        PersistRoundTrip(tiles, path, set.serialized, &persist, gate);
    common.persists.push_back(persist);
    if (copy == nullptr) return;
    common.updates.push_back(ApplyUpdates(copy.get(), set.batch, gate));
    gate->Check(TpchUpdateProbe(*copy, gate) == expected_probe,
                "TPC-H Q1/Q6 after updates differ from the reference");
  };

  // Runs whole rounds of Q1..Q22 until `seconds` have passed; returns the
  // rounds' wall time. A timed round is followed by one lifecycle, so the
  // persist and update samples spread over the whole timed phase.
  auto run_rounds = [&](double seconds, ExecTrace* trace,
                        std::map<std::string, std::vector<double>>* by_query) {
    const double start = Now();
    double rounds_s = 0;
    do {
      const double round_start = Now();
      for (int q = 1; q <= 22; q++) {
        char label[16];
        std::snprintf(label, sizeof(label), "Q%02d", q);
        Digest got;
        double ms = 0;
        jt::Status st = RunAdmitted(
            &service, "tpch", options, "exec:RunTpchQuery",
            [&](jt::exec::QueryContext& ctx) -> jt::Result<jt::exec::RowSet> {
              return jt::workload::RunTpchQuery(q, tiles, ctx);
            },
            &got, &ms, trace);
        const bool ok = st.ok() && got == expected[q];
        gate->Check(ok, std::string("TPC-H ") + label + ": " +
                            (st.ok() ? "result differs from reference"
                                     : st.ToString()));
        if (by_query != nullptr && ok) (*by_query)[label].push_back(ms);
      }
      rounds_s += Now() - round_start;
      if (by_query != nullptr) lifecycle();
    } while (Now() - start < seconds);
    return rounds_s;
  };

  run_rounds(0, nullptr, nullptr);  // warm-up round, checked, not timed
  report->Mark("warm-up");
  RunTimedPhase(config, run_rounds, &service, "tpch", report);
  report->Mark("timed");
  if (config.trace) {
    report->Set("sql.plan_ms",
                TimePlanning(TpchSqlStatements(), {{"tpch", &tiles}}, gate),
                "ms");
  }
  ReportCommon(common, config.trace, report);
}

}  // namespace perfbench
