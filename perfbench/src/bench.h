// Shared machinery of the repository benchmark: run configuration, timing
// and statistics, the result report, the correctness gate, and the relation
// lifecycle (Tiles load, persist round trip, update batch) that every
// workload measures on its own data.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "exec/scan.h"
#include "obs/plan_profile.h"
#include "service/query_service.h"
#include "storage/loader.h"
#include "storage/relation.h"

namespace perfbench {

namespace jt = jsontiles;

/// Worker threads for loads. Fixed so a workload means the same work on every
/// machine.
inline constexpr size_t kThreads = 4;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory inside the checkout for the relation file of the persist
  /// round trip and the written span trace.
  std::string out_dir;
  /// Self-test scale: the same phases over a few thousand documents.
  bool tiny = false;
  /// Self-test: corrupt one reference digest so the gate must trip.
  bool corrupt_reference = false;
};

/// Independent sub-seed for one input stream (TPC-H, Twitter, Yelp, update
/// batch, SQL parameters) derived from the workload seed.
uint64_t DeriveSeed(uint64_t seed, const char* stream);

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);
double Geomean(const std::vector<double>& v);
double PeakRssMb();

/// Metrics of one run, printed as the final JSON line, plus free-form report
/// lines printed to stderr.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line);
  /// Records the wall time since the previous mark (or construction) as
  /// the duration of `phase`; printed as one line with the notes.
  void Mark(const char* phase);
  void PrintNotes() const;
  /// {"correct":...,"attempted":...,"failed":...,"metrics":{...}}
  std::string ResultLine(bool correct, uint64_t attempted,
                         uint64_t failed) const;
  const std::map<std::string, std::pair<double, std::string>>& metrics()
      const {
    return metrics_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> notes_;
  std::string phases_;
  double last_mark_ = Now();
};

/// Order-sensitive digest of a result set. Floats are printed with 10
/// significant digits.
struct Digest {
  uint64_t hash = 0;
  size_t rows = 0;
  bool operator==(const Digest& o) const {
    return hash == o.hash && rows == o.rows;
  }
};
Digest DigestRows(const jt::exec::RowSet& rows);

/// Counts checked operations and failures (errors, refusals, wrong answers).
/// Thread-safe.
class Gate {
 public:
  void Check(bool ok, const std::string& what);
  /// Adds checks made elsewhere (a child process).
  void Merge(uint64_t attempted, uint64_t failed);
  uint64_t attempted() const;
  uint64_t failed() const;

 private:
  mutable std::mutex mu_;
  uint64_t attempted_ = 0;  // guarded by mu_
  uint64_t failed_ = 0;     // guarded by mu_
  int reported_ = 0;        // guarded by mu_
};

// ---- Relation lifecycle ----------------------------------------------------

/// One timed Tiles load with its per-layer breakdown.
struct LoadSample {
  double wall_s = 0;
  jt::storage::LoadBreakdown breakdown;
  /// Registry counter deltas over the load (fpgrowth.*, tiles.*,
  /// jsonb.ondemand.*).
  std::map<std::string, double> counters;
  size_t doc_bytes = 0;
  size_t tile_bytes = 0;
};

/// Load `docs` as Tiles with default LoadOptions except kThreads workers.
/// Records a storage span.
std::unique_ptr<jt::storage::Relation> LoadTiles(
    const std::vector<std::string>& docs, const std::string& name,
    LoadSample* sample, Gate* gate);

size_t TextBytes(const std::vector<std::string>& docs);

/// A kJsonb relation holding the same documents as `tiles`, in the tiles'
/// row order, so row-addressed updates can be applied to both. Checks (in
/// `gate`) that the Tiles load kept exactly the input documents.
std::unique_ptr<jt::storage::Relation> AlignedReference(
    const jt::storage::Relation& tiles, const std::vector<std::string>& docs,
    Gate* gate);

using UpdateBatch = std::vector<std::pair<size_t, std::string>>;

/// A seeded batch over `rel`'s rows: same-shape edits (one integer value
/// changed), shape-changing replacements (a document whose top-level keys
/// are disjoint from the row's), and one tile whose majority is replaced by
/// such documents so the §4.7 tile recompute runs.
UpdateBatch MakeUpdateBatch(const jt::storage::Relation& rel, uint64_t seed,
                            size_t edits, size_t replacements);

struct UpdateSample {
  double wall_s = 0;
  size_t rows = 0;            // UpdateRow calls
  std::vector<double> op_us;  // one per UpdateRow
  size_t recomputes = 0;      // tiles rebuilt by the outlier rule
};

/// Apply `batch` in order, timing each Relation::UpdateRow.
UpdateSample ApplyUpdates(jt::storage::Relation* rel, const UpdateBatch& batch,
                          Gate* gate);

struct PersistSample {
  double save_s = 0;
  double open_s = 0;
  /// Tiles whose bloom-filter inserted count changed in the round trip (see
  /// PersistRoundTrip).
  size_t drifted_tiles = 0;
};

/// Byte digest of SerializeRelation(rel).
Digest SerializedDigest(const jt::storage::Relation& rel);

/// SaveRelation + LoadRelation through `path` (timed), then checks that the
/// reopened relation serializes to `expected` (untimed). Removes the file.
///
/// One difference is known and counted instead of failing the check:
/// opening a tile restores its seen-paths bloom filter and then re-inserts
/// the extracted column paths into it, so the filter's inserted count grows
/// on every open while its bits stay the same. The comparison runs with each
/// drifted count set back to the original's, so every other byte is still
/// compared, and `sample->drifted_tiles` reports how many tiles drifted.
std::unique_ptr<jt::storage::Relation> PersistRoundTrip(
    const jt::storage::Relation& rel, const std::string& path,
    const Digest& expected, PersistSample* sample, Gate* gate);

/// A data set under test: the Tiles relation, its update batch and the
/// serialization digest of the loaded relation.
struct Dataset {
  std::string name;
  std::unique_ptr<jt::storage::Relation> rel;
  UpdateBatch batch;
  Digest serialized;
};

/// Builds the update batch and the serialization digest for a freshly loaded
/// relation (untimed).
Dataset PrepareDataset(std::string name,
                       std::unique_ptr<jt::storage::Relation> rel,
                       uint64_t seed);

/// Runs `fn` in a forked child process and returns the digests it computed.
/// The reference relations and their answers are built this way, so their
/// memory never counts in this process's peak RSS. Checks that fail in the
/// child count in `gate`. Call only while this process runs no other thread.
std::vector<Digest> InChild(
    const std::function<std::vector<Digest>(Gate*)>& fn, Gate* gate);

/// Set-up, load, persist and update samples every workload reports the
/// same way.
struct CommonSamples {
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<LoadSample> loads;
  size_t docs_per_load = 0;
  size_t input_bytes = 0;  // JSON text bytes of one load
  std::vector<PersistSample> persists;
  std::vector<UpdateSample> updates;
};

/// End-to-end (untraced) or per-layer (traced) metrics of set-up, load,
/// persist and update.
void ReportCommon(const CommonSamples& samples, bool traced, Report* report);

// ---- Queries ---------------------------------------------------------------

/// Per-layer numbers of the queries run with tracing on.
struct ExecTrace {
  size_t queries = 0;
  double scan_ms = 0, join_ms = 0, aggregate_ms = 0, sort_ms = 0,
         other_ms = 0, unattributed_ms = 0;
  double join_build_rows = 0, join_probe_rows = 0;
  double max_arena_mb = 0;
  double max_budget_mb = 0;  // peak memory charged by operators
  double spilled_bytes = 0;
  uint64_t tiles_scanned = 0, tiles_skipped = 0;
  std::vector<double> context_us;
  std::vector<double> admit_wait_ms;
  std::vector<double> exec_ms;

  /// Fold one query: its operator profile, its wall time inside the engine
  /// and its context's counters.
  void Add(const jt::obs::PlanProfile& profile, double wall_ms,
           jt::exec::QueryContext& ctx);
};

/// One query issued through the query service. Untraced, it is the
/// service's closed-loop QueryService::Submit path. Traced, it is the public
/// calls Submit is made of — Admit, QueryContext, Attach, run, Release —
/// each in a span, with an operator profile attached to the context.
/// `run` executes the query. Sets the digest of its result and the query's
/// latency in ms: admission through release, without the digest.
using QueryFn =
    std::function<jt::Result<jt::exec::RowSet>(jt::exec::QueryContext&)>;
jt::Status RunAdmitted(jt::service::QueryService* service,
                       const std::string& group,
                       const jt::exec::ExecOptions& options,
                       const char* span_name, const QueryFn& run,
                       Digest* digest, double* latency_ms, ExecTrace* trace);

/// Adds the latency metrics shared by every workload from per-query
/// samples: `by_query` maps a query label to its latencies (ms).
void ReportQueryLatencies(
    const std::map<std::string, std::vector<double>>& by_query,
    double timed_wall_s, Report* report);

/// The timed phase of a workload: runs at least one round or cycle and for
/// at least `seconds`, tracing each query into `trace` when it is not null,
/// and records each checked query's latency (ms) by label. Returns the wall time of its query phases, the
/// base of queries_per_s.
using TimedPhase = std::function<double(
    double seconds, ExecTrace* trace,
    std::map<std::string, std::vector<double>>* by_query)>;

/// Untraced run: `phase` for config.seconds gives the query latency metrics.
/// Traced run: `phase` alternately untraced and traced, one round or cycle
/// (`seconds` = 0) at a time, gives the exec and service layer metrics and
/// the tracing overhead.
void RunTimedPhase(const RunConfig& config, const TimedPhase& phase,
                   jt::service::QueryService* service,
                   const std::string& group, Report* report);

/// Per-layer metrics from the exec trace, the service group's counters and
/// the span recorder. `untraced_p50_ms`/`traced_p50_ms` give the tracing
/// overhead.
void ReportTracedLayers(const ExecTrace& trace,
                        const jt::service::GroupSnapshot& group,
                        double untraced_p50_ms, double traced_p50_ms,
                        Report* report);

/// Per-layer load metrics: median of each field over `loads`.
void ReportLoadLayers(const std::vector<LoadSample>& loads, Report* report);

/// tiles.update_us_p50 / tiles.update_us_p99 / tiles.recomputes.
void ReportUpdateLayers(const std::vector<UpdateSample>& updates,
                        Report* report);

/// EXPLAIN of each statement (parse, bind, join order; no execution),
/// timed; returns the median in ms. Failures count in `gate`.
double TimePlanning(const std::vector<std::string>& statements,
                    const std::map<std::string,
                                   const jt::storage::Relation*>& tables,
                    Gate* gate);

/// Writes the span trace to `<out_dir>/trace-<workload>-<seed>.json` and
/// adds per-layer self times.
void FinishTrace(const RunConfig& config, Report* report);

// ---- Workloads ---------------------------------------------------------------

/// Each workload runs set-up, its reference, its timed phase and its
/// checks, filling `report` with every end-to-end metric (untraced run) or
/// every per-layer metric (traced run).
void RunTpchAnalytics(const RunConfig& config, Report* report, Gate* gate);
void RunTwitterIngest(const RunConfig& config, Report* report, Gate* gate);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
