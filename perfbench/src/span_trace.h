// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around the public calls
// it makes into each jsontiles module, so the library itself stays
// untouched. A span is named "<layer>:<call>" (layer = the module: workload,
// storage, tiles, exec, sql, service, or bench for the benchmark's own
// request wrappers). Each span records start, end, the span that was open on
// the same thread when it began (its parent) and the request it belongs to.
// Spans stay in memory until the run ends and are written out once.
//
// When tracing is disabled (the untraced run that yields the end-to-end
// metrics), constructing a Span is one relaxed atomic load.
#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  // string literal, "<layer>:<call>"
  uint64_t id = 0;
  uint64_t parent = 0;    // 0 = root
  uint64_t request = 0;   // 0 = outside any request
  uint32_t thread = 0;
  int64_t start_ns = 0;   // steady clock, relative to the recorder's epoch
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint64_t NewRequestId() { return next_request_.fetch_add(1) + 1; }

  std::vector<SpanRecord> Snapshot() const;
  /// Self time per layer in seconds: each span's duration minus the time its
  /// child spans cover, summed by the layer prefix of its name.
  std::map<std::string, double> LayerSelfSeconds() const;
  size_t size() const;
  /// Writes every span as Chrome trace-event JSON ("ph":"X", durations in
  /// microseconds) with parent and request ids in "args".
  bool WriteJson(const std::string& path) const;

 private:
  friend class Span;
  SpanRecorder();
  int64_t NowNs() const;
  void Append(const SpanRecord& record);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_span_{0};
  std::atomic<uint64_t> next_request_{0};
  int64_t epoch_ns_ = 0;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span. No-op while the recorder is disabled.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord record_;
  bool active_ = false;
  uint64_t saved_parent_ = 0;
};

/// Marks the calling thread's spans as belonging to one request until the
/// scope ends.
class RequestScope {
 public:
  RequestScope();
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  uint64_t saved_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
