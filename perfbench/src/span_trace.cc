#include "span_trace.h"

#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local uint64_t tls_parent = 0;
thread_local uint64_t tls_request = 0;
std::atomic<uint32_t> next_thread{0};
thread_local uint32_t tls_thread = next_thread.fetch_add(1);

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string LayerOf(const char* name) {
  std::string s(name);
  const size_t colon = s.find(':');
  return colon == std::string::npos ? s : s.substr(0, colon);
}

}  // namespace

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

SpanRecorder::SpanRecorder() : epoch_ns_(SteadyNs()) {}

int64_t SpanRecorder::NowNs() const { return SteadyNs() - epoch_ns_; }

void SpanRecorder::Append(const SpanRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(record);
}

std::vector<SpanRecord> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> SpanRecorder::LayerSelfSeconds() const {
  const std::vector<SpanRecord> spans = Snapshot();
  // A child runs on its parent's thread inside the parent's interval, and
  // siblings on one thread do not overlap, so the covered part of a parent is
  // the sum of its children's durations.
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const auto& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (const auto& s : spans) {
    int64_t ns = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    if (it != child_ns.end()) ns -= it->second;
    self[LayerOf(s.name)] += static_cast<double>(ns < 0 ? 0 : ns) * 1e-9;
  }
  return self;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  const std::vector<SpanRecord> spans = Snapshot();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans.size(); i++) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.thread,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name) {
  SpanRecorder& rec = SpanRecorder::Get();
  if (!rec.enabled()) return;
  active_ = true;
  record_.name = name;
  record_.id = rec.next_span_.fetch_add(1) + 1;
  record_.parent = tls_parent;
  record_.request = tls_request;
  record_.thread = tls_thread;
  saved_parent_ = tls_parent;
  tls_parent = record_.id;
  record_.start_ns = rec.NowNs();
}

Span::~Span() {
  if (!active_) return;
  SpanRecorder& rec = SpanRecorder::Get();
  record_.end_ns = rec.NowNs();
  tls_parent = saved_parent_;
  rec.Append(record_);
}

RequestScope::RequestScope() : saved_(tls_request) {
  tls_request = SpanRecorder::Get().NewRequestId();
}

RequestScope::~RequestScope() { tls_request = saved_; }

}  // namespace perfbench
