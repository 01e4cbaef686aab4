// The repository benchmark binary.
//
//   perfbench --workload <tpch-analytics|twitter-ingest>
//             --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//             [--scale tiny] [--corrupt-reference]
//
// Prints a human-readable report on stderr and, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}: every
// end-to-end metric with --trace 0, every per-layer metric with --trace 1.
// Exits 1 when any checked operation failed or returned a wrong answer.
#include <malloc.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "span_trace.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<tpch-analytics|twitter-ingest> --seed <n> "
               "--seconds <s> --trace <0|1> --out-dir <dir> [--scale tiny] "
               "[--corrupt-reference]\n",
               message);
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Freed memory stays in the process and is reused, instead of large
  // buffers being mapped and unmapped on every call: first-touch page
  // faults and unmaps of those buffers made up a third of a persist round
  // trip and varied with the host's memory pressure from run to run.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  perfbench::RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-reference") {
      config.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    uint64_t n = 0;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      if (!ParseUint(value, &config.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!ParseUint(value, &n) || n == 0) return Usage("bad --seconds");
      config.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (!ParseUint(value, &n) || n > 1) return Usage("bad --trace");
      config.trace = n == 1;
      have_trace = true;
    } else if (arg == "--out-dir") {
      config.out_dir = value;
    } else if (arg == "--scale") {
      if (std::strcmp(value, "tiny") != 0) return Usage("bad --scale");
      config.tiny = true;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || config.out_dir.empty()) {
    return Usage("--seed, --seconds, --trace and --out-dir are required");
  }
  if (mkdir(config.out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Usage(("cannot create " + config.out_dir).c_str());
  }

  perfbench::Report report;
  perfbench::Gate gate;
  perfbench::SpanRecorder::Get().set_enabled(config.trace);
  if (config.workload == "tpch-analytics") {
    perfbench::RunTpchAnalytics(config, &report, &gate);
  } else if (config.workload == "twitter-ingest") {
    perfbench::RunTwitterIngest(config, &report, &gate);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }
  if (config.trace) {
    perfbench::SpanRecorder::Get().set_enabled(false);
    perfbench::FinishTrace(config, &report);
  }
  report.PrintNotes();
  const bool correct = gate.failed() == 0 && gate.attempted() > 0;
  std::printf("%s\n",
              report.ResultLine(correct, gate.attempted(), gate.failed())
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
