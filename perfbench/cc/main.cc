// Benchmark driver: runs one named workload for --seconds, checks its
// outputs, and prints the metrics as the last line of standard output.
//
//   crew_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced rounds and prints the per-layer metrics, including the
// tracing overhead, and writes the stored spans to
// .bench_out/<workload>.spans.jsonl.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: crew_perfbench --workload "
               "<sim-dist-mix|rt-central-window|net-dist-window> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               message);
  return 2;
}

bool ParseInt(const char* text, long long min, long long max,
              long long* out) {
  char* end = nullptr;
  long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || value < min || value > max) return false;
  *out = value;
  return true;
}

int Main(int argc, char** argv) {
  RunOptions options;
  options.process_start_ns = NowNs();
  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    long long number = 0;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      if (!ParseInt(value, 0, INT64_MAX, &number)) return Usage("bad --seed");
      options.seed = static_cast<uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseInt(value, 1, 600, &number)) return Usage("bad --seconds");
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!ParseInt(value, 0, 1, &number)) return Usage("bad --trace");
      options.trace = number == 1;
      have_trace = true;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  Outcome (*run)(const RunOptions&) = nullptr;
  if (workload == "sim-dist-mix") {
    run = &RunSimDistMix;
  } else if (workload == "rt-central-window") {
    run = &RunRtCentralWindow;
  } else if (workload == "net-dist-window") {
    run = &RunNetDistWindow;
  } else {
    return Usage(("unknown workload " + workload).c_str());
  }
  mkdir(kOutDir, 0755);

  PrintProvenance(workload, options.seed);
  Outcome outcome = run(options);
  if (outcome.rounds.empty()) {
    std::fprintf(stderr, "error: no round ran\n");
    return 1;
  }

  int64_t attempted = 0, failed = 0;
  for (const Round& round : outcome.rounds) {
    attempted += round.attempted;
    failed += round.failed();
  }
  for (size_t i = 0; i < outcome.errors.size() && i < 20; ++i) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", outcome.errors[i].c_str());
  }
  if (outcome.errors.size() > 20) {
    std::fprintf(stderr, "... %zu check failures in all\n",
                 outcome.errors.size());
  }
  std::printf("# host reference computation: median %.4f s; every time "
              "below is scaled by %.3f s / reference\n",
              outcome.reference_s, kReferenceNominalS);
  std::printf("# rounds=%zu attempted=%lld failed=%lld checks=%s\n",
              outcome.rounds.size(), static_cast<long long>(attempted),
              static_cast<long long>(failed),
              outcome.errors.empty() ? "pass" : "FAIL");

  std::vector<Metric> metrics;
  if (options.trace) {
    metrics = PerLayer(outcome.rounds, outcome.codec);
    PrintLayerTable(outcome.rounds);
    std::string path = std::string(kOutDir) + "/" + workload + ".spans.jsonl";
    if (!Spans::Write(path)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("# spans written to %s (codec replayed %lld messages, "
                "%lld of unknown type skipped)\n",
                path.c_str(), static_cast<long long>(outcome.codec.messages),
                static_cast<long long>(outcome.codec.unknown_types));
  } else {
    metrics = EndToEnd(outcome.rounds, outcome.setup_s);
  }
  for (const Metric& m : metrics) {
    std::printf("# %-36s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  PrintResult(outcome.errors.empty(), attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
