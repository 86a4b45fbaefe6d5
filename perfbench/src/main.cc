// End-to-end and per-layer benchmark of the real engine.
//
//   perfbench --workload <wordcount-zipf|sort-spill-tcp|service-mix|all>
//             --seed N --seconds S --trace 0|1 [--scratch DIR]
//
// --trace 0 measures the end-to-end metrics, untraced and without
// probes; --trace 1 runs traced, instrumented jobs and prints the
// per-layer breakdown.  Every job's output is checked.  The last line
// of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --workload all, metric names are prefixed "<workload>/".
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>

#include "harness.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  bool (*run)(const RunOptions&, RunOutcome*);
};

constexpr Workload kWorkloads[] = {
    {"wordcount-zipf", RunWordCountZipf},
    {"sort-spill-tcp", RunSortSpillTcp},
    {"service-mix", RunServiceMix},
};

/// The metrics the JSON result carries in each mode (the human-readable
/// block also shows derived rows such as mr.barrierless_speedup).
std::set<std::string> ResultMetrics(bool trace) {
  if (!trace) {
    return {"setup_s",          "barrierless_job_s", "barrier_job_s",
            "barrierless_cpu_s", "peak_rss_mb",      "jobs_per_s",
            "job_latency_p50_s", "job_latency_p90_s"};
  }
  std::set<std::string> names;
  for (const LayerSpec& spec : LayerCatalogue()) names.insert(spec.name);
  return names;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name|all> --seed N --seconds S "
               "--trace 0|1 [--scratch DIR]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  options.scratch_dir = ".bench_build/scratch";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
      have_seconds = options.seconds > 0;
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = std::strcmp(value, "0") == 0 || options.trace;
    } else if (flag == "--scratch") {
      options.scratch_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || workload.empty() || !have_seed || !have_seconds ||
      !have_trace) {
    return Usage(argv[0]);
  }
  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (workload == "all" || workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) return Usage(argv[0]);

  std::error_code ec;
  std::filesystem::create_directories(options.scratch_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.scratch_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  const std::set<std::string> result_metrics = ResultMetrics(options.trace);
  Tally total;
  std::string metrics_json;
  for (const Workload* w : selected) {
    RunOutcome outcome;
    if (!w->run(options, &outcome)) return 1;
    total.attempted += outcome.tally.attempted;
    total.failed += outcome.tally.failed;
    double failed_frac =
        outcome.tally.attempted > 0
            ? static_cast<double>(outcome.tally.failed) / outcome.tally.attempted
            : 1.0;
    outcome.report.Set("failed_frac", failed_frac, "ratio");
    outcome.report.Print(w->name);

    Report result;
    for (const auto& [name, metric] : outcome.report.metrics()) {
      if (result_metrics.count(name) != 0) {
        result.Set(name, metric.value, metric.unit);
      }
    }
    std::string part =
        result.MetricsJson(selected.size() > 1 ? std::string(w->name) + "/" : "");
    if (!part.empty()) {
      metrics_json += (metrics_json.empty() ? "" : ", ") + part;
    }
  }
  bool correct = total.failed == 0 && total.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<long long>(total.attempted),
      static_cast<long long>(total.failed), metrics_json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
