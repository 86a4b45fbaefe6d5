// Shared plumbing of the three workloads: run options, the benchmark
// cluster, timed job execution, and aggregation of traced jobs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "layers.h"
#include "mr/engine.h"
#include "probes.h"
#include "report.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for spill files and KV-store logs (inside the checkout).
  std::string scratch_dir;
};

struct RunOutcome {
  Report report;
  Tally tally;
};

/// The three workloads; each returns false (after printing why) when
/// it could not be set up.
bool RunWordCountZipf(const RunOptions& options, RunOutcome* out);
bool RunSortSpillTcp(const RunOptions& options, RunOutcome* out);
bool RunServiceMix(const RunOptions& options, RunOutcome* out);

/// Host cores; map slots and reduce slots each add up to this.
int HostCores();

/// One worker node per core, one map and one reduce slot each.
bmr::cluster::ClusterSpec BenchClusterSpec(const std::string& transport);

/// A cluster on `spec`.  With `timed` non-null the transport is wrapped
/// in a TimedTransport (returned through `timed`), otherwise the
/// engine's own ClusterContext::Create builds it untouched.
[[nodiscard]] bmr::StatusOr<std::unique_ptr<bmr::mr::ClusterContext>>
MakeCluster(const bmr::cluster::ClusterSpec& spec, TimedTransport** timed);

double SecondsSince(int64_t start_ns);

/// One executed job: its result plus the wall and process-CPU seconds
/// JobRunner::Run took.
struct TimedJob {
  bmr::mr::JobResult result;
  double wall_s = 0;
  double cpu_s = 0;
};
TimedJob RunTimed(bmr::mr::ClusterContext* cluster,
                  const bmr::mr::JobSpec& spec);

/// Traced-job breakdowns of one run, per mode; Emit writes every
/// catalogue metric as the median over the jobs of its source mode,
/// and kRun metrics from `run_values` (0 where absent).
class LayerSamples {
 public:
  void Add(bool barrierless, LayerValues values);
  void Emit(const LayerValues& run_values, Report* report) const;

 private:
  std::vector<LayerValues> barrierless_;
  std::vector<LayerValues> barrier_;
};

/// Run `spec` traced and instrumented, and break it down.
struct TracedJob {
  TimedJob job;
  LayerValues layers;
};
TracedJob RunTraced(bmr::mr::ClusterContext* cluster, TimedTransport* timed,
                    bmr::mr::JobSpec spec);

}  // namespace perfbench
