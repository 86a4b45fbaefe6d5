// The two batch workloads: whole jobs back to back, each job run in
// both modes, every output checked against the oracle.
//
//   wordcount-zipf  Zipf text (50k vocabulary, exponent 1.0), no
//                   combiner, in-memory store, inproc transport, codec
//                   none.  Reduce-bound: hot-key updates in the store.
//   sort-spill-tcp  uniform random integers over a range far larger
//                   than the record count, range partitioner,
//                   spill-merge store spilling several times per
//                   reducer, tcp transport, lz4 codec.  Nearly every
//                   record is a new key: store inserts, not updates.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "apps/sort.h"
#include "apps/wordcount.h"
#include "harness.h"
#include "oracle.h"
#include "simmr/calibrate.h"
#include "simmr/hadoop_sim.h"
#include "simmr/profiles.h"
#include "workload/generators.h"

namespace perfbench {

namespace mr = bmr::mr;
using bmr::Status;

namespace {

constexpr int kReducers = 4;
/// Map tasks per job: four waves over the map slots of a 4-core host,
/// so mapper slack exists for the barrier-less reducers to use.
constexpr int kMapTasks = 16;
constexpr int kSetupRepeats = 3;
constexpr int kMinJobsPerMode = 3;
constexpr int kRssJobs = 3;

struct BatchWorkload {
  const char* name;
  bool is_sort;
  const char* transport;
  const char* codec;
  bmr::core::StoreType store;
  uint64_t spill_threshold_bytes;  // kSpillMerge only
  uint64_t text_bytes;             // wordcount input size
  uint64_t sort_records;           // sort input records
  int64_t sort_max;                // sort values are uniform in [0, max]
};

constexpr BatchWorkload kWordCountZipf = {
    "wordcount-zipf", false, "inproc", "none", bmr::core::StoreType::kInMemory,
    0, 24ull << 20, 0, 0};
constexpr BatchWorkload kSortSpillTcp = {
    "sort-spill-tcp", true, "tcp", "lz4", bmr::core::StoreType::kSpillMerge,
    3ull << 20, 0, 1000000, 1ll << 40};

/// A set-up cluster with its loaded input.
struct Loaded {
  std::unique_ptr<mr::ClusterContext> cluster;
  TimedTransport* timed = nullptr;
  std::vector<std::string> files;
  uint64_t input_bytes = 0;
  uint64_t split_bytes = 0;
};

bmr::StatusOr<Loaded> Load(const BatchWorkload& w, uint64_t seed,
                           bool instrumented) {
  Loaded loaded;
  BMR_ASSIGN_OR_RETURN(
      loaded.cluster,
      MakeCluster(BenchClusterSpec(w.transport),
                  instrumented ? &loaded.timed : nullptr));
  if (w.is_sort) {
    bmr::workload::IntGenOptions gen;
    gen.count = w.sort_records;
    gen.num_files = 4;
    gen.min_value = 0;
    gen.max_value = w.sort_max;
    gen.seed = seed;
    BMR_ASSIGN_OR_RETURN(
        loaded.files,
        bmr::workload::GenerateRandomInts(loaded.cluster.get(), "/in", gen));
  } else {
    bmr::workload::TextGenOptions gen;
    gen.total_bytes = w.text_bytes;
    gen.num_files = 4;
    gen.vocabulary = 50000;
    gen.zipf_exponent = 1.0;
    gen.seed = seed;
    BMR_ASSIGN_OR_RETURN(
        loaded.files,
        bmr::workload::GenerateZipfText(loaded.cluster.get(), "/in", gen));
  }
  uint64_t largest = 0;
  for (const std::string& file : loaded.files) {
    BMR_ASSIGN_OR_RETURN(bmr::dfs::FileInfo info,
                         loaded.cluster->client(0)->GetFileInfo(file));
    loaded.input_bytes += info.size;
    largest = std::max(largest, info.size);
  }
  int splits_per_file = kMapTasks / static_cast<int>(loaded.files.size());
  loaded.split_bytes = (largest + splits_per_file - 1) / splits_per_file;
  return loaded;
}

/// Builds the workload's jobs, each with a fresh output directory.
class JobFactory {
 public:
  JobFactory(const BatchWorkload& w, const Loaded& loaded,
             std::string scratch_dir)
      : w_(w), loaded_(loaded), scratch_dir_(std::move(scratch_dir)) {}

  mr::JobSpec Make(bool barrierless) {
    bmr::apps::AppOptions options;
    options.input_files = loaded_.files;
    options.output_path = "/out/" + std::to_string(next_++);
    options.num_reducers = kReducers;
    options.barrierless = barrierless;
    options.store.type = w_.store;
    options.store.scratch_dir = scratch_dir_;
    if (w_.spill_threshold_bytes > 0) {
      options.store.spill_threshold_bytes = w_.spill_threshold_bytes;
    }
    options.extra.Set("shuffle.codec", w_.codec);
    if (w_.is_sort) {
      options.extra.SetInt("sort.min", 0);
      options.extra.SetInt("sort.max", w_.sort_max);
    }
    mr::JobSpec spec = w_.is_sort ? bmr::apps::MakeSortJob(options)
                                  : bmr::apps::MakeWordCountJob(options);
    spec.split_bytes = loaded_.split_bytes;
    return spec;
  }

 private:
  const BatchWorkload& w_;
  const Loaded& loaded_;
  std::string scratch_dir_;
  int next_ = 0;
};

/// Checks every job: the first job of each mode is decoded and compared
/// with the oracle; every job's raw part files must hash equal to the
/// first verified output, which makes the two modes byte-identical.
class Verifier {
 public:
  Verifier(const BatchOracle* oracle, mr::ClusterContext* cluster)
      : oracle_(oracle), client_(cluster->client(0)) {}

  Status Verify(const mr::JobResult& result) {
    Status st = VerifyImpl(result);
    DeleteOutput(client_, result);
    if (!st.ok()) {
      std::fprintf(stderr, "output check failed: %s\n", st.ToString().c_str());
    }
    return st;
  }

  uint64_t output_bytes() const { return golden_ ? golden_->bytes : 0; }

 private:
  Status VerifyImpl(const mr::JobResult& result) {
    if (!result.ok()) return result.status;
    BMR_ASSIGN_OR_RETURN(OutputDigest digest, DigestOutput(client_, result));
    if (full_checks_left_ > 0) {
      --full_checks_left_;
      BMR_RETURN_IF_ERROR(oracle_->Check(client_, result));
    }
    if (!golden_) golden_ = digest;
    if (!(digest == *golden_)) {
      return Status::DataLoss(
          "output is not byte-identical to the first verified output");
    }
    return Status::Ok();
  }

  const BatchOracle* oracle_;
  bmr::dfs::DfsClient* client_;
  std::optional<OutputDigest> golden_;
  int full_checks_left_ = 2;  // the warm-up job of each mode
};

/// Simulated job time of the workload in one mode, with simmr's
/// per-record costs calibrated on this host.
double PredictJobSeconds(const BatchWorkload& w, const Loaded& loaded,
                         const bmr::simmr::MicroCosts& costs,
                         const mr::JobResult& real, uint64_t distinct_keys,
                         uint64_t output_bytes, bool barrierless,
                         uint64_t seed) {
  const double input_gb = static_cast<double>(loaded.input_bytes) / (1 << 30);
  bmr::simmr::SimJob job = w.is_sort
                               ? bmr::simmr::SortSim(input_gb, kReducers)
                               : bmr::simmr::WordCountSim(input_gb, kReducers);
  // Host speed relative to the period-calibrated profile, from the four
  // measured reduce-side costs; it rescales the map-side constants,
  // which the calibration entry point does not measure.
  double speed = std::cbrt(costs.merge_secs_per_record /
                           job.merge_cost_per_record *
                           costs.grouped_reduce_secs_per_record /
                           job.reduce_cost_per_record *
                           costs.incremental_secs_per_record /
                           job.incremental_cost_per_record);
  job.map_cost_per_record *= speed;
  job.map_sort_cost_per_record *= speed;
  job.merge_cost_per_record = costs.merge_secs_per_record;
  job.reduce_cost_per_record = costs.grouped_reduce_secs_per_record;
  job.incremental_cost_per_record = costs.incremental_secs_per_record;
  job.finalize_cost_per_key = costs.finalize_secs_per_key;
  job.barrierless = barrierless;
  job.input_bytes = static_cast<double>(loaded.input_bytes);
  job.map_input_records = real.counters.Get(mr::kCtrMapInputRecords);
  job.map_output_records = real.counters.Get(mr::kCtrMapOutputRecords);
  job.map_output_bytes =
      static_cast<double>(real.counters.Get(mr::kCtrMapOutputBytes));
  job.distinct_keys = distinct_keys;
  job.output_bytes = static_cast<double>(output_bytes);
  job.num_map_tasks =
      static_cast<int>(real.counters.Get(mr::kCtrMapTasksCommitted));
  job.store.type = w.store;
  job.store.spill_threshold_bytes = w.spill_threshold_bytes;
  job.seed = seed;
  bmr::simmr::SimResult sim =
      bmr::simmr::SimulateJob(BenchClusterSpec(w.transport), job);
  return sim.ok() ? sim.completion_seconds : 0.0;
}

void NoteProvenance(const BatchWorkload& w, const Loaded& loaded,
                    const BatchOracle& oracle, const RunOptions& options,
                    Report* report) {
  bmr::cluster::ClusterSpec spec = loaded.cluster->spec;
  report->Note("seed", static_cast<int64_t>(options.seed));
  report->Note("nproc", HostCores());
  report->Note("map_slots", spec.total_map_slots());
  report->Note("reduce_slots", spec.total_reduce_slots());
  report->Note("reducers", kReducers);
  report->Note("map_tasks", kMapTasks);
  report->Note("input_bytes", static_cast<int64_t>(loaded.input_bytes));
  report->Note("input_records", static_cast<int64_t>(oracle.input_records()));
  report->Note("distinct_keys", static_cast<int64_t>(oracle.distinct_keys()));
  report->Note("transport", w.transport);
  report->Note("codec", w.codec);
  report->Note("store", bmr::core::StoreTypeName(w.store));
  if (w.spill_threshold_bytes > 0) {
    report->Note("spill_threshold_bytes",
                 static_cast<int64_t>(w.spill_threshold_bytes));
  }
  report->Note("traced", options.trace ? "1" : "0");
}

bool RunBatch(const BatchWorkload& w, const RunOptions& options,
              RunOutcome* out) {
  // Set-up: build the cluster and generate + load the inputs, several
  // times; the last one is kept.
  std::vector<double> setup_times;
  Loaded loaded;
  for (int i = 0; i < (options.trace ? 1 : kSetupRepeats); ++i) {
    loaded = Loaded();  // tear the previous cluster down first
    int64_t t0 = NowNs();
    auto attempt = Load(w, options.seed, options.trace);
    setup_times.push_back(SecondsSince(t0));
    if (!attempt.ok()) {
      std::fprintf(stderr, "%s: set-up failed: %s\n", w.name,
                   attempt.status().ToString().c_str());
      return false;
    }
    loaded = std::move(*attempt);
  }
  auto oracle = w.is_sort
                    ? BatchOracle::Sort(loaded.cluster->client(0), loaded.files)
                    : BatchOracle::WordCount(loaded.cluster->client(0),
                                             loaded.files, kReducers);
  if (!oracle.ok()) {
    std::fprintf(stderr, "%s: oracle failed: %s\n", w.name,
                 oracle.status().ToString().c_str());
    return false;
  }
  NoteProvenance(w, loaded, *oracle, options, &out->report);

  JobFactory jobs(w, loaded, options.scratch_dir);
  Verifier verifier(&*oracle, loaded.cluster.get());
  mr::ClusterContext* cluster = loaded.cluster.get();
  auto run = [&](bool barrierless, double* peak_rss_mb = nullptr) {
    if (peak_rss_mb != nullptr) ResetPeakRss();
    TimedJob job = RunTimed(cluster, jobs.Make(barrierless));
    if (peak_rss_mb != nullptr) *peak_rss_mb = PeakRssMb();
    out->tally.Add(verifier.Verify(job.result).ok());
    return job;
  };

  // Warm-up, discarded: one job per mode.
  TimedJob warm_barrierless = run(true);
  run(false);

  std::vector<double> bl_wall, bl_cpu, b_wall, all_wall, rss;
  if (!options.trace) {
    int64_t t0 = NowNs();
    for (int i = 0;; ++i) {
      bool barrierless = i % 2 == 0;
      bool enough = SecondsSince(t0) >= options.seconds &&
                    static_cast<int>(b_wall.size()) >= kMinJobsPerMode;
      if (enough && barrierless) break;
      // Peak RSS of the first few barrier-less jobs: the DFS never frees
      // deleted blocks, so a later job's peak would grow with the
      // number of jobs run before it.
      double peak_rss_mb = 0;
      bool sample_rss = barrierless && static_cast<int>(rss.size()) < kRssJobs;
      TimedJob job = run(barrierless, sample_rss ? &peak_rss_mb : nullptr);
      if (sample_rss) rss.push_back(peak_rss_mb);
      (barrierless ? bl_wall : b_wall).push_back(job.wall_s);
      if (barrierless) bl_cpu.push_back(job.cpu_s);
      all_wall.push_back(job.wall_s);
    }
    double total_wall = 0;
    for (double s : all_wall) total_wall += s;
    Report& r = out->report;
    r.Set("setup_s", Median(setup_times), "s");
    r.Set("barrierless_job_s", Median(bl_wall), "s");
    r.Set("barrier_job_s", Median(b_wall), "s");
    r.Set("barrierless_cpu_s", Median(bl_cpu), "s");
    r.Set("peak_rss_mb", Median(rss), "MB");
    r.Set("jobs_per_s", static_cast<double>(all_wall.size()) / total_wall,
          "1/s");
    // Latency percentiles over barrier-less jobs: across both modes the
    // samples are bimodal and the median would sit between the modes.
    r.Set("job_latency_p50_s", Quantile(bl_wall, 0.5), "s");
    r.Set("job_latency_p90_s", Quantile(bl_wall, 0.9), "s");
    r.Set("mr.barrierless_speedup", Median(b_wall) / Median(bl_wall), "ratio");
    r.Set("jobs_measured", static_cast<double>(all_wall.size()), "count");
    return true;
  }

  // Traced run: alternate untraced and traced jobs in each mode.
  LayerSamples samples;
  std::vector<double> bl_traced;
  int64_t t0 = NowNs();
  for (int round = 0; round < 2 || SecondsSince(t0) < options.seconds;
       ++round) {
    for (bool barrierless : {true, false}) {
      TimedJob plain = run(barrierless);
      (barrierless ? bl_wall : b_wall).push_back(plain.wall_s);
      TracedJob traced =
          RunTraced(cluster, loaded.timed, jobs.Make(barrierless));
      out->tally.Add(verifier.Verify(traced.job.result).ok());
      if (barrierless) bl_traced.push_back(traced.job.wall_s);
      samples.Add(barrierless, std::move(traced.layers));
    }
  }
  LayerValues run_values;
  run_values["obs.trace_overhead"] = Median(bl_traced) / Median(bl_wall);
  run_values["mr.barrierless_speedup"] = Median(b_wall) / Median(bl_wall);
  const bmr::simmr::MicroCosts costs =
      w.is_sort ? bmr::simmr::MeasureSortCosts(200000, kMapTasks, options.seed)
                : bmr::simmr::MeasureAggregationCosts(
                      200000, 50000, kMapTasks, options.seed, w.store);
  for (bool barrierless : {true, false}) {
    double measured = Median(barrierless ? bl_wall : b_wall);
    double predicted = PredictJobSeconds(
        w, loaded, costs, warm_barrierless.result, oracle->distinct_keys(),
        verifier.output_bytes(), barrierless, options.seed);
    const char* name = barrierless ? "simmr.predicted_job_s"
                                   : "simmr.predicted_barrier_job_s";
    const char* error = barrierless ? "simmr.predict_error"
                                    : "simmr.barrier_predict_error";
    run_values[name] = predicted;
    run_values[error] = predicted / measured - 1;
  }
  samples.Emit(run_values, &out->report);
  return true;
}

}  // namespace

bool RunWordCountZipf(const RunOptions& options, RunOutcome* out) {
  return RunBatch(kWordCountZipf, options, out);
}

bool RunSortSpillTcp(const RunOptions& options, RunOutcome* out) {
  return RunBatch(kSortSpillTcp, options, out);
}

}  // namespace perfbench
