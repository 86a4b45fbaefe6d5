// service-mix: tiny jobs through the multi-tenant JobService, where
// per-job fixed costs dominate.  One client thread drives a closed
// loop with kOutstanding submissions in flight over two equal-weight
// pools.  Submission i runs app i % 5 (grep, kNN, Last.fm,
// Black-Scholes, GA), barrier-less when (i / 5) is even and with the
// barrier otherwise; barrier-less jobs cycle through the in-memory,
// spill-merge and KV stores.
#include <cstdio>
#include <deque>

#include "apps/blackscholes.h"
#include "apps/genetic.h"
#include "apps/grep.h"
#include "apps/knn.h"
#include "apps/lastfm.h"
#include "harness.h"
#include "oracle.h"
#include "service/job_service.h"
#include "workload/generators.h"

namespace perfbench {

namespace mr = bmr::mr;
using bmr::Status;

namespace {

constexpr int kReducers = 4;
constexpr int kOutstanding = 4;
constexpr int kApps = 5;
constexpr int kCycle = kApps * 2 * 3;  // apps x modes x stores
constexpr int kSetupRepeats = 51;  // set-up takes milliseconds here
constexpr const char* kPools[] = {"tenant-a", "tenant-b"};
constexpr const char* kGrepPattern = "w7";
constexpr int kKnnK = 5;
constexpr int kBsMappers = 4;
constexpr uint64_t kBsIterations = 2000;
constexpr uint64_t kPopulation = 4000;

struct MixInputs {
  std::vector<std::string> text;
  bmr::workload::KnnData knn;
  std::vector<std::string> listens;
  std::vector<std::string> bs_units;
  std::vector<std::string> population;
  uint64_t bytes = 0;
};

struct Loaded {
  std::unique_ptr<mr::ClusterContext> cluster;
  TimedTransport* timed = nullptr;
  MixInputs inputs;
};

bmr::StatusOr<Loaded> Load(uint64_t seed, bool instrumented) {
  Loaded loaded;
  bmr::cluster::ClusterSpec spec = BenchClusterSpec("inproc");
  spec.dfs_block_bytes = 16 << 10;
  BMR_ASSIGN_OR_RETURN(
      loaded.cluster,
      MakeCluster(spec, instrumented ? &loaded.timed : nullptr));
  mr::ClusterContext* c = loaded.cluster.get();
  MixInputs& in = loaded.inputs;

  bmr::workload::TextGenOptions text;
  text.total_bytes = 32 << 10;
  text.num_files = 2;
  text.vocabulary = 2000;
  text.seed = seed;
  BMR_ASSIGN_OR_RETURN(in.text,
                       bmr::workload::GenerateZipfText(c, "/mix/text", text));
  bmr::workload::KnnGenOptions knn;
  knn.training_size = 100;
  knn.experimental_count = 2000;
  knn.num_files = 2;
  knn.seed = seed;
  BMR_ASSIGN_OR_RETURN(in.knn, bmr::workload::GenerateKnnData(c, "/mix/knn", knn));
  bmr::workload::ListenGenOptions listens;
  listens.count = 4000;
  listens.num_files = 2;
  listens.num_users = 50;
  listens.num_tracks = 500;
  listens.seed = seed;
  BMR_ASSIGN_OR_RETURN(in.listens,
                       bmr::workload::GenerateListens(c, "/mix/fm", listens));
  bmr::workload::BlackScholesGenOptions bs;
  bs.num_mappers = kBsMappers;
  bs.iterations_per_mapper = kBsIterations;
  bs.seed = seed;
  BMR_ASSIGN_OR_RETURN(in.bs_units,
                       bmr::workload::GenerateBlackScholesUnits(c, "/mix/bs", bs));
  bmr::workload::PopulationGenOptions ga;
  ga.population = kPopulation;
  ga.num_files = 2;
  ga.seed = seed;
  BMR_ASSIGN_OR_RETURN(in.population,
                       bmr::workload::GeneratePopulation(c, "/mix/ga", ga));
  for (const auto* files : {&in.text, &in.knn.experimental_files, &in.listens,
                            &in.bs_units, &in.population}) {
    for (const std::string& file : *files) {
      BMR_ASSIGN_OR_RETURN(bmr::dfs::FileInfo info,
                           c->client(0)->GetFileInfo(file));
      in.bytes += info.size;
    }
  }
  return loaded;
}

/// Per-app output checks, computed once from the generated inputs.
bmr::StatusOr<std::vector<OutputCheck>> MakeChecks(mr::ClusterContext* c,
                                                   const MixInputs& in) {
  bmr::dfs::DfsClient* client = c->client(0);
  BMR_ASSIGN_OR_RETURN(std::vector<std::string> text, ReadLines(client, in.text));
  BMR_ASSIGN_OR_RETURN(std::vector<std::string> exps,
                       ReadLines(client, in.knn.experimental_files));
  BMR_ASSIGN_OR_RETURN(std::vector<std::string> listens,
                       ReadLines(client, in.listens));
  return std::vector<OutputCheck>{
      GrepCheck(text, kGrepPattern),
      KnnCheck(exps, in.knn.training, kKnnK),
      LastFmCheck(listens),
      BlackScholesCheck(static_cast<int64_t>(kBsMappers * kBsIterations)),
      GeneticCheck(kPopulation),
  };
}

struct MixJob {
  int app = 0;
  bool barrierless = true;
  mr::JobSpec spec;
};

MixJob MakeMixJob(const MixInputs& in, int i, const std::string& scratch_dir) {
  static constexpr bmr::core::StoreType kStores[] = {
      bmr::core::StoreType::kInMemory, bmr::core::StoreType::kSpillMerge,
      bmr::core::StoreType::kKvStore};
  MixJob job;
  job.app = i % kApps;
  job.barrierless = (i / kApps) % 2 == 0;
  bmr::apps::AppOptions o;
  o.output_path = "/mix/out/" + std::to_string(i);
  o.num_reducers = kReducers;
  o.barrierless = job.barrierless;
  o.store.type = kStores[(i / (2 * kApps)) % 3];
  o.store.spill_threshold_bytes = 16 << 10;
  o.store.kv_cache_bytes = 64 << 10;
  o.store.scratch_dir = scratch_dir;
  switch (job.app) {
    case 0:
      o.input_files = in.text;
      o.extra.Set("grep.pattern", kGrepPattern);
      job.spec = bmr::apps::MakeGrepJob(o);
      break;
    case 1:
      o.input_files = in.knn.experimental_files;
      o.extra.SetInt("knn.k", kKnnK);
      o.extra.Set("knn.training", bmr::apps::EncodeTrainingSet(in.knn.training));
      job.spec = bmr::apps::MakeKnnJob(o);
      break;
    case 2:
      o.input_files = in.listens;
      job.spec = bmr::apps::MakeLastFmJob(o);
      break;
    case 3:
      o.input_files = in.bs_units;
      job.spec = bmr::apps::MakeBlackScholesJob(o);
      break;
    default:
      o.input_files = in.population;
      job.spec = bmr::apps::MakeGeneticJob(o);
      break;
  }
  return job;
}

/// Read, check and delete one finished job's output.
Status CheckOutput(mr::ClusterContext* c, const OutputCheck& check,
                   const mr::JobResult& result) {
  Status st = result.status;
  if (st.ok()) {
    auto output = mr::JobRunner::ReadAllOutput(c->client(0), result);
    st = output.ok() ? check(*output) : output.status();
  }
  DeleteOutput(c->client(0), result);
  if (!st.ok()) {
    std::fprintf(stderr, "service-mix output check failed: %s\n",
                 st.ToString().c_str());
  }
  return st;
}

/// What one closed-loop window measured.
struct LoopStats {
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  std::vector<double> latency, queue_wait, run, overhead;
  std::vector<double> bl_run, b_run;
};

/// Drive the JobService closed loop: `warmup` discarded completions,
/// then completions for `seconds`.  Every completion is checked.
bool DriveService(mr::ClusterContext* c, const MixInputs& in,
                  const std::vector<OutputCheck>& checks,
                  const RunOptions& options, int warmup, LoopStats* stats,
                  Tally* tally) {
  bmr::service::JobServiceOptions service_options;
  service_options.max_running_jobs = 2;
  service_options.max_queued_jobs = 64;
  service_options.preemption = false;
  bmr::service::JobService service(c, service_options);
  for (const char* pool : kPools) {
    bmr::service::PoolConfig config;
    config.name = pool;
    config.weight = 1.0;
    config.queue_limit = 64;
    if (Status st = service.AddPool(config); !st.ok()) {
      std::fprintf(stderr, "AddPool: %s\n", st.ToString().c_str());
      return false;
    }
  }
  struct Pending {
    bmr::service::JobTicket ticket;
    int app;
    bool barrierless;
  };
  std::deque<Pending> pending;
  int next = 0;
  auto submit = [&] {
    MixJob job = MakeMixJob(in, next, options.scratch_dir);
    auto ticket = service.Submit(kPools[next % 2], job.spec);
    ++next;
    if (!ticket.ok()) {
      std::fprintf(stderr, "Submit: %s\n", ticket.status().ToString().c_str());
      tally->Add(false);
      return;
    }
    pending.push_back({*ticket, job.app, job.barrierless});
  };
  for (int i = 0; i < kOutstanding; ++i) submit();

  int completed = 0;
  int64_t t0 = 0;
  double cpu0 = 0;
  while (!pending.empty()) {
    if (completed == warmup) {
      t0 = NowNs();
      cpu0 = ProcessCpuSeconds();
      ResetPeakRss();
    }
    bool measuring = completed >= warmup;
    bool stop = measuring && SecondsSince(t0) >= options.seconds;
    Pending p = pending.front();
    pending.pop_front();
    bmr::service::JobOutcome outcome = service.Wait(p.ticket);
    ++completed;
    Status st = outcome.status.ok()
                    ? CheckOutput(c, checks[p.app], outcome.result)
                    : outcome.status;
    tally->Add(st.ok());
    if (measuring && !stop) {
      double run = outcome.result.elapsed_seconds;
      stats->latency.push_back(outcome.latency_seconds);
      stats->queue_wait.push_back(outcome.queue_wait_seconds);
      stats->run.push_back(run);
      stats->overhead.push_back(outcome.latency_seconds -
                                outcome.queue_wait_seconds - run);
      (p.barrierless ? stats->bl_run : stats->b_run).push_back(run);
    }
    if (!stop) {
      submit();
    } else if (stats->wall_s == 0) {
      stats->wall_s = SecondsSince(t0);
      stats->cpu_s = ProcessCpuSeconds() - cpu0;
      stats->peak_rss_mb = PeakRssMb();
    }
  }
  service.Shutdown();
  return true;
}

}  // namespace

bool RunServiceMix(const RunOptions& options, RunOutcome* out) {
  std::vector<double> setup_times;
  Loaded loaded;
  for (int i = 0; i < (options.trace ? 1 : kSetupRepeats); ++i) {
    loaded = Loaded();
    int64_t t0 = NowNs();
    auto attempt = Load(options.seed, options.trace);
    setup_times.push_back(SecondsSince(t0));
    if (!attempt.ok()) {
      std::fprintf(stderr, "service-mix: set-up failed: %s\n",
                   attempt.status().ToString().c_str());
      return false;
    }
    loaded = std::move(*attempt);
  }
  mr::ClusterContext* c = loaded.cluster.get();
  auto checks = MakeChecks(c, loaded.inputs);
  if (!checks.ok()) {
    std::fprintf(stderr, "service-mix: oracle failed: %s\n",
                 checks.status().ToString().c_str());
    return false;
  }

  Report& r = out->report;
  r.Note("seed", static_cast<int64_t>(options.seed));
  r.Note("nproc", HostCores());
  r.Note("map_slots", c->spec.total_map_slots());
  r.Note("reduce_slots", c->spec.total_reduce_slots());
  r.Note("reducers", kReducers);
  r.Note("input_bytes", static_cast<int64_t>(loaded.inputs.bytes));
  r.Note("apps", "grep,knn,lastfm,blackscholes,genetic");
  r.Note("stores", "mem,spill,kv");
  r.Note("transport", "inproc");
  r.Note("codec", "none");
  r.Note("pools", "2x weight 1");
  r.Note("outstanding", kOutstanding);
  r.Note("running_jobs", 2);
  r.Note("traced", options.trace ? "1" : "0");

  RunOptions loop_options = options;
  if (options.trace) loop_options.seconds = options.seconds / 2;
  LoopStats stats;
  if (!DriveService(c, loaded.inputs, *checks, loop_options, kCycle / 3,
                    &stats, &out->tally)) {
    return false;
  }
  const double jobs = static_cast<double>(stats.latency.size());

  if (!options.trace) {
    r.Set("setup_s", Median(setup_times), "s");
    r.Set("barrierless_job_s", Median(stats.bl_run), "s");
    r.Set("barrier_job_s", Median(stats.b_run), "s");
    r.Set("barrierless_cpu_s", stats.cpu_s / jobs, "s");
    r.Set("peak_rss_mb", stats.peak_rss_mb, "MB");
    r.Set("jobs_per_s", jobs / stats.wall_s, "1/s");
    r.Set("job_latency_p50_s", Quantile(stats.latency, 0.5), "s");
    r.Set("job_latency_p90_s", Quantile(stats.latency, 0.9), "s");
    r.Set("mr.barrierless_speedup",
          Median(stats.b_run) / Median(stats.bl_run), "ratio");
    r.Set("jobs_measured", jobs, "count");
    return true;
  }

  // Traced run: the service loop above gives the service-layer split;
  // one pass over the mix, job by job, gives the engine layers (jobs
  // run alone, so the shared transport's totals belong to one job).
  LayerValues run_values;
  run_values["service.queue_wait_p50_s"] = Quantile(stats.queue_wait, 0.5);
  run_values["service.queue_wait_p90_s"] = Quantile(stats.queue_wait, 0.9);
  run_values["service.run_p50_s"] = Quantile(stats.run, 0.5);
  run_values["service.overhead_p50_s"] = Quantile(stats.overhead, 0.5);
  LayerSamples samples;
  std::vector<double> bl_plain, bl_traced, b_plain;
  for (int i = 0; i < kCycle; ++i) {
    MixJob plain = MakeMixJob(loaded.inputs, i, options.scratch_dir);
    plain.spec.output_path += "-plain";
    TimedJob job = RunTimed(c, plain.spec);
    out->tally.Add(CheckOutput(c, (*checks)[plain.app], job.result).ok());
    (plain.barrierless ? bl_plain : b_plain).push_back(job.wall_s);
    MixJob traced_job = MakeMixJob(loaded.inputs, i, options.scratch_dir);
    traced_job.spec.output_path += "-traced";
    TracedJob traced = RunTraced(c, loaded.timed, traced_job.spec);
    out->tally.Add(
        CheckOutput(c, (*checks)[traced_job.app], traced.job.result).ok());
    if (traced_job.barrierless) bl_traced.push_back(traced.job.wall_s);
    samples.Add(traced_job.barrierless, std::move(traced.layers));
  }
  run_values["obs.trace_overhead"] = Median(bl_traced) / Median(bl_plain);
  run_values["mr.barrierless_speedup"] = Median(b_plain) / Median(bl_plain);
  samples.Emit(run_values, &out->report);
  return true;
}

}  // namespace perfbench
