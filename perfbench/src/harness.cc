#include "harness.h"

#include <algorithm>
#include <thread>

#include "dfs/dfs.h"

namespace perfbench {

namespace mr = bmr::mr;

int HostCores() {
  unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n, 1u, 64u));
}

bmr::cluster::ClusterSpec BenchClusterSpec(const std::string& transport) {
  bmr::cluster::ClusterSpec spec =
      bmr::cluster::SmallCluster(HostCores(), /*map_slots=*/1,
                                 /*reduce_slots=*/1);
  spec.transport = transport;
  return spec;
}

bmr::StatusOr<std::unique_ptr<mr::ClusterContext>> MakeCluster(
    const bmr::cluster::ClusterSpec& spec, TimedTransport** timed) {
  if (timed == nullptr) return mr::ClusterContext::Create(spec);
  // ClusterContext::Create with the transport wrapped before the DFS
  // registers its services, so every handler goes through the probe.
  auto ctx = std::make_unique<mr::ClusterContext>();
  ctx->spec = spec;
  int n = static_cast<int>(spec.nodes.size());
  BMR_ASSIGN_OR_RETURN(std::unique_ptr<bmr::net::Transport> inner,
                       bmr::net::CreateTransport(spec.transport, n));
  auto wrapped = std::make_unique<TimedTransport>(std::move(inner));
  *timed = wrapped.get();
  ctx->transport = std::move(wrapped);
  ctx->dfs = std::make_unique<bmr::dfs::Dfs>(
      ctx->transport.get(), spec.dfs_replication, spec.dfs_block_bytes);
  ctx->clients.resize(n);
  for (int i = 0; i < n; ++i) {
    ctx->clients[i] = std::make_unique<bmr::dfs::DfsClient>(ctx->dfs.get(), i);
  }
  return ctx;
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

TimedJob RunTimed(mr::ClusterContext* cluster, const mr::JobSpec& spec) {
  TimedJob job;
  mr::JobRunner runner(cluster);
  double cpu0 = ProcessCpuSeconds();
  int64_t t0 = NowNs();
  job.result = runner.Run(spec);
  job.wall_s = SecondsSince(t0);
  job.cpu_s = ProcessCpuSeconds() - cpu0;
  return job;
}

TracedJob RunTraced(mr::ClusterContext* cluster, TimedTransport* timed,
                    mr::JobSpec spec) {
  spec.config.SetBool("obs.trace", true);
  JobProbe probe;
  mr::JobSpec instrumented = Instrument(std::move(spec), &probe);
  probe.Reset();
  timed->Arm();
  TracedJob traced;
  traced.job = RunTimed(cluster, instrumented);
  timed->Disarm();
  if (traced.job.result.ok()) {
    traced.layers = ComputeLayers(traced.job.result, probe, *timed,
                                  instrumented.barrierless);
  }
  return traced;
}

void LayerSamples::Add(bool barrierless, LayerValues values) {
  (barrierless ? barrierless_ : barrier_).push_back(std::move(values));
}

void LayerSamples::Emit(const LayerValues& run_values, Report* report) const {
  auto median_of = [](const std::vector<LayerValues>& jobs,
                      const std::string& name) {
    std::vector<double> samples;
    for (const LayerValues& job : jobs) {
      auto it = job.find(name);
      if (it != job.end()) samples.push_back(it->second);
    }
    return Median(samples);
  };
  const std::string kBarrierPrefix = "barrier.";
  for (const LayerSpec& spec : LayerCatalogue()) {
    std::string name = spec.name;
    double value = 0;
    switch (spec.source) {
      case LayerSource::kBarrierless:
        value = median_of(barrierless_, name);
        break;
      case LayerSource::kBarrier:
        if (name.rfind(kBarrierPrefix, 0) == 0) {
          value = median_of(barrier_, name.substr(kBarrierPrefix.size()));
        } else {
          value = median_of(barrier_, name);
        }
        break;
      case LayerSource::kRun: {
        auto it = run_values.find(name);
        if (it != run_values.end()) value = it->second;
        break;
      }
    }
    report->Set(name, value, spec.unit);
  }
}

}  // namespace perfbench
