// Per-layer breakdown of one traced job: the benchmark's probes
// (probes.h) combined with the spans and histograms the engine records
// under obs.trace=on.  Every value is a total over the job unless its
// unit says otherwise.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "mr/engine.h"
#include "probes.h"

namespace perfbench {

using LayerValues = std::map<std::string, double>;

/// Which traced jobs a per-layer metric is taken from.
enum class LayerSource {
  kBarrierless,  // the paper's mode
  kBarrier,      // with-barrier jobs only
  kRun,          // computed once per run (ratios, simulator, service)
};

struct LayerSpec {
  const char* name;
  const char* unit;
  LayerSource source;
};

/// Every per-layer metric the traced run prints, in print order.
const std::vector<LayerSpec>& LayerCatalogue();

/// Break down one traced job.  `probe` and `transport` must have been
/// reset / armed right before the job ran.  Metrics of the other mode
/// come out as 0.
LayerValues ComputeLayers(const bmr::mr::JobResult& result,
                          const JobProbe& probe,
                          const TimedTransport& transport, bool barrierless);

}  // namespace perfbench
