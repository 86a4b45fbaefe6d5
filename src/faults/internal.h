// FaultInjector internals: per-event trigger state and hook matching.
// Private to src/faults/ — bmr_check's layering check rejects any
// include of it from outside this directory, so production code can
// only reach the injector through the public hook points in
// fault_injector.h.
#pragma once

#include <string>

#include "faults/fault_plan.h"

namespace bmr::faults::internal {

/// Runtime state of one FaultEvent: how many matching hook invocations
/// it has seen and how many firings it has left.
struct EventState {
  FaultEvent event;
  uint64_t seen = 0;
  int remaining = 0;

  explicit EventState(FaultEvent e) : event(std::move(e)) {
    remaining = event.count;
  }

  /// Count one matching invocation; true iff the event fires on it.
  bool Tick() {
    if (remaining <= 0) return false;
    if (seen++ < event.after_calls) return false;
    --remaining;
    return true;
  }
};

/// RPC-site match: method prefix plus optional destination node.
inline bool MatchesRpc(const FaultEvent& e, int dst,
                       const std::string& method) {
  if (e.node >= 0 && e.node != dst) return false;
  return method.compare(0, e.method_prefix.size(), e.method_prefix) == 0;
}

/// Fetch-site match: optional serving node.
inline bool MatchesNode(const FaultEvent& e, int node) {
  return e.node < 0 || e.node == node;
}

}  // namespace bmr::faults::internal
