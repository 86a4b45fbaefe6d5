// Benchmark-side instrumentation of the engine's public interfaces.
//
// Every probe times calls from outside the engine: decorators wrap the
// user-code factories of a JobSpec (Mapper + MapContext::Emit,
// Reducer + ValuesIterator, IncrementalReducer, Combiner) and the
// net::Transport (Call, plus every handler passed to Register).  All
// timing uses std::chrono::steady_clock and aggregates in nanoseconds,
// so sub-microsecond per-record work stays visible.
//
// Decorated objects accumulate into plain per-task fields and fold
// them into the shared JobProbe once per task (Cleanup / Flush /
// destruction), so the per-record path never touches an atomic.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "mr/job.h"
#include "net/transport.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Totals of one traced job, in ns.  Timestamps are summed as
/// (steady_clock ns - base_ns), so they can be mapped onto the job's
/// trace clock afterwards.
struct JobProbe {
  using Counter = std::atomic<int64_t>;
  int64_t base_ns = 0;

  // Map side, summed over committed-or-not map attempts that reached
  // Cleanup.
  Counter map_attempts{0};
  Counter map_fn_ns{0};        // Setup + Map + Cleanup, minus Emit
  Counter emit_ns{0};          // MapContext::Emit
  Counter input_read_ns{0};    // gaps between mapper calls
  Counter cleanup_end_sum{0};  // mapper Cleanup return
  Counter combine_ns{0};       // Combiner::Combine

  // Barrier reduce side.
  Counter reduce_fn_ns{0};     // Setup + Reduce + Cleanup, minus nested
  Counter reduce_group_ns{0};  // grouping loop + ValuesIterator::Next
  Counter reduce_life_ns{0};   // Setup entry .. Cleanup return

  // Barrier-less reduce side.
  Counter update_fn_ns{0};     // Setup + InitPartial + Update, minus Emit
  Counter merge_fn_ns{0};      // MergePartials
  Counter finish_fn_ns{0};     // Finish + Flush, minus Emit
  Counter finalize_window_ns{0};  // first Finish entry .. Flush return
  Counter finalize_store_ns{0};   // window minus app code and emits

  // ReduceEmitter::Emit, both modes (output buffering).
  Counter reduce_emit_ns{0};
  Counter update_emit_ns{0};   // the part emitted from Update

  void Reset();
};

/// Wrap every user-code factory of `spec` so its calls are timed into
/// `probe`.  `probe` must outlive every run of the returned spec.
bmr::mr::JobSpec Instrument(bmr::mr::JobSpec spec, JobProbe* probe);

/// RPC traffic class, from the method name.
enum class RpcKind { kShuffleFetch, kDfsRead, kDfsWrite, kOther };
inline constexpr int kRpcKinds = 4;

/// Transport decorator: times every Call (caller side, round trip) and
/// every registered handler (server side), per RpcKind.  Counting is
/// gated by Arm/Disarm so set-up traffic stays out of a job's totals.
/// It also maps the traced job's clock onto steady_clock: when the
/// engine detaches its tracer at job end, both clocks are read back to
/// back.
class TimedTransport final : public bmr::net::Transport {
 public:
  struct KindTotals {
    std::atomic<int64_t> calls{0};
    std::atomic<int64_t> rtt_ns{0};
    std::atomic<int64_t> handler_ns{0};
    std::atomic<int64_t> bytes{0};
  };

  explicit TimedTransport(std::unique_ptr<bmr::net::Transport> inner)
      : inner_(std::move(inner)) {}

  /// Zero the totals and start counting.
  void Arm();
  void Disarm() { armed_.store(false); }
  const KindTotals& totals(RpcKind kind) const {
    return totals_[static_cast<int>(kind)];
  }
  /// steady_clock ns at the time origin of the last traced job that
  /// ended since Arm; 0 if none.
  int64_t trace_origin_ns() const { return trace_origin_ns_.load(); }

  int num_nodes() const override { return inner_->num_nodes(); }
  void Register(int node, const std::string& method,
                bmr::net::RpcHandler handler) override;
  void Unregister(int node, const std::string& method) override {
    inner_->Unregister(node, method);
  }
  void KillNode(int node) override { inner_->KillNode(node); }
  [[nodiscard]] bmr::Status Call(int src, int dst, const std::string& method,
                                 bmr::Slice request,
                                 bmr::ByteBuffer* response) override;
  bmr::net::LinkStats GetLinkStats(int src, int dst) const override {
    return inner_->GetLinkStats(src, dst);
  }
  bmr::net::LinkStats TotalRemoteTraffic() const override {
    return inner_->TotalRemoteTraffic();
  }
  uint64_t handler_reregistrations() const override {
    return inner_->handler_reregistrations();
  }
  void SetFaultInjector(bmr::faults::FaultInjector* injector) override {
    inner_->SetFaultInjector(injector);
  }
  void SetObserver(bmr::obs::Tracer* tracer) override;

 private:
  std::unique_ptr<bmr::net::Transport> inner_;
  std::atomic<bool> armed_{false};
  KindTotals totals_[kRpcKinds];
  std::atomic<bmr::obs::Tracer*> tracer_{nullptr};
  std::atomic<int64_t> trace_origin_ns_{0};
};

}  // namespace perfbench
