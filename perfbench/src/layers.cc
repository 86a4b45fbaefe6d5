#include "layers.h"

#include <algorithm>
#include <unordered_map>

#include "mr/types.h"
#include "obs/metric_names.h"

namespace perfbench {

namespace obs = bmr::obs;

const std::vector<LayerSpec>& LayerCatalogue() {
  using S = LayerSource;
  static const std::vector<LayerSpec> kCatalogue = {
      // Map task threads.
      {"apps.map_fn_s", "s", S::kBarrierless},
      {"mr.collect_emit_s", "s", S::kBarrierless},
      {"mr.input_read_s", "s", S::kBarrierless},
      {"mr.map_finish_s", "s", S::kBarrierless},
      {"apps.combine_fn_s", "s", S::kBarrierless},
      {"map.unattributed_frac", "ratio", S::kBarrierless},
      // DFS and transport.
      {"dfs.read_s", "s", S::kBarrierless},
      {"dfs.write_s", "s", S::kBarrierless},
      {"mr.fetch_rtt_s", "s", S::kBarrierless},
      {"mr.fetch_calls", "count", S::kBarrierless},
      {"mr.serve_s", "s", S::kBarrierless},
      {"net.wire_s", "s", S::kBarrierless},
      {"net.bytes", "bytes", S::kBarrierless},
      // Shuffle codec and FIFO.
      {"mr.encode_s", "s", S::kBarrierless},
      {"mr.decode_s", "s", S::kBarrierless},
      {"codec.wire_ratio", "ratio", S::kBarrierless},
      {"concurrency.fifo_push_wait_s", "s", S::kBarrierless},
      {"concurrency.fifo_pop_wait_s", "s", S::kBarrierless},
      // Barrier-less reduce task threads.
      {"apps.update_fn_s", "s", S::kBarrierless},
      {"core.store_fold_s", "s", S::kBarrierless},
      {"core.fold_ns_per_record", "ns", S::kBarrierless},
      {"core.spill_s", "s", S::kBarrierless},
      {"core.spills", "count", S::kBarrierless},
      {"core.spilled_bytes", "bytes", S::kBarrierless},
      {"apps.merge_fn_s", "s", S::kBarrierless},
      {"apps.finish_fn_s", "s", S::kBarrierless},
      {"core.finalize_s", "s", S::kBarrierless},
      {"mr.reduce_emit_s", "s", S::kBarrierless},
      {"mr.output_write_s", "s", S::kBarrierless},
      {"reduce.unattributed_frac", "ratio", S::kBarrierless},
      // Job shape.
      {"mr.map_phase_s", "s", S::kBarrierless},
      {"mr.reduce_after_last_map_s", "s", S::kBarrierless},
      {"mr.map_attempt_waste", "ratio", S::kBarrierless},
      // With-barrier jobs.
      {"mr.shuffle_wait_s", "s", S::kBarrier},
      {"mr.reduce_sort_s", "s", S::kBarrier},
      {"apps.reduce_fn_s", "s", S::kBarrier},
      {"mr.reduce_group_s", "s", S::kBarrier},
      {"barrier.mr.map_finish_s", "s", S::kBarrier},
      {"barrier.mr.map_phase_s", "s", S::kBarrier},
      {"barrier.mr.reduce_after_last_map_s", "s", S::kBarrier},
      {"barrier.map.unattributed_frac", "ratio", S::kBarrier},
      {"barrier.reduce.unattributed_frac", "ratio", S::kBarrier},
      // Per run.
      {"service.queue_wait_p50_s", "s", S::kRun},
      {"service.queue_wait_p90_s", "s", S::kRun},
      {"service.run_p50_s", "s", S::kRun},
      {"service.overhead_p50_s", "s", S::kRun},
      {"obs.trace_overhead", "ratio", S::kRun},
      {"mr.barrierless_speedup", "ratio", S::kRun},
      {"simmr.predicted_job_s", "s", S::kRun},
      {"simmr.predict_error", "ratio", S::kRun},
      {"simmr.predicted_barrier_job_s", "s", S::kRun},
      {"simmr.barrier_predict_error", "ratio", S::kRun},
  };
  return kCatalogue;
}

namespace {

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double HistogramSeconds(const bmr::mr::JobResult& result, const char* name) {
  auto it = result.histograms.find(name);
  return it == result.histograms.end()
             ? 0.0
             : static_cast<double>(it->second.sum()) * 1e-6;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Span totals of one job, by span name.
struct SpanTotals {
  double duration = 0;
  double start_sum = 0;
  double end_sum = 0;
  int64_t count = 0;
};

}  // namespace

LayerValues ComputeLayers(const bmr::mr::JobResult& result,
                          const JobProbe& probe,
                          const TimedTransport& transport, bool barrierless) {
  std::unordered_map<std::string, SpanTotals> spans;
  std::unordered_map<obs::SpanId, const obs::Span*> by_id;
  for (const obs::Span& span : result.trace.spans) by_id[span.id] = &span;
  // Barrier mode: the reduce thread waits from its task start until the
  // merge sort begins (last segment in, runs materialized).
  double shuffle_wait = 0;
  for (const obs::Span& span : result.trace.spans) {
    SpanTotals& t = spans[span.name];
    t.duration += span.end_s - span.start_s;
    t.start_sum += span.start_s;
    t.end_sum += span.end_s;
    t.count += 1;
    if (std::string_view(span.name) == obs::kSpanReduceSort) {
      auto parent = by_id.find(span.parent);
      if (parent != by_id.end()) {
        shuffle_wait += span.start_s - parent->second->start_s;
      }
    }
  }
  const SpanTotals& map_task = spans[obs::kSpanMapTask];
  const SpanTotals& reduce_task = spans[obs::kSpanReduceTask];
  const SpanTotals& batch = spans[obs::kSpanReduceBatch];
  const SpanTotals& spill = spans[obs::kSpanStoreSpill];
  const SpanTotals& sort = spans[obs::kSpanReduceSort];
  const SpanTotals& output = spans[obs::kSpanOutputWrite];

  const bmr::mr::Counters& ctr = result.counters;
  LayerValues v;

  // Map task threads.  Probe timestamps map onto the trace clock
  // through the origin the transport captured at job end.
  const double offset = Seconds(probe.base_ns - transport.trace_origin_ns());
  const double attempts = static_cast<double>(probe.map_attempts.load());
  const double map_fn = Seconds(probe.map_fn_ns);
  const double emit = Seconds(probe.emit_ns);
  const double input_read = Seconds(probe.input_read_ns);
  const double map_finish =
      map_task.end_sum - (Seconds(probe.cleanup_end_sum) + attempts * offset);
  v["apps.map_fn_s"] = map_fn;
  v["mr.collect_emit_s"] = emit;
  v["mr.input_read_s"] = input_read;
  v["mr.map_finish_s"] = map_finish;
  v["apps.combine_fn_s"] = Seconds(probe.combine_ns);
  v["map.unattributed_frac"] =
      Ratio(map_task.duration - map_fn - emit - input_read - map_finish,
            map_task.duration);

  // DFS and transport (caller-side round trips, server-side handlers).
  auto kind = [&](RpcKind k) -> const TimedTransport::KindTotals& {
    return transport.totals(k);
  };
  v["dfs.read_s"] = Seconds(kind(RpcKind::kDfsRead).rtt_ns);
  v["dfs.write_s"] = Seconds(kind(RpcKind::kDfsWrite).rtt_ns);
  v["mr.fetch_rtt_s"] = Seconds(kind(RpcKind::kShuffleFetch).rtt_ns);
  v["mr.fetch_calls"] =
      static_cast<double>(kind(RpcKind::kShuffleFetch).calls.load());
  v["mr.serve_s"] = Seconds(kind(RpcKind::kShuffleFetch).handler_ns);
  int64_t rtt = 0, handler = 0, bytes = 0;
  for (int k = 0; k < kRpcKinds; ++k) {
    const auto& t = transport.totals(static_cast<RpcKind>(k));
    rtt += t.rtt_ns;
    handler += t.handler_ns;
    bytes += t.bytes;
  }
  v["net.wire_s"] = Seconds(rtt - handler);
  v["net.bytes"] = static_cast<double>(bytes);

  // Shuffle codec and FIFO (engine histograms, microsecond samples).
  v["mr.encode_s"] = HistogramSeconds(result, obs::kHCodecEncodeUs);
  v["mr.decode_s"] = HistogramSeconds(result, obs::kHCodecDecodeUs);
  v["codec.wire_ratio"] =
      Ratio(static_cast<double>(result.data_plane.codec_wire_bytes),
            static_cast<double>(result.data_plane.codec_raw_bytes));
  v["concurrency.fifo_push_wait_s"] =
      HistogramSeconds(result, obs::kHShuffleQueuePushWaitUs);
  const double pop_wait = HistogramSeconds(result, obs::kHShuffleQueueWaitUs);
  v["concurrency.fifo_pop_wait_s"] = pop_wait;

  // Reduce task threads.
  const double update_fn = Seconds(probe.update_fn_ns);
  const double reduce_records =
      static_cast<double>(ctr.Get(bmr::mr::kCtrReduceInputRecords));
  v["apps.update_fn_s"] = update_fn;
  v["core.store_fold_s"] = batch.duration - spill.duration - update_fn -
                           Seconds(probe.update_emit_ns);
  v["core.fold_ns_per_record"] = Ratio(batch.duration * 1e9, reduce_records);
  v["core.spill_s"] = spill.duration;
  v["core.spills"] = static_cast<double>(ctr.Get(bmr::mr::kCtrSpills));
  v["core.spilled_bytes"] =
      static_cast<double>(ctr.Get(bmr::mr::kCtrSpilledBytes));
  v["apps.merge_fn_s"] = Seconds(probe.merge_fn_ns);
  v["apps.finish_fn_s"] = Seconds(probe.finish_fn_ns);
  v["core.finalize_s"] = Seconds(probe.finalize_store_ns);
  v["mr.reduce_emit_s"] = Seconds(probe.reduce_emit_ns);
  v["mr.output_write_s"] = output.duration;
  v["mr.shuffle_wait_s"] = shuffle_wait;
  v["mr.reduce_sort_s"] = sort.duration;
  v["apps.reduce_fn_s"] = Seconds(probe.reduce_fn_ns);
  v["mr.reduce_group_s"] = Seconds(probe.reduce_group_ns);
  const double reduce_attributed =
      barrierless ? pop_wait + batch.duration +
                        Seconds(probe.finalize_window_ns) + output.duration
                  : shuffle_wait + sort.duration +
                        Seconds(probe.reduce_life_ns) + output.duration;
  v["reduce.unattributed_frac"] =
      Ratio(reduce_task.duration - reduce_attributed, reduce_task.duration);

  // Job shape.
  v["mr.map_phase_s"] = result.last_map_done;
  v["mr.reduce_after_last_map_s"] =
      result.elapsed_seconds - result.last_map_done;
  v["mr.map_attempt_waste"] =
      Ratio(static_cast<double>(ctr.Get(bmr::mr::kCtrMapTasksLaunched)),
            static_cast<double>(ctr.Get(bmr::mr::kCtrMapTasksCommitted)));
  return v;
}

}  // namespace perfbench
