#include "probes.h"

#include "core/incremental.h"
#include "mr/api.h"
#include "obs/trace.h"

namespace perfbench {

using bmr::Config;
using bmr::Slice;
namespace mr = bmr::mr;

void JobProbe::Reset() {
  base_ns = NowNs();
  for (Counter* c :
       {&map_attempts, &map_fn_ns, &emit_ns, &input_read_ns, &cleanup_end_sum,
        &combine_ns, &reduce_fn_ns, &reduce_group_ns,
        &reduce_life_ns, &update_fn_ns, &merge_fn_ns, &finish_fn_ns,
        &finalize_window_ns, &finalize_store_ns, &reduce_emit_ns,
        &update_emit_ns}) {
    c->store(0);
  }
}

namespace {

// ---- Map side ---------------------------------------------------------

class TimedMapContext final : public mr::MapContext {
 public:
  void Bind(mr::MapContext* inner) { inner_ = inner; }
  void Emit(Slice key, Slice value) override {
    int64_t t0 = NowNs();
    inner_->Emit(key, value);
    emit_ns += NowNs() - t0;
  }
  const Config& config() const override { return inner_->config(); }
  mr::Counters* counters() override { return inner_->counters(); }

  int64_t emit_ns = 0;

 private:
  mr::MapContext* inner_ = nullptr;
};

/// Splits a map attempt's life between the app (Setup/Map/Cleanup
/// self time), the collector (Emit), and the record reader (the gaps
/// between mapper calls, where the engine reads and parses input).
class TimedMapper final : public mr::Mapper {
 public:
  TimedMapper(std::unique_ptr<mr::Mapper> inner, JobProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  void Setup(mr::MapContext* ctx) override {
    int64_t t0 = NowNs();
    ctx_.Bind(ctx);
    inner_->Setup(&ctx_);
    last_end_ = NowNs();
    fn_ns_ += last_end_ - t0;
  }

  void Map(Slice key, Slice value, mr::MapContext* ctx) override {
    int64_t t0 = NowNs();
    read_ns_ += t0 - last_end_;
    ctx_.Bind(ctx);
    inner_->Map(key, value, &ctx_);
    last_end_ = NowNs();
    fn_ns_ += last_end_ - t0;
  }

  void Cleanup(mr::MapContext* ctx) override {
    int64_t t0 = NowNs();
    read_ns_ += t0 - last_end_;
    ctx_.Bind(ctx);
    inner_->Cleanup(&ctx_);
    int64_t t1 = NowNs();
    fn_ns_ += t1 - t0;
    probe_->map_attempts += 1;
    probe_->map_fn_ns += fn_ns_ - ctx_.emit_ns;
    probe_->emit_ns += ctx_.emit_ns;
    probe_->input_read_ns += read_ns_;
    probe_->cleanup_end_sum += t1 - probe_->base_ns;
  }

 private:
  std::unique_ptr<mr::Mapper> inner_;
  JobProbe* probe_;
  TimedMapContext ctx_;
  int64_t last_end_ = 0;
  int64_t fn_ns_ = 0;
  int64_t read_ns_ = 0;
};

class TimedCombiner final : public mr::Combiner {
 public:
  TimedCombiner(std::unique_ptr<mr::Combiner> inner, JobProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}
  ~TimedCombiner() override { probe_->combine_ns += ns_; }

  TimedCombiner(const TimedCombiner&) = delete;
  TimedCombiner& operator=(const TimedCombiner&) = delete;

  void Combine(Slice key, const std::vector<Slice>& values,
               mr::MapEmitter* out) override {
    int64_t t0 = NowNs();
    inner_->Combine(key, values, out);
    ns_ += NowNs() - t0;
  }

 private:
  std::unique_ptr<mr::Combiner> inner_;
  JobProbe* probe_;
  int64_t ns_ = 0;
};

// ---- Reduce side ------------------------------------------------------

/// Times the output emits of either reduce flavour (the engine buffers
/// them for the part-file writer).
class TimedReduceContext final : public mr::ReduceContext {
 public:
  void Bind(mr::ReduceContext* inner) { inner_ = inner; }
  void Emit(Slice key, Slice value) override {
    int64_t t0 = NowNs();
    inner_->Emit(key, value);
    emit_ns += NowNs() - t0;
  }
  const Config& config() const override { return inner_->config(); }
  mr::Counters* counters() override { return inner_->counters(); }

  int64_t emit_ns = 0;

 private:
  mr::ReduceContext* inner_ = nullptr;
};

class TimedValues final : public mr::ValuesIterator {
 public:
  explicit TimedValues(mr::ValuesIterator* inner) : inner_(inner) {}
  bool Next(Slice* value) override {
    int64_t t0 = NowNs();
    bool more = inner_->Next(value);
    ns += NowNs() - t0;
    return more;
  }

  int64_t ns = 0;

 private:
  mr::ValuesIterator* inner_;
};

/// Barrier mode: app time per group versus the engine's grouped
/// iteration (group boundary detection plus ValuesIterator::Next).
class TimedReducer final : public mr::Reducer {
 public:
  TimedReducer(std::unique_ptr<mr::Reducer> inner, JobProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  void Setup(mr::ReduceContext* ctx) override {
    int64_t t0 = NowNs();
    start_ = t0;
    ctx_.Bind(ctx);
    inner_->Setup(&ctx_);
    setup_end_ = NowNs();
    fn_ns_ += setup_end_ - t0;
  }

  void Reduce(Slice key, mr::ValuesIterator* values,
              mr::ReduceContext* ctx) override {
    int64_t t0 = NowNs();
    TimedValues timed(values);
    ctx_.Bind(ctx);
    inner_->Reduce(key, &timed, &ctx_);
    reduce_ns_ += NowNs() - t0;
    iter_ns_ += timed.ns;
  }

  void Cleanup(mr::ReduceContext* ctx) override {
    int64_t t0 = NowNs();
    int64_t loop_ns = t0 - setup_end_;
    ctx_.Bind(ctx);
    inner_->Cleanup(&ctx_);
    int64_t t1 = NowNs();
    fn_ns_ += t1 - t0;
    probe_->reduce_fn_ns += fn_ns_ + reduce_ns_ - iter_ns_ - ctx_.emit_ns;
    probe_->reduce_group_ns += loop_ns - reduce_ns_ + iter_ns_;
    probe_->reduce_emit_ns += ctx_.emit_ns;
    probe_->reduce_life_ns += t1 - start_;
  }

 private:
  std::unique_ptr<mr::Reducer> inner_;
  JobProbe* probe_;
  TimedReduceContext ctx_;
  int64_t start_ = 0;
  int64_t setup_end_ = 0;
  int64_t fn_ns_ = 0;
  int64_t reduce_ns_ = 0;
  int64_t iter_ns_ = 0;
};

class TimedEmitter final : public mr::ReduceEmitter {
 public:
  void Bind(mr::ReduceEmitter* inner) { inner_ = inner; }
  void Emit(Slice key, Slice value) override {
    int64_t t0 = NowNs();
    inner_->Emit(key, value);
    ns += NowNs() - t0;
  }

  int64_t ns = 0;

 private:
  mr::ReduceEmitter* inner_ = nullptr;
};

/// Barrier-less mode: the app's fold (InitPartial + Update), merge and
/// finish code versus the store work around them.  The finalize window
/// runs from the first Finish (or Flush, for a reducer that got no
/// keys) to Flush's return.
class TimedIncremental final : public bmr::core::IncrementalReducer {
 public:
  TimedIncremental(std::unique_ptr<bmr::core::IncrementalReducer> inner,
                   JobProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  void Setup(const Config& config) override {
    int64_t t0 = NowNs();
    inner_->Setup(config);
    update_ns_ += NowNs() - t0;
  }
  bool UsesStore() const override { return inner_->UsesStore(); }

  std::string InitPartial(Slice key) override {
    int64_t t0 = NowNs();
    std::string partial = inner_->InitPartial(key);
    update_ns_ += NowNs() - t0;
    return partial;
  }

  void Update(Slice key, Slice value, std::string* partial,
              mr::ReduceEmitter* out) override {
    int64_t t0 = NowNs();
    emitter_.Bind(out);
    inner_->Update(key, value, partial, &emitter_);
    update_ns_ += NowNs() - t0;
  }

  std::string MergePartials(Slice key, Slice a, Slice b) override {
    int64_t t0 = NowNs();
    std::string merged = inner_->MergePartials(key, a, b);
    merge_ns_ += NowNs() - t0;
    return merged;
  }

  void Finish(Slice key, Slice partial, mr::ReduceEmitter* out) override {
    int64_t t0 = NowNs();
    MarkFinalizeStart(t0);
    emitter_.Bind(out);
    inner_->Finish(key, partial, &emitter_);
    finish_ns_ += NowNs() - t0;
  }

  void Flush(mr::ReduceEmitter* out) override {
    int64_t t0 = NowNs();
    MarkFinalizeStart(t0);
    emitter_.Bind(out);
    inner_->Flush(&emitter_);
    int64_t t1 = NowNs();
    finish_ns_ += t1 - t0;
    int64_t window = t1 - finalize_start_;
    int64_t finalize_emit = emitter_.ns - update_emit_ns_;
    probe_->update_fn_ns += update_ns_ - update_emit_ns_;
    probe_->update_emit_ns += update_emit_ns_;
    probe_->merge_fn_ns += merge_ns_;
    probe_->finish_fn_ns += finish_ns_ - finalize_emit;
    probe_->reduce_emit_ns += emitter_.ns;
    probe_->finalize_window_ns += window;
    probe_->finalize_store_ns +=
        window - finish_ns_ - (merge_ns_ - merge_before_finalize_ns_);
  }

 private:
  void MarkFinalizeStart(int64_t t) {
    if (finalize_start_ != 0) return;
    finalize_start_ = t;
    update_emit_ns_ = emitter_.ns;
    merge_before_finalize_ns_ = merge_ns_;
  }

  std::unique_ptr<bmr::core::IncrementalReducer> inner_;
  JobProbe* probe_;
  TimedEmitter emitter_;
  int64_t update_ns_ = 0;
  int64_t merge_ns_ = 0;
  int64_t finish_ns_ = 0;
  int64_t finalize_start_ = 0;
  int64_t update_emit_ns_ = 0;
  int64_t merge_before_finalize_ns_ = 0;
};

RpcKind Classify(const std::string& method) {
  if (method.rfind("shuffle.fetch.", 0) == 0) return RpcKind::kShuffleFetch;
  if (method == "dn.read") return RpcKind::kDfsRead;
  if (method == "dn.put") return RpcKind::kDfsWrite;
  return RpcKind::kOther;
}

}  // namespace

mr::JobSpec Instrument(mr::JobSpec spec, JobProbe* probe) {
  if (spec.mapper) {
    spec.mapper = [inner = spec.mapper, probe] {
      return std::make_unique<TimedMapper>(inner(), probe);
    };
  }
  if (spec.combiner) {
    spec.combiner = [inner = spec.combiner, probe] {
      return std::make_unique<TimedCombiner>(inner(), probe);
    };
  }
  if (spec.reducer) {
    spec.reducer = [inner = spec.reducer, probe] {
      return std::make_unique<TimedReducer>(inner(), probe);
    };
  }
  if (spec.incremental) {
    spec.incremental = [inner = spec.incremental, probe] {
      return std::make_unique<TimedIncremental>(inner(), probe);
    };
  }
  return spec;
}

// ---- Transport ----------------------------------------------------------

void TimedTransport::Arm() {
  for (KindTotals& t : totals_) {
    t.calls.store(0);
    t.rtt_ns.store(0);
    t.handler_ns.store(0);
    t.bytes.store(0);
  }
  trace_origin_ns_.store(0);
  armed_.store(true);
}

void TimedTransport::Register(int node, const std::string& method,
                              bmr::net::RpcHandler handler) {
  KindTotals* totals = &totals_[static_cast<int>(Classify(method))];
  inner_->Register(
      node, method,
      [this, totals, handler = std::move(handler)](
          Slice request, bmr::ByteBuffer* response) {
        if (!armed_.load(std::memory_order_relaxed)) {
          return handler(request, response);
        }
        int64_t t0 = NowNs();
        bmr::Status st = handler(request, response);
        totals->handler_ns += NowNs() - t0;
        return st;
      });
}

bmr::Status TimedTransport::Call(int src, int dst, const std::string& method,
                                 Slice request, bmr::ByteBuffer* response) {
  if (!armed_.load(std::memory_order_relaxed)) {
    return inner_->Call(src, dst, method, request, response);
  }
  int64_t t0 = NowNs();
  bmr::Status st = inner_->Call(src, dst, method, request, response);
  int64_t dt = NowNs() - t0;
  KindTotals& totals = totals_[static_cast<int>(Classify(method))];
  totals.calls += 1;
  totals.rtt_ns += dt;
  totals.bytes += static_cast<int64_t>(request.size() + response->size());
  return st;
}

void TimedTransport::SetObserver(bmr::obs::Tracer* tracer) {
  if (tracer != nullptr) {
    tracer_.store(tracer);
  } else if (bmr::obs::Tracer* ended = tracer_.exchange(nullptr)) {
    // The engine detaches right after closing the job span, with the
    // tracer still alive: read both clocks back to back.
    int64_t now = NowNs();
    double trace_now_s = ended->Now();
    trace_origin_ns_.store(now - static_cast<int64_t>(trace_now_s * 1e9));
  }
  inner_->SetObserver(tracer);
}

}  // namespace perfbench
