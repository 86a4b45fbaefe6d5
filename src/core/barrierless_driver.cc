#include "core/barrierless_driver.h"

#include "obs/metric_names.h"
#include "obs/trace.h"

namespace bmr::core {

BarrierlessDriver::BarrierlessDriver(IncrementalReducer* reducer,
                                     const StoreConfig& store_config,
                                     const Config& job_config)
    : reducer_(reducer), tracer_(store_config.tracer) {
  reducer_->Setup(job_config);
  if (reducer_->UsesStore()) {
    store_ = CreatePartialStore(store_config);
  }
}

Status BarrierlessDriver::Consume(Slice key, Slice value,
                                  mr::ReduceEmitter* out) {
  if (finalized_) {
    return Status::FailedPrecondition("Consume after Finalize");
  }
  // Sampled (1 in 16) per-op latency: the fold runs per record, so
  // timing every op would distort the path it measures.
  obs::Tracer* sampled =
      (tracer_ != nullptr && (records_consumed_ & 15) == 0) ? tracer_
                                                            : nullptr;
  ++records_consumed_;
  if (!store_) {
    // Identity / cross-key reducers: no per-key partial results.
    obs::LatencyTimer invoke(sampled, obs::kHReduceInvokeUs);
    reducer_->Update(key, value, /*partial=*/nullptr, out);
    return Status::Ok();
  }
  auto fold = [&](std::string* partial, bool fresh) {
    if (fresh) *partial = reducer_->InitPartial(key);
    obs::LatencyTimer invoke(sampled, obs::kHReduceInvokeUs);
    reducer_->Update(key, value, partial, out);
  };
  obs::LatencyTimer fold_latency(sampled, obs::kHStoreFoldUs);
  return store_->Fold(key, fold);
}

Status BarrierlessDriver::PreloadPartial(Slice key, Slice partial) {
  if (finalized_) {
    return Status::FailedPrecondition("PreloadPartial after Finalize");
  }
  if (records_consumed_ > 0) {
    return Status::FailedPrecondition(
        "PreloadPartial must precede the first Consume");
  }
  if (!store_) return Status::Ok();  // stateless reducers: nothing to seed
  return store_->Fold(key, [partial](std::string* stored, bool) {
    stored->assign(partial.data(), partial.size());
  });
}

Status BarrierlessDriver::EmitSnapshot(mr::ReduceEmitter* out) {
  if (finalized_) return Status::FailedPrecondition("snapshot after Finalize");
  if (!store_) return Status::Ok();  // stateless reducers emit eagerly
  return ScanStore(out, /*snapshot=*/nullptr);
}

Status BarrierlessDriver::Finalize(mr::ReduceEmitter* out,
                                   std::vector<mr::Record>* snapshot) {
  if (finalized_) return Status::Ok();
  finalized_ = true;
  if (store_) {
    BMR_RETURN_IF_ERROR(ScanStore(out, snapshot));
    released_stats_ = store_->stats();
    store_.reset();  // frees the partials, spill files and KV log now
  }
  reducer_->Flush(out);
  return Status::Ok();
}

Status BarrierlessDriver::ScanStore(mr::ReduceEmitter* out,
                                    std::vector<mr::Record>* snapshot) {
  IncrementalReducer* reducer = reducer_;
  return store_->Scan(
      [reducer](Slice key, Slice a, Slice b) {
        return reducer->MergePartials(key, a, b);
      },
      [reducer, out, snapshot](Slice key, Slice partial) {
        if (snapshot != nullptr) {
          snapshot->emplace_back(key.ToString(), partial.ToString());
        }
        reducer->Finish(key, partial, out);
      });
}

}  // namespace bmr::core
