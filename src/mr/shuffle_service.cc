#include "mr/shuffle_service.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/arena.h"

namespace bmr::mr {

ShuffleService::ShuffleService(net::Transport* transport, int num_nodes,
                               int num_map_tasks, int job_id, Options options)
    : transport_(transport),
      num_nodes_(num_nodes),
      job_id_(job_id),
      options_(options),
      tracker_(num_map_tasks) {
  if (options_.codec == nullptr) {
    const char* env = std::getenv("BMR_SHUFFLE_CODEC");
    // Unknown env values fall back to "none": the env var is a test
    // override, not job configuration — the engine validates the
    // shuffle.codec knob properly and fails the job on a typo.
    auto codec = FindCodec(env == nullptr ? "" : env);
    options_.codec = codec.ok() ? *codec : *FindCodec("none");
  }
  stores_.resize(num_nodes);
  for (int n = 0; n < num_nodes; ++n) {
    stores_[n] = std::make_unique<MapOutputStore>();
    RegisterShuffleService(transport_, n, stores_[n].get(), job_id_,
                           options_.injector);
  }
}

ShuffleService::~ShuffleService() {
  for (int n = 0; n < num_nodes_; ++n) {
    UnregisterShuffleService(transport_, n, job_id_);
  }
}

SegmentEncodeStats ShuffleService::encode_stats() const {
  MutexLock lock(stats_mu_);
  return encode_stats_;
}

void ShuffleService::Publish(int map_task, int node,
                             const std::vector<std::string>& segments) {
  SegmentEncodeStats total;
  {
    obs::LatencyTimer encode_time(options_.tracer, obs::kHCodecEncodeUs);
    ByteBuffer scratch;
    for (size_t p = 0; p < segments.size(); ++p) {
      scratch.Clear();
      SegmentEncodeStats stats;
      EncodeShuffleSegment(Slice(segments[p]), *options_.codec,
                           options_.block_bytes, &scratch, &stats);
      std::shared_ptr<std::string> buf =
          BufferPool::Global()->Acquire(scratch.size());
      if (scratch.size() != 0) {
        std::memcpy(buf->data(), scratch.data(), scratch.size());
      }
      stores_[node]->Put(map_task, static_cast<int>(p), std::move(buf));
      total.raw_bytes += stats.raw_bytes;
      total.wire_bytes += stats.wire_bytes;
      total.blocks += stats.blocks;
      total.compressed_blocks += stats.compressed_blocks;
    }
  }
  {
    MutexLock lock(stats_mu_);
    encode_stats_.raw_bytes += total.raw_bytes;
    encode_stats_.wire_bytes += total.wire_bytes;
    encode_stats_.blocks += total.blocks;
    encode_stats_.compressed_blocks += total.compressed_blocks;
  }
  // Only after every partition is stored: a fetcher woken by MarkDone
  // must find its segment.
  tracker_.MarkDone(map_task, node);
}

ShuffleService::Fetch::~Fetch() {
  Join();
  service_->Unregister(sink_);
}

void ShuffleService::Fetch::Join() {
  if (fetchers_) fetchers_->Wait();
}

std::unique_ptr<ShuffleService::Fetch> ShuffleService::StartFetch(
    int r, int node, ShuffleSink* sink, RelaunchFn relaunch, ErrorFn on_error,
    obs::SpanId parent_span) {
  // No public constructor: make_unique can't reach it.
  auto fetch = std::unique_ptr<Fetch>(new Fetch(this, sink));
  Fetch* f = fetch.get();
  int nmaps = tracker_.num_map_tasks();
  {
    MutexLock lock(sinks_mu_);
    live_sinks_.push_back(FetchEntry{f, sink, std::vector<int>(nmaps, -1)});
  }
  fetch->fetchers_left_.store(nmaps);
  fetch->fetchers_ = std::make_unique<ThreadPool>(nmaps);
  for (int m = 0; m < nmaps; ++m) {
    fetch->fetchers_->Submit([this, f, m, r, node, sink, relaunch, on_error,
                              parent_span] {
      int failures = 0;  // consecutive failures against loc.version
      for (;;) {
        MapOutputTracker::Location loc = tracker_.WaitForMapDone(m);
        if (loc.version < 0) break;  // job cancelled
        std::string segment;
        Status st = options_.injector
                        ? options_.injector->OnShuffleFetch(loc.node, node, m)
                        : Status::Ok();
        if (st.ok()) {
          obs::ScopedSpan fetch_span(options_.tracer, obs::kSpanShuffleFetch,
                                     "shuffle", m, parent_span);
          obs::LatencyTimer rtt(options_.tracer, obs::kHShuffleFetchRttUs);
          st = FetchSegment(transport_, loc.node, node, m, r, &segment, job_id_);
        }
        RecordBatch batch;
        if (st.ok()) {
          // Unwrap the block container: verify every block checksum,
          // decompress into a pool-backed buffer, then decode the
          // record framing zero-copy — the batch shares the pooled
          // buffer and the last batch standing recycles it.
          std::shared_ptr<const std::string> raw;
          {
            obs::LatencyTimer decode_time(options_.tracer,
                                          obs::kHCodecDecodeUs);
            st = DecodeShuffleSegment(Slice(segment), &raw);
          }
          if (st.ok()) st = DecodeSegment(std::move(raw), &batch);
        }
        if (st.ok()) {
          f->bytes_.fetch_add(segment.size());  // wire (encoded) bytes
          // Record the consumed attempt before handing records to the
          // sink, so a concurrent loss report can never miss us.
          NoteDelivered(f, m, loc.version);
          sink->Accept(m, std::move(batch));
          break;
        }
        if (options_.fail_on_fetch_error) {
          on_error(st);
          break;
        }
        if (failures < options_.max_fetch_retries) {
          ++failures;
          f->retries_.fetch_add(1);
          double ms = std::min(
              options_.backoff_ms * static_cast<double>(1 << (failures - 1)),
              options_.backoff_max_ms);
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(ms));
          continue;
        }
        // Retries exhausted: the attempt's output is gone (node died or
        // segments unreadable).  Declare it lost — first reporter taints
        // any reducer that already consumed it and triggers
        // re-execution — then wait for the new attempt.
        failures = 0;
        if (tracker_.ReportLost(m, loc.version)) {
          TaintConsumers(m, loc.version);
          relaunch(m, loc.node);
        }
      }
      if (f->fetchers_left_.fetch_sub(1) == 1) sink->AllDelivered();
    });
  }
  return fetch;
}

void ShuffleService::Cancel() {
  tracker_.Cancel();
  MutexLock lock(sinks_mu_);
  for (const FetchEntry& entry : live_sinks_) entry.sink->Cancel();
}

void ShuffleService::Unregister(ShuffleSink* sink) {
  MutexLock lock(sinks_mu_);
  live_sinks_.erase(std::find_if(
      live_sinks_.begin(), live_sinks_.end(),
      [sink](const FetchEntry& entry) { return entry.sink == sink; }));
}

void ShuffleService::NoteDelivered(Fetch* fetch, int map_task, int version) {
  MutexLock lock(sinks_mu_);
  for (FetchEntry& entry : live_sinks_) {
    if (entry.fetch == fetch) {
      entry.delivered[map_task] = version;
      return;
    }
  }
}

void ShuffleService::TaintConsumers(int map_task, int version) {
  MutexLock lock(sinks_mu_);
  for (FetchEntry& entry : live_sinks_) {
    if (entry.delivered[map_task] == version) {
      entry.fetch->tainted_.store(true);
      entry.sink->Cancel();
    }
  }
}

}  // namespace bmr::mr
