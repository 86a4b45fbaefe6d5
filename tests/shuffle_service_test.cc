// ShuffleService unit tests: barrier and FIFO sinks fed by the same
// fetch machinery, RAII sink registration (the Fail/FIFO-close race
// fix), job-scoped segment stores keeping concurrent jobs apart, and
// Publish leaving its task fetchable and counted when it returns.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "mr/map_output.h"
#include "mr/segment_codec.h"
#include "mr/shuffle_service.h"
#include "net/transport.h"
#include "transport_test_util.h"

namespace bmr::mr {
namespace {

/// One single-partition segment holding the given records.
std::string MakeSegment(const std::vector<Record>& records) {
  MapOutputCollector collector(1, nullptr);
  for (const Record& r : records) collector.Emit(r.key, r.value);
  auto finished = collector.Finish(/*sort=*/false, nullptr, nullptr);
  EXPECT_TRUE(finished.ok());
  return finished->segments[0];
}

ShuffleService::RelaunchFn NoRelaunch() {
  return [](int, int) { FAIL() << "unexpected relaunch"; };
}

ShuffleService::ErrorFn NoError() {
  return [](const Status& st) { FAIL() << "unexpected error: " << st; };
}

/// Drain the sink's FIFO batch-wise until it closes, materializing the
/// entries (the batches — and the buffers they pin — die here).
std::multiset<std::pair<std::string, std::string>> DrainFifo(FifoSink& sink) {
  std::multiset<std::pair<std::string, std::string>> got;
  std::vector<RecordBatch> batches;
  while (sink.fifo().PopAll(&batches) > 0) {
    for (const RecordBatch& batch : batches) {
      for (const RecordBatch::Entry& entry : batch) {
        got.emplace(entry.key.ToString(), entry.value.ToString());
      }
    }
    batches.clear();
  }
  return got;
}

TEST(ShuffleServiceTest, FifoSinkReceivesEveryMapOutputThenCloses) {
  auto transport = testutil::MakeTransport(3);
  ShuffleService service(transport.get(), 3, /*num_map_tasks=*/2, /*job_id=*/7);

  service.Publish(0, 1, {MakeSegment({{"a", "1"}, {"b", "2"}})});
  service.Publish(1, 2, {MakeSegment({{"c", "3"}})});

  FifoSink sink(64);
  auto fetch = service.StartFetch(0, /*node=*/2, &sink, NoRelaunch(),
                                  NoError());
  // The last fetcher calls AllDelivered => the FIFO closes by itself,
  // so the batch drain terminates without any external signal.
  auto got = DrainFifo(sink);
  fetch->Join();
  EXPECT_GT(fetch->bytes_fetched(), 0u);

  std::multiset<std::pair<std::string, std::string>> want = {
      {"a", "1"}, {"b", "2"}, {"c", "3"}};
  EXPECT_EQ(got, want);
}

TEST(ShuffleServiceTest, BarrierSinkCollectsPerMapperRuns) {
  auto transport = testutil::MakeTransport(3);
  ShuffleService service(transport.get(), 3, /*num_map_tasks=*/2, /*job_id=*/1);

  service.Publish(0, 1, {MakeSegment({{"x", "0"}})});
  service.Publish(1, 1, {MakeSegment({{"y", "1"}, {"z", "2"}})});

  BarrierSink sink(2);
  auto fetch = service.StartFetch(0, /*node=*/2, &sink, NoRelaunch(),
                                  NoError());
  fetch->Join();  // the barrier: all runs present after this

  ASSERT_EQ(sink.runs().size(), 2u);
  ASSERT_EQ(sink.runs()[0].size(), 1u);
  EXPECT_EQ(sink.runs()[0][0].key.ToString(), "x");
  ASSERT_EQ(sink.runs()[1].size(), 2u);
  EXPECT_EQ(sink.runs()[1][0].key.ToString(), "y");
}

TEST(ShuffleServiceTest, CancelAfterFetchDestructionTouchesNoDeadSink) {
  // Regression test for the Fail/FIFO-close race: a reducer that
  // returns early destroys its sink and Fetch; a later job-level
  // Cancel must not reach the dead sink.  (The RAII Fetch destructor
  // unregisters the sink — ASan would flag the old dangling pointer.)
  auto transport = testutil::MakeTransport(3);
  ShuffleService service(transport.get(), 3, /*num_map_tasks=*/1, /*job_id=*/2);
  service.Publish(0, 1, {MakeSegment({{"k", "v"}})});
  {
    FifoSink sink(4);
    auto fetch = service.StartFetch(0, /*node=*/2, &sink, NoRelaunch(),
                                    NoError());
    std::vector<RecordBatch> batches;
    while (sink.fifo().PopAll(&batches) > 0) batches.clear();
    // Early return path: fetch and sink die here, without Cancel.
  }
  service.Cancel();  // must be a no-op on the unregistered sink
}

TEST(ShuffleServiceTest, TransientFetchFailuresAreRetriedUntilSuccess) {
  // An injected fetch timeout is transient: the fetcher must back off
  // and retry rather than surface the error, and count its retries.
  auto transport = testutil::MakeTransport(3);
  faults::FaultEvent timeout;
  timeout.kind = faults::FaultKind::kFetchTimeout;
  timeout.count = 2;
  faults::FaultPlan plan;
  plan.events = {timeout};
  faults::FaultInjector injector(plan);

  ShuffleOptions options;
  options.injector = &injector;
  options.max_fetch_retries = 4;
  options.backoff_ms = 0.1;
  options.backoff_max_ms = 0.5;
  ShuffleService service(transport.get(), 3, /*num_map_tasks=*/1, /*job_id=*/5,
                         options);
  service.Publish(0, 1, {MakeSegment({{"k", "v"}})});

  FifoSink sink(4);
  auto fetch = service.StartFetch(0, /*node=*/2, &sink, NoRelaunch(),
                                  NoError());
  auto got = DrainFifo(sink);
  fetch->Join();

  EXPECT_EQ(got, (std::multiset<std::pair<std::string, std::string>>{
                     {"k", "v"}}));
  EXPECT_EQ(fetch->retries(), 2u);
  EXPECT_FALSE(fetch->tainted());
  EXPECT_EQ(injector.injected(faults::FaultKind::kFetchTimeout), 2u);
}

TEST(ShuffleServiceTest, ExhaustedRetriesSurfaceWhenFailFastIsSet) {
  // With fail_on_fetch_error (the chaos harness's "teeth" switch) a
  // persistent failure reaches the error callback instead of the
  // lost-map recovery path.
  auto transport = testutil::MakeTransport(3);
  faults::FaultEvent timeout;
  timeout.kind = faults::FaultKind::kFetchTimeout;
  timeout.count = 1;
  faults::FaultPlan plan;
  plan.events = {timeout};
  faults::FaultInjector injector(plan);

  ShuffleOptions options;
  options.injector = &injector;
  options.fail_on_fetch_error = true;
  ShuffleService service(transport.get(), 3, /*num_map_tasks=*/1, /*job_id=*/6,
                         options);
  service.Publish(0, 1, {MakeSegment({{"k", "v"}})});

  Status seen = Status::Ok();
  FifoSink sink(4);
  auto fetch = service.StartFetch(
      0, /*node=*/2, &sink, NoRelaunch(),
      [&seen](const Status& st) { seen = st; });
  fetch->Join();
  EXPECT_FALSE(seen.ok());
  EXPECT_EQ(fetch->retries(), 0u);
}

TEST(ShuffleServiceTest, ConcurrentJobsKeepSeparateSegmentStores) {
  auto transport = testutil::MakeTransport(3);
  ShuffleService job_a(transport.get(), 3, 1, /*job_id=*/10);
  ShuffleService job_b(transport.get(), 3, 1, /*job_id=*/11);

  // Same (map_task, partition, node) coordinates in both jobs.
  job_a.Publish(0, 1, {"segment-of-job-a"});
  job_b.Publish(0, 1, {"segment-of-job-b"});

  // Publish encodes into the block container: fetch the wire bytes and
  // decode back to the raw payload to compare.
  std::string segment;
  std::shared_ptr<const std::string> raw;
  ASSERT_TRUE(
      FetchSegment(transport.get(), 1, 2, 0, 0, &segment, /*job_id=*/10).ok());
  ASSERT_TRUE(DecodeShuffleSegment(Slice(segment), &raw).ok());
  EXPECT_EQ(*raw, "segment-of-job-a");
  ASSERT_TRUE(
      FetchSegment(transport.get(), 1, 2, 0, 0, &segment, /*job_id=*/11).ok());
  ASSERT_TRUE(DecodeShuffleSegment(Slice(segment), &raw).ok());
  EXPECT_EQ(*raw, "segment-of-job-b");
}

TEST(ShuffleServiceTest, PublishIsFetchableAndCountedOnReturn) {
  // Publish encodes and stores on the calling thread: the moment it
  // returns, the task is done, every partition fetches and decodes to
  // its raw bytes, and the encode stats count it.  No drain, no wait.
  for (const char* name : {"none", "lz4"}) {
    SCOPED_TRACE(name);
    auto codec = FindCodec(name);
    ASSERT_TRUE(codec.ok()) << codec.status();
    auto transport = testutil::MakeTransport(3);
    ShuffleOptions options;
    options.codec = *codec;
    options.block_bytes = 1 << 10;  // several blocks per partition
    ShuffleService service(transport.get(), 3, /*num_map_tasks=*/1,
                           /*job_id=*/12, options);
    // Partition 0 spans several blocks and compresses under lz4,
    // partition 1 is empty, partition 2 is a framed record stream.
    std::string pattern;
    for (int i = 0; i < 5000; ++i) pattern.push_back('a' + i % 7);
    std::vector<std::string> raw = {pattern, "",
                                    MakeSegment({{"k", "v"}, {"w", "x"}})};
    uint64_t raw_total = 0;
    for (const std::string& segment : raw) raw_total += segment.size();

    service.Publish(0, /*node=*/1, raw);

    EXPECT_EQ(service.tracker().num_done(), 1);
    uint64_t wire_total = 0;
    for (size_t p = 0; p < raw.size(); ++p) {
      std::string segment;
      std::shared_ptr<const std::string> decoded;
      ASSERT_TRUE(FetchSegment(transport.get(), 1, 2, 0, static_cast<int>(p),
                               &segment, /*job_id=*/12)
                      .ok());
      ASSERT_TRUE(DecodeShuffleSegment(Slice(segment), &decoded).ok());
      EXPECT_EQ(*decoded, raw[p]) << "partition " << p;
      wire_total += segment.size();
    }
    SegmentEncodeStats stats = service.encode_stats();
    EXPECT_EQ(stats.raw_bytes, raw_total);
    EXPECT_EQ(stats.wire_bytes, wire_total);
    EXPECT_GT(stats.blocks, raw.size());
  }
}

TEST(ShuffleServiceTest, DestructionUnregistersTheJobsFetchHandler) {
  auto transport = testutil::MakeTransport(2);
  {
    ShuffleService service(transport.get(), 2, 1, /*job_id=*/3);
    service.Publish(0, 1, {"bytes"});
    std::string segment;
    ASSERT_TRUE(FetchSegment(transport.get(), 1, 0, 0, 0, &segment, 3).ok());
  }
  // The job is gone: its method name no longer resolves.
  std::string segment;
  EXPECT_FALSE(FetchSegment(transport.get(), 1, 0, 0, 0, &segment, 3).ok());
}

}  // namespace
}  // namespace bmr::mr
