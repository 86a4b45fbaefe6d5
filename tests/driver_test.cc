// Tests for the barrier-less run() driver over the partial stores.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "common/serde.h"
#include "core/barrierless_driver.h"
#include "mr/emitter.h"
#include "mr/types.h"

namespace bmr::core {
namespace {

/// Minimal aggregation reducer: per-key running sum of varint values.
class SumReducer final : public IncrementalReducer {
 public:
  std::string InitPartial(Slice) override { return EncodeI64(0); }
  void Update(Slice, Slice value, std::string* partial,
              mr::ReduceEmitter*) override {
    int64_t acc = 0, v = 0;
    DecodeI64(Slice(*partial), &acc);
    DecodeI64(value, &v);
    *partial = EncodeI64(acc + v);
  }
  std::string MergePartials(Slice, Slice a, Slice b) override {
    int64_t x = 0, y = 0;
    DecodeI64(a, &x);
    DecodeI64(b, &y);
    return EncodeI64(x + y);
  }
};

/// Identity-style reducer: emits directly, no store.
class PassThroughReducer final : public IncrementalReducer {
 public:
  bool UsesStore() const override { return false; }
  void Update(Slice key, Slice value, std::string*,
              mr::ReduceEmitter* out) override {
    out->Emit(key, value);
  }
};

/// Reducer with internal state flushed at the end (cross-key style).
class CountingFlushReducer final : public IncrementalReducer {
 public:
  bool UsesStore() const override { return false; }
  void Update(Slice, Slice, std::string*, mr::ReduceEmitter*) override {
    ++seen_;
  }
  void Flush(mr::ReduceEmitter* out) override {
    std::string v = EncodeI64(seen_);
    out->Emit("total", Slice(v));
  }

 private:
  int64_t seen_ = 0;
};

using Records = std::vector<mr::Record>;

TEST(BarrierlessDriverTest, AggregatesAcrossArrivalOrder) {
  SumReducer reducer;
  StoreConfig store;
  Config config;
  BarrierlessDriver driver(&reducer, store, config);
  Records out;
  mr::VectorEmitter<Records> emitter(&out);

  // Interleaved keys, unsorted arrival: the barrier-less premise.
  for (int i = 0; i < 100; ++i) {
    std::string key = "k" + std::to_string(i % 7);
    ASSERT_TRUE(driver.Consume(Slice(key), Slice(EncodeI64(i)), &emitter).ok());
  }
  ASSERT_TRUE(driver.Finalize(&emitter).ok());
  ASSERT_EQ(out.size(), 7u);
  // Output is in key order (store iteration order).
  std::map<std::string, int64_t> expected;
  for (int i = 0; i < 100; ++i) expected["k" + std::to_string(i % 7)] += i;
  for (size_t i = 0; i < out.size(); ++i) {
    int64_t v = 0;
    ASSERT_TRUE(DecodeI64(Slice(out[i].value), &v));
    EXPECT_EQ(v, expected[out[i].key]) << out[i].key;
    if (i > 0) {
      EXPECT_LT(out[i - 1].key, out[i].key);
    }
  }
}

TEST(BarrierlessDriverTest, SpillingStoreMatchesInMemory) {
  Config config;
  Records out_mem, out_spill;
  {
    SumReducer reducer;
    StoreConfig store;
    BarrierlessDriver driver(&reducer, store, config);
    mr::VectorEmitter<Records> emitter(&out_mem);
    Pcg32 rng(3);
    for (int i = 0; i < 5000; ++i) {
      std::string key = "key" + std::to_string(rng.NextBounded(97));
      ASSERT_TRUE(
          driver.Consume(Slice(key), Slice(EncodeI64(1)), &emitter).ok());
    }
    ASSERT_TRUE(driver.Finalize(&emitter).ok());
  }
  {
    SumReducer reducer;
    StoreConfig store;
    store.type = StoreType::kSpillMerge;
    store.spill_threshold_bytes = 2048;
    BarrierlessDriver driver(&reducer, store, config);
    mr::VectorEmitter<Records> emitter(&out_spill);
    Pcg32 rng(3);
    for (int i = 0; i < 5000; ++i) {
      std::string key = "key" + std::to_string(rng.NextBounded(97));
      ASSERT_TRUE(
          driver.Consume(Slice(key), Slice(EncodeI64(1)), &emitter).ok());
    }
    EXPECT_GT(driver.store_stats().spills, 0u);
    ASSERT_TRUE(driver.Finalize(&emitter).ok());
    // The store is released at Finalize; its statistics survive.
    EXPECT_GT(driver.store_stats().spills, 0u);
    EXPECT_EQ(driver.MemoryBytes(), 0u);
  }
  EXPECT_EQ(out_mem, out_spill);
}

TEST(BarrierlessDriverTest, StorelessReducerEmitsImmediately) {
  PassThroughReducer reducer;
  StoreConfig store;
  Config config;
  BarrierlessDriver driver(&reducer, store, config);
  Records out;
  mr::VectorEmitter<Records> emitter(&out);
  ASSERT_TRUE(driver.Consume("b", "2", &emitter).ok());
  ASSERT_TRUE(driver.Consume("a", "1", &emitter).ok());
  EXPECT_EQ(out.size(), 2u);          // emitted before Finalize
  EXPECT_EQ(out[0].key, "b");         // arrival order, not key order
  EXPECT_EQ(driver.MemoryBytes(), 0u);
  ASSERT_TRUE(driver.Finalize(&emitter).ok());
  EXPECT_EQ(out.size(), 2u);
}

TEST(BarrierlessDriverTest, FlushRunsOnceAfterFinalize) {
  CountingFlushReducer reducer;
  StoreConfig store;
  Config config;
  BarrierlessDriver driver(&reducer, store, config);
  Records out;
  mr::VectorEmitter<Records> emitter(&out);
  for (int i = 0; i < 42; ++i) {
    ASSERT_TRUE(driver.Consume("k", "v", &emitter).ok());
  }
  ASSERT_TRUE(driver.Finalize(&emitter).ok());
  ASSERT_TRUE(driver.Finalize(&emitter).ok());  // idempotent
  ASSERT_EQ(out.size(), 1u);
  int64_t n = 0;
  ASSERT_TRUE(DecodeI64(Slice(out[0].value), &n));
  EXPECT_EQ(n, 42);
}

TEST(BarrierlessDriverTest, HeapCapSurfacesAsResourceExhausted) {
  SumReducer reducer;
  StoreConfig store;
  store.heap_limit_bytes = 1024;
  Config config;
  BarrierlessDriver driver(&reducer, store, config);
  Records out;
  mr::VectorEmitter<Records> emitter(&out);
  Status last = Status::Ok();
  for (int i = 0; i < 10000 && last.ok(); ++i) {
    last = driver.Consume(Slice("key" + std::to_string(i)),
                          Slice(EncodeI64(1)), &emitter);
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
}

TEST(BarrierlessDriverTest, ConsumeAfterFinalizeRejected) {
  SumReducer reducer;
  StoreConfig store;
  Config config;
  BarrierlessDriver driver(&reducer, store, config);
  Records out;
  mr::VectorEmitter<Records> emitter(&out);
  ASSERT_TRUE(driver.Finalize(&emitter).ok());
  EXPECT_EQ(driver.Consume("k", "v", &emitter).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace bmr::core
