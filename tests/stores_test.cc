// Partial-result store tests: one Fold/Scan contract checked for every
// store type through CreatePartialStore, then the KV store's eviction
// paths and the spill-file format.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "core/kvstore.h"
#include "core/partial_store.h"
#include "core/spill_file.h"
#include "core/spill_merge_store.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"

namespace bmr::core {
namespace {

using Counts = std::map<std::string, int64_t>;
using Entries = std::vector<std::pair<std::string, std::string>>;

/// WordCount-shaped fold: add `delta` to the key's count in place.
Status FoldAdd(PartialStore* store, Slice key, int64_t delta) {
  return store->Fold(key, [delta](std::string* partial, bool fresh) {
    int64_t n = 0;
    if (!fresh) DecodeI64(Slice(*partial), &n);
    *partial = EncodeI64(n + delta);
  });
}

/// Install `value` for `key`, reporting whether the key was fresh.
Status FoldSet(PartialStore* store, Slice key, const std::string& value,
               bool* fresh = nullptr) {
  return store->Fold(key, [&](std::string* partial, bool is_fresh) {
    if (fresh != nullptr) *fresh = is_fresh;
    *partial = value;
  });
}

std::string MergeSums(Slice, Slice a, Slice b) {
  int64_t x = 0, y = 0;
  DecodeI64(a, &x);
  DecodeI64(b, &y);
  return EncodeI64(x + y);
}

/// Every (key, merged partial) in Scan order.
Entries ScanEntries(PartialStore* store) {
  Entries out;
  Status st = store->Scan(MergeSums, [&out](Slice k, Slice v) {
    out.emplace_back(k.ToString(), v.ToString());
  });
  EXPECT_TRUE(st.ok()) << st;
  return out;
}

Counts ScanCounts(PartialStore* store) {
  Counts out;
  for (const auto& [key, value] : ScanEntries(store)) {
    int64_t n = 0;
    DecodeI64(Slice(value), &n);
    EXPECT_EQ(out.count(key), 0u) << "key scanned twice: " << key;
    out[key] = n;
  }
  return out;
}

std::vector<std::string> RandomKeys(size_t count, uint64_t seed,
                                    uint32_t distinct) {
  Pcg32 rng(seed);
  std::vector<std::string> keys;
  keys.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    keys.push_back("key" + std::to_string(rng.NextBounded(distinct)));
  }
  return keys;
}

Counts DirectCounts(const std::vector<std::string>& keys) {
  Counts out;
  for (const auto& k : keys) out[k]++;
  return out;
}

// ---- The store contract ----------------------------------------------

struct StoreCase {
  const char* name;
  StoreType type;
  uint64_t threshold_or_cache;  // spill threshold, or KV cache bytes
};

class StoreContractTest : public ::testing::TestWithParam<StoreCase> {
 protected:
  StoreConfig Config() const {
    StoreConfig config;
    config.type = GetParam().type;
    if (config.type == StoreType::kSpillMerge) {
      config.spill_threshold_bytes = GetParam().threshold_or_cache;
    } else if (config.type == StoreType::kKvStore) {
      config.kv_cache_bytes = GetParam().threshold_or_cache;
    }
    return config;
  }
  std::unique_ptr<PartialStore> NewStore() const {
    return CreatePartialStore(Config());
  }
};

TEST_P(StoreContractTest, FoldsNewThenExistingKey) {
  auto store = NewStore();
  ASSERT_TRUE(store
                  ->Fold("a",
                         [](std::string* partial, bool fresh) {
                           EXPECT_TRUE(fresh);
                           EXPECT_TRUE(partial->empty());
                           *partial = "1";
                         })
                  .ok());
  ASSERT_TRUE(store
                  ->Fold("a",
                         [](std::string* partial, bool fresh) {
                           EXPECT_FALSE(fresh);
                           EXPECT_EQ(*partial, "1");
                           *partial += "2";  // in place
                         })
                  .ok());
  EXPECT_EQ(store->NumKeys(), 1u);
  EXPECT_EQ(store->stats().folds, 2u);
  EXPECT_EQ(ScanEntries(store.get()), (Entries{{"a", "12"}}));
}

TEST_P(StoreContractTest, SeedingIsAFold) {
  // What BarrierlessDriver::PreloadPartial does: install a value
  // verbatim, then later records fold into it.
  auto store = NewStore();
  ASSERT_TRUE(FoldSet(store.get(), "k", EncodeI64(40)).ok());
  ASSERT_TRUE(FoldAdd(store.get(), "k", 2).ok());
  EXPECT_EQ(ScanCounts(store.get()), (Counts{{"k", 42}}));
}

TEST_P(StoreContractTest, MemoryAccountingTracksValueResizes) {
  auto store = NewStore();
  ASSERT_TRUE(FoldSet(store.get(), "k", std::string(100, 'a')).ok());
  uint64_t m1 = store->MemoryBytes();
  ASSERT_TRUE(FoldSet(store.get(), "k", std::string(10, 'b')).ok());
  EXPECT_EQ(m1 - store->MemoryBytes(), 90u);
}

TEST_P(StoreContractTest, CountsMatchReferenceAndScanIsRepeatable) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    auto store = NewStore();
    auto keys = RandomKeys(4000, seed, 150);
    const size_t half = keys.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(FoldAdd(store.get(), Slice(keys[i]), 1).ok());
    }
    // Scan is non-destructive: twice gives the same result...
    Counts first = ScanCounts(store.get());
    EXPECT_EQ(first, DirectCounts(std::vector<std::string>(
                         keys.begin(), keys.begin() + half)));
    EXPECT_EQ(ScanCounts(store.get()), first);
    // ...and folding continues afterwards.
    for (size_t i = half; i < keys.size(); ++i) {
      ASSERT_TRUE(FoldAdd(store.get(), Slice(keys[i]), 1).ok());
    }
    EXPECT_EQ(ScanCounts(store.get()), DirectCounts(keys)) << "seed " << seed;
    if (GetParam().type == StoreType::kSpillMerge) {
      EXPECT_GT(store->stats().spills, 0u);  // ~10 KB of partials
    }
  }
}

TEST_P(StoreContractTest, ScanFollowsTheKeyComparator) {
  // The stores index by hash and sort only at spill and Scan, so Scan's
  // order must come from the comparator alone: two fold orders of one
  // multiset — enough distinct keys to force rehashes — scan to the
  // same bytes, strictly increasing.
  const std::vector<std::string> keys = RandomKeys(20000, 5, 5000);
  std::vector<std::string> permuted = keys;
  Pcg32 rng(6);
  for (size_t i = permuted.size(); i > 1; --i) {
    std::swap(permuted[i - 1], permuted[rng.NextBounded(i)]);
  }
  const mr::KeyCompareFn reverse = [](Slice a, Slice b) {
    return b.Compare(a);
  };
  for (const mr::KeyCompareFn& cmp : {mr::KeyCompareFn(), reverse}) {
    StoreConfig config = Config();
    config.key_cmp = cmp;
    Entries scans[2];
    for (int order = 0; order < 2; ++order) {
      auto store = CreatePartialStore(config);
      for (const auto& key : order == 0 ? keys : permuted) {
        ASSERT_TRUE(FoldAdd(store.get(), Slice(key), 1).ok());
      }
      scans[order] = ScanEntries(store.get());
    }
    EXPECT_EQ(scans[0], scans[1]) << "Scan depends on the fold order";
    const Entries& entries = scans[0];
    for (size_t i = 1; i < entries.size(); ++i) {
      const int c = Slice(entries[i - 1].first).Compare(entries[i].first);
      ASSERT_TRUE(cmp ? c > 0 : c < 0)
          << "duplicate or misordered key at " << i;
    }
    Counts counts;
    for (const auto& [key, value] : entries) {
      DecodeI64(Slice(value), &counts[key]);
    }
    EXPECT_EQ(counts, DirectCounts(keys));
  }
}

TEST_P(StoreContractTest, RejectsAComparatorThatTiesDistinctKeys) {
  StoreConfig config = Config();
  // Orders keys by length only, so "key10" and "key11" tie.
  config.key_cmp = [](Slice a, Slice b) {
    return a.size() == b.size() ? 0 : (a.size() < b.size() ? -1 : 1);
  };
  auto store = CreatePartialStore(config);
  ASSERT_TRUE(FoldAdd(store.get(), "key10", 1).ok());
  ASSERT_TRUE(FoldAdd(store.get(), "key11", 1).ok());
  Status st = store->Scan(MergeSums, [](Slice, Slice) {});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
  if (GetParam().type != StoreType::kSpillMerge) return;

  // A spill sorts too; and tied keys in different runs meet in Scan's
  // merge.
  auto* spilling = dynamic_cast<SpillMergeStore*>(store.get());
  ASSERT_NE(spilling, nullptr);
  st = spilling->SpillNow();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
  auto split = CreatePartialStore(config);
  ASSERT_TRUE(FoldAdd(split.get(), "key10", 1).ok());
  ASSERT_TRUE(dynamic_cast<SpillMergeStore*>(split.get())->SpillNow().ok());
  ASSERT_TRUE(FoldAdd(split.get(), "key11", 1).ok());
  st = split->Scan(MergeSums, [](Slice, Slice) {});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
}

TEST_P(StoreContractTest, RejectedInsertLeavesNoTrace) {
  if (GetParam().type == StoreType::kKvStore) {
    GTEST_SKIP() << "the KV store is bounded by its cache, not a heap cap";
  }
  StoreConfig config = Config();
  config.heap_limit_bytes = 512;  // below every spill threshold here
  auto store = CreatePartialStore(config);
  ASSERT_TRUE(FoldSet(store.get(), "small", "v").ok());
  const uint64_t keys_before = store->NumKeys();
  const uint64_t bytes_before = store->MemoryBytes();
  const uint64_t peak_before = store->stats().peak_memory_bytes;

  Status st = FoldSet(store.get(), "huge", std::string(4096, 'x'));
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  // No phantom key, no inflated byte count, no moved peak.
  EXPECT_EQ(store->NumKeys(), keys_before);
  EXPECT_EQ(store->MemoryBytes(), bytes_before);
  EXPECT_EQ(store->stats().peak_memory_bytes, peak_before);
  EXPECT_EQ(ScanEntries(store.get()), (Entries{{"small", "v"}}));
  // The store remains usable after a rejected insert.
  ASSERT_TRUE(FoldSet(store.get(), "other", "w").ok());

  // An update past the cap is reported with the update applied: the
  // reduce task fails on the status and never reads this store again.
  st = FoldSet(store.get(), "small", std::string(4096, 'y'));
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  EXPECT_GT(store->MemoryBytes(), config.heap_limit_bytes);
}

TEST_P(StoreContractTest, FoldAfterSpillRestartsFreshAndMergesAtScan) {
  if (GetParam().type != StoreType::kSpillMerge) {
    GTEST_SKIP() << "only the spill-merge store spills";
  }
  auto store = NewStore();
  auto* spilling = dynamic_cast<SpillMergeStore*>(store.get());
  ASSERT_NE(spilling, nullptr);
  ASSERT_TRUE(FoldAdd(store.get(), "k", 5).ok());
  ASSERT_TRUE(spilling->SpillNow().ok());
  EXPECT_EQ(store->MemoryBytes(), 0u);
  // The memtable no longer knows the key: the paper's scheme restarts
  // the partial and reconciles the fragments in Scan's merge.
  bool fresh = false;
  ASSERT_TRUE(FoldSet(store.get(), "k", EncodeI64(2), &fresh).ok());
  EXPECT_TRUE(fresh);
  EXPECT_EQ(ScanCounts(store.get()), (Counts{{"k", 7}}));
}

INSTANTIATE_TEST_SUITE_P(
    AllStores, StoreContractTest,
    ::testing::Values(StoreCase{"InMemory", StoreType::kInMemory, 0},
                      StoreCase{"Spill2K", StoreType::kSpillMerge, 2048},
                      StoreCase{"Spill8K", StoreType::kSpillMerge, 8192},
                      StoreCase{"Kv1K", StoreType::kKvStore, 1024},
                      StoreCase{"Kv64K", StoreType::kKvStore, 65536}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(StoreScratchTest, InMemoryNeverTouchesTheFilesystem) {
  namespace fs = std::filesystem;
  const fs::path base =
      fs::path(::testing::TempDir()) / "bmr_inmemory_store_scratch";
  fs::remove_all(base);
  fs::create_directories(base);
  StoreConfig config;
  config.scratch_dir = base.string();
  {
    auto store = CreatePartialStore(config);
    for (const auto& key : RandomKeys(4000, 9, 500)) {
      ASSERT_TRUE(FoldAdd(store.get(), Slice(key), 1).ok());
    }
    EXPECT_EQ(ScanCounts(store.get()).size(), 500u);
    EXPECT_TRUE(fs::is_empty(base)) << "in-memory store created scratch files";
  }
  // The spill store creates its scratch directory at the first spill.
  config.type = StoreType::kSpillMerge;
  config.spill_threshold_bytes = 1024;
  {
    auto store = CreatePartialStore(config);
    ASSERT_TRUE(FoldAdd(store.get(), "k", 1).ok());
    EXPECT_TRUE(fs::is_empty(base));
    for (const auto& key : RandomKeys(200, 9, 50)) {
      ASSERT_TRUE(FoldAdd(store.get(), Slice(key), 1).ok());
    }
    EXPECT_GT(store->stats().spills, 0u);
    EXPECT_FALSE(fs::is_empty(base));
  }
  EXPECT_TRUE(fs::is_empty(base)) << "scratch directory outlived the store";
  fs::remove_all(base);
}

// ---- KV store eviction -------------------------------------------------

/// The stored value of a key the store already holds, via a fold that
/// leaves it unchanged.
std::string ValueOf(PartialStore* store, const std::string& key) {
  std::string value;
  Status st = store->Fold(Slice(key), [&value](std::string* partial,
                                               bool fresh) {
    EXPECT_FALSE(fresh) << "lost key";
    value = *partial;
  });
  EXPECT_TRUE(st.ok()) << st;
  return value;
}

TEST(KvStoreTest, EvictsToDiskAndReadsBack) {
  StoreConfig config;
  config.type = StoreType::kKvStore;
  config.kv_cache_bytes = 2048;  // tiny cache
  KvStoreBackend store(config);

  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(FoldSet(&store, "key" + std::to_string(i),
                        std::string(40, 'a' + i % 26))
                    .ok());
  }
  EXPECT_GT(store.evictions(), 0u);
  // Every key must still be readable (cache miss => disk read).
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(ValueOf(&store, "key" + std::to_string(i)),
              std::string(40, 'a' + i % 26))
        << "key " << i;
  }
  EXPECT_GT(store.cache_misses(), 0u);
  EXPECT_GT(store.stats().disk_reads, 0u);
}

TEST(KvStoreTest, UpdatedValueWinsAfterEviction) {
  StoreConfig config;
  config.type = StoreType::kKvStore;
  config.kv_cache_bytes = 1024;
  KvStoreBackend store(config);
  ASSERT_TRUE(FoldSet(&store, "target", "old").ok());
  for (int i = 0; i < 100; ++i) {  // push "target" out of cache
    ASSERT_TRUE(
        FoldSet(&store, "fill" + std::to_string(i), std::string(64, 'x')).ok());
  }
  EXPECT_EQ(ValueOf(&store, "target"), "old");
  ASSERT_TRUE(FoldSet(&store, "target", "new").ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        FoldSet(&store, "fill2" + std::to_string(i), std::string(64, 'x'))
            .ok());
  }
  EXPECT_EQ(ValueOf(&store, "target"), "new");
}

TEST(KvStoreTest, DirtyEvictionWriteFailureSurfacesFromInsertFold) {
  faults::FaultEvent fail;
  fail.kind = faults::FaultKind::kSpillWriteError;
  fail.count = 1;  // exactly the first log write fails
  faults::FaultPlan plan;
  plan.events = {fail};
  faults::FaultInjector injector(plan);

  StoreConfig config;
  config.type = StoreType::kKvStore;
  config.kv_cache_bytes = 1024;  // tiny: filling evicts dirty entries
  config.fault_injector = &injector;
  KvStoreBackend store(config);

  Status last = Status::Ok();
  for (int i = 0; i < 100 && last.ok(); ++i) {
    last = FoldSet(&store, "key" + std::to_string(i), std::string(64, 'x'));
  }
  // The dirty victim's write-back failed; the Fold that triggered the
  // eviction must report it, not swallow it.
  EXPECT_EQ(last.code(), StatusCode::kUnavailable) << last;
}

TEST(KvStoreTest, EvictionWriteFailureSurfacesFromCacheMissFold) {
  // Same data-loss hazard via the cache-miss path: a fold pages the
  // value in, and the eviction making room may write back a dirty
  // victim.
  faults::FaultEvent fail;
  fail.kind = faults::FaultKind::kSpillWriteError;
  fail.after_calls = 1;  // let the first write-back through
  fail.count = 1;
  faults::FaultPlan plan;
  plan.events = {fail};
  faults::FaultInjector injector(plan);

  StoreConfig config;
  config.type = StoreType::kKvStore;
  config.kv_cache_bytes = 512;
  config.fault_injector = &injector;
  KvStoreBackend store(config);

  // Two entries that can't coexist in the cache: writing A then B
  // evicts A (write-back #1, allowed through).  Folding A again pages
  // it back in and evicts dirty B (write-back #2, injected to fail).
  ASSERT_TRUE(FoldSet(&store, "aaaa", std::string(300, 'a')).ok());
  ASSERT_TRUE(FoldSet(&store, "bbbb", std::string(300, 'b')).ok());
  bool fresh = true;
  Status st = FoldSet(&store, "aaaa", std::string(300, 'c'), &fresh);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st;
  EXPECT_FALSE(fresh) << "the cache miss paged the old value in";
}

// ---- Spill files ---------------------------------------------------------

TEST(SpillFileTest, WriterReaderRoundTrip) {
  ScratchDir scratch;
  std::string path = scratch.FilePath("f");
  SpillFileWriter writer(path);
  ASSERT_TRUE(writer.Open().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(writer
                    .Append("key" + std::to_string(i),
                            std::string(i % 40, 'v'))
                    .ok());
  }
  ASSERT_TRUE(writer.Close().ok());

  SpillFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  for (int i = 0; i < 100; ++i) {
    std::string key, value;
    bool has = false;
    ASSERT_TRUE(reader.Next(&key, &value, &has).ok());
    ASSERT_TRUE(has) << "premature EOF at " << i;
    EXPECT_EQ(key, "key" + std::to_string(i));
    EXPECT_EQ(value, std::string(i % 40, 'v'));
  }
  std::string key, value;
  bool has = true;
  ASSERT_TRUE(reader.Next(&key, &value, &has).ok());
  EXPECT_FALSE(has);
}

TEST(SpillFileTest, EmptyFileYieldsNoRecords) {
  ScratchDir scratch;
  std::string path = scratch.FilePath("empty");
  SpillFileWriter writer(path);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.Close().ok());
  SpillFileReader reader(path);
  ASSERT_TRUE(reader.Open().ok());
  std::string k, v;
  bool has = true;
  ASSERT_TRUE(reader.Next(&k, &v, &has).ok());
  EXPECT_FALSE(has);
}

}  // namespace
}  // namespace bmr::core
