// Disk-spilling key/value store backend (Section 5.2).
//
// Stands in for BerkeleyDB Java Edition: a bounded LRU cache in front
// of an append-only on-disk log, with an in-memory index (BDB keeps its
// B-tree inner nodes resident the same way).  Every reduce record costs
// a read-modify-update cycle through this store; the paper measured
// ~30k inserts/s, far below the record rate of a wordcount reducer,
// which is why this scheme loses in Figs. 9–10.  We reproduce the
// mechanism with real disk I/O; the simulator replays the throughput
// collapse at paper scale from its own calibrated per-op cost
// (simmr::StoreModel::kv_ops_per_sec).
#pragma once

#include <cstdio>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/ordered_map.h"
#include "core/partial_store.h"
#include "core/scratch_dir.h"

namespace bmr::core {

class KvStoreBackend final : public PartialStore {
 public:
  explicit KvStoreBackend(const StoreConfig& config);
  ~KvStoreBackend() override;

  [[nodiscard]] Status Fold(Slice key, FoldFn fn) override;
  uint64_t NumKeys() const override { return index_.size(); }
  uint64_t MemoryBytes() const override { return cache_bytes_; }
  /// `merge` is unused: read-modify-update keeps one value per key.
  [[nodiscard]] Status Scan(const MergeFn& merge, const EmitFn& fn) override;
  const StoreStats& stats() const override { return stats_; }

  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }
  uint64_t evictions() const { return evictions_; }

 private:
  struct DiskLocation {
    uint64_t offset = 0;
    uint32_t length = 0;
    bool on_disk = false;  // false => value only exists in cache
  };
  struct Slot;
  /// An index node: the key and its slot.  Nodes never move or die
  /// while the store lives, so the LRU list points at them.
  using Node = std::pair<const std::string, Slot>;
  struct CacheEntry {
    Node* node;  // the key's index node: its key, and the slot to update
    std::string value;
    bool dirty = false;
  };
  using LruList = std::list<CacheEntry>;
  struct Slot {
    DiskLocation disk;         // latest written-back version, if any
    LruList::iterator cached;  // lru_.end() when not in the cache
  };

  void Touch(LruList::iterator it);
  [[nodiscard]] Status EvictIfNeeded();
  [[nodiscard]] Status WriteToLog(Slice value, DiskLocation* loc);
  [[nodiscard]] Status ReadFromLog(const DiskLocation& loc, std::string* value);
  /// Ok iff the backing log file opened; otherwise an explanatory error.
  [[nodiscard]] Status CheckLog() const;

  StoreConfig config_;
  ScratchDir scratch_;
  std::string log_path_;
  std::FILE* log_ = nullptr;
  uint64_t log_tail_ = 0;

  LruList lru_;  // front = most recent
  uint64_t cache_bytes_ = 0;

  /// The one key index: key → {disk location, LRU position}.  A fold is
  /// one probe; Scan sorts the keys once (BDB's B-tree keeps them
  /// sorted on every insert instead).
  std::unordered_map<std::string, Slot, SliceHash, SliceEq> index_;

  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t evictions_ = 0;
  StoreStats stats_;
};

}  // namespace bmr::core
