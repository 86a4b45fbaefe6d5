// Partial-result storage for barrier-less reducers (Section 5).
//
// Memory complexity of partial results ranges from O(1) to O(records)
// depending on the Reduce class (Table 1); for large inputs the reducer
// heap overflows, so storage is pluggable:
//
//   kInMemory   — hash-indexed memtable, fails with RESOURCE_EXHAUSTED
//                 at the heap cap (reproduces the Fig. 5(a) OOM).
//   kSpillMerge — §5.1: the same memtable, but on reaching a threshold
//                 partial results are sorted and moved to a local spill
//                 file; a final k-way merge combines per-key fragments
//                 with the app's merge function.
//   kKvStore    — §5.2: a BerkeleyDB-like disk-spilling key/value store
//                 with an LRU cache; every record costs a read-modify-
//                 update cycle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>

#include "common/bytes.h"
#include "common/status.h"
#include "mr/types.h"

namespace bmr::faults {
class FaultInjector;  // faults/fault_injector.h; stores only carry it
}

namespace bmr::obs {
class Tracer;  // obs/trace.h; stores only carry it
}

namespace bmr::core {

enum class StoreType { kInMemory, kSpillMerge, kKvStore };

const char* StoreTypeName(StoreType type);

struct StoreConfig {
  StoreType type = StoreType::kInMemory;
  /// Hard heap cap for partial results; exceeded => RESOURCE_EXHAUSTED
  /// (the job is killed, as in Fig. 5(a)).  0 = unlimited.
  uint64_t heap_limit_bytes = 0;
  /// kSpillMerge: spill to disk when estimated memory reaches this.
  uint64_t spill_threshold_bytes = 240ull << 20;  // paper's 240 MB
  /// Directory for spill files / KV store logs ("" = std temp dir).
  std::string scratch_dir;
  /// kKvStore: LRU cache capacity in bytes.
  uint64_t kv_cache_bytes = 64ull << 20;
  /// Key ordering used for final emission and spill sorting.  Must
  /// return 0 only for byte-equal keys: the stores tell keys apart by
  /// their bytes, and a spill or Scan that finds two distinct keys
  /// comparing equal fails with INVALID_ARGUMENT.
  mr::KeyCompareFn key_cmp;  // defaults to bytewise when null
  /// Optional fault injector consulted on every spill-file write/read
  /// (chaos testing).  Not owned; null = no injection.
  faults::FaultInjector* fault_injector = nullptr;
  /// Optional tracer: store.spill spans plus sampled fold latency
  /// (recorded by the BarrierlessDriver).  Not owned; null = off.
  obs::Tracer* tracer = nullptr;
};

/// Estimated in-memory footprint of one (key, partial) entry.  Mirrors
/// the JVM-era accounting the paper's heap plots reflect: payload plus
/// a per-entry object/tree-node overhead.
inline uint64_t EntryFootprint(size_t key_size, size_t value_size) {
  constexpr uint64_t kPerEntryOverhead = 64;  // tree node + object headers
  return key_size + value_size + kPerEntryOverhead;
}

/// Cumulative statistics a store exposes for benches and job counters.
struct StoreStats {
  uint64_t folds = 0;
  uint64_t spills = 0;           // spill-file flushes
  uint64_t spilled_bytes = 0;
  uint64_t disk_reads = 0;       // KV cache misses, spill-run records read
  uint64_t disk_read_bytes = 0;
  uint64_t peak_memory_bytes = 0;
};

/// Non-owning reference to the per-record fold callback, a callable
/// object `fn(std::string* partial, bool fresh)`: two words, never
/// allocates.  The callable must outlive the Fold call it is passed to.
class FoldFn {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FoldFn>)
  FoldFn(F&& fn)  // NOLINT(google-explicit-constructor): a function_ref
      : obj_(const_cast<void*>(static_cast<const void*>(&fn))),
        call_([](void* obj, std::string* partial, bool fresh) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(partial, fresh);
        }) {}

  void operator()(std::string* partial, bool fresh) const {
    call_(obj_, partial, fresh);
  }

 private:
  void* obj_;
  void (*call_)(void*, std::string*, bool);
};

/// Per-key partial-result storage.  Single-threaded: each reduce task
/// owns exactly one store (matching one store per Reducer in the paper).
class PartialStore {
 public:
  virtual ~PartialStore() = default;

  /// Fold into `key`'s partial result in place, with one index probe.
  /// For a key the store does not hold — never seen, or its memtable
  /// fragment was spilled — `fn` gets an empty partial with fresh =
  /// true; otherwise it updates the stored value.
  ///
  /// Heap cap: an insert that would cross it returns RESOURCE_EXHAUSTED
  /// and inserts nothing; an update that crosses it returns
  /// RESOURCE_EXHAUSTED with the update applied (the reduce task fails
  /// and a restart builds a fresh store).  Spill and KV page-in /
  /// write-back I/O errors are returned, never swallowed.
  [[nodiscard]] virtual Status Fold(Slice key, FoldFn fn) = 0;

  /// Number of keys currently tracked (including spilled ones).
  virtual uint64_t NumKeys() const = 0;

  /// Estimated bytes of partial results currently held in memory.
  virtual uint64_t MemoryBytes() const = 0;

  /// Iterate every key in key order with its fully merged partial
  /// result, invoking `fn(key, partial)`.  `merge` combines fragments of
  /// the same key from different spills.  Non-destructive: folding may
  /// continue afterwards, which powers progressive (online) snapshots.
  /// Like a spill, fails with INVALID_ARGUMENT if key_cmp ties two
  /// byte-distinct keys.
  using MergeFn = std::function<std::string(Slice key, Slice a, Slice b)>;
  using EmitFn = std::function<void(Slice key, Slice partial)>;
  [[nodiscard]] virtual Status Scan(const MergeFn& merge,
                                    const EmitFn& fn) = 0;

  virtual const StoreStats& stats() const = 0;
};

/// Factory over StoreConfig.
std::unique_ptr<PartialStore> CreatePartialStore(const StoreConfig& config);

}  // namespace bmr::core
