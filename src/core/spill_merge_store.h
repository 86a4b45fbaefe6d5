// Memtable partial-result store: the in-memory store and the disk
// spill-and-merge store (Section 5.1) in one class.
//
// Partial results accumulate in a hash-indexed memtable: a fold is one
// hash probe and an update in place.  With spilling on (kSpillMerge),
// when the estimated footprint reaches the threshold the memtable is
// sorted once and written — in key order — to a new local spill file,
// and memory is released.  A key may therefore have fragments in
// several spill files plus the live memtable; Scan sorts the memtable
// into one more run, k-way merges all runs and folds fragments of equal
// keys together with the application's merge function (which the paper
// notes is usually the same as its combiner).  With spilling off
// (kInMemory) the heap cap is the only bound — the Fig. 5(a) OOM — and
// the store never touches the filesystem: the scratch directory is
// created by the first spill.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ordered_map.h"
#include "core/partial_store.h"
#include "core/scratch_dir.h"

namespace bmr::core {

class SpillMergeStore final : public PartialStore {
 public:
  /// Spills at config.spill_threshold_bytes iff config.type is
  /// kSpillMerge; any other type gives the non-spilling memtable.
  explicit SpillMergeStore(const StoreConfig& config);

  [[nodiscard]] Status Fold(Slice key, FoldFn fn) override;
  uint64_t NumKeys() const override { return approx_keys_; }
  uint64_t MemoryBytes() const override { return memory_bytes_; }
  [[nodiscard]] Status Scan(const MergeFn& merge, const EmitFn& fn) override;
  const StoreStats& stats() const override { return stats_; }

  /// Exposed for tests/benches: force a spill regardless of threshold.
  [[nodiscard]] Status SpillNow();

  size_t num_spill_files() const { return spill_paths_.size(); }

 private:
  using Memtable =
      std::unordered_map<std::string, std::string, SliceHash, SliceEq>;

  StoreConfig config_;
  bool spills_;                        // false: the in-memory store
  std::optional<ScratchDir> scratch_;  // created by the first spill
  Memtable memtable_;
  uint64_t memory_bytes_ = 0;
  /// Upper bound on distinct keys (over-counts keys split across
  /// spills); exact count requires the merge pass.
  uint64_t approx_keys_ = 0;
  std::vector<std::string> spill_paths_;
  StoreStats stats_;
};

}  // namespace bmr::core
