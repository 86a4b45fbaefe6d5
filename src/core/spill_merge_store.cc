#include "core/spill_merge_store.h"

#include <algorithm>
#include <queue>

#include "core/spill_file.h"
#include "obs/metric_names.h"
#include "obs/trace.h"

namespace bmr::core {

namespace {

/// The JVM analogue throws OutOfMemoryError and the job is killed
/// (Fig. 5a); reported as a status so the engine can record the
/// failure time.
Status CheckHeapCap(uint64_t bytes, uint64_t cap) {
  if (cap == 0 || bytes <= cap) return Status::Ok();
  return Status::ResourceExhausted("partial results exceed reducer heap (" +
                                   std::to_string(bytes) + " > " +
                                   std::to_string(cap) + " bytes)");
}

}  // namespace

SpillMergeStore::SpillMergeStore(const StoreConfig& config)
    : config_(config),
      spills_(config.type == StoreType::kSpillMerge),
      memtable_(MakeOrderedPartialMap(config.key_cmp)) {}

Status SpillMergeStore::Fold(Slice key, FoldFn fn) {
  ++stats_.folds;
  auto it = memtable_.lower_bound(key);  // transparent: no key copy
  if (it != memtable_.end() && !memtable_.key_comp()(key, it->first)) {
    const size_t old_size = it->second.size();
    fn(&it->second, /*fresh=*/false);
    memory_bytes_ = memory_bytes_ - old_size + it->second.size();
  } else {
    // Only the memtable is consulted: spilled fragments stay on disk
    // and are reconciled by Scan's merge.  A key that was spilled
    // restarts from a fresh partial, exactly as in the paper's scheme.
    std::string partial;
    fn(&partial, /*fresh=*/true);
    const uint64_t with_entry =
        memory_bytes_ + EntryFootprint(key.size(), partial.size());
    // Checked before inserting: a rejected insert leaves the store
    // (keys, bytes, peak stats) exactly as it found it, so the OOM
    // boundary is observable and consistent.
    BMR_RETURN_IF_ERROR(CheckHeapCap(with_entry, config_.heap_limit_bytes));
    memtable_.emplace_hint(it, key.ToString(), std::move(partial));
    memory_bytes_ = with_entry;
    ++approx_keys_;
  }
  stats_.peak_memory_bytes = std::max(stats_.peak_memory_bytes, memory_bytes_);
  // An update that grew past the cap stays applied: undoing it would
  // need a copy of the old partial on every fold, and the reduce task
  // fails on this status anyway (a restart builds a fresh store).
  BMR_RETURN_IF_ERROR(CheckHeapCap(memory_bytes_, config_.heap_limit_bytes));
  if (spills_ && memory_bytes_ >= config_.spill_threshold_bytes) {
    return SpillNow();
  }
  return Status::Ok();
}

Status SpillMergeStore::SpillNow() {
  if (memtable_.empty()) return Status::Ok();
  // A spill is rare and expensive (sort + write of the whole memtable),
  // so it earns both a span and an unsampled latency sample.
  obs::ScopedSpan spill_span(config_.tracer, obs::kSpanStoreSpill, "store",
                             static_cast<int64_t>(spill_paths_.size()));
  obs::LatencyTimer spill_latency(config_.tracer, obs::kHStoreSpillUs);
  if (!scratch_) scratch_.emplace(config_.scratch_dir);
  std::string path =
      scratch_->FilePath("spill_" + std::to_string(spill_paths_.size()));
  SpillFileWriter writer(path, config_.fault_injector);
  BMR_RETURN_IF_ERROR(writer.Open());
  for (const auto& [key, partial] : memtable_) {
    BMR_RETURN_IF_ERROR(writer.Append(Slice(key), Slice(partial)));
  }
  BMR_RETURN_IF_ERROR(writer.Close());
  spill_paths_.push_back(path);
  ++stats_.spills;
  stats_.spilled_bytes += writer.bytes_written();
  memtable_.clear();
  memory_bytes_ = 0;
  return Status::Ok();
}

Status SpillMergeStore::Scan(const MergeFn& merge, const EmitFn& fn) {
  // Merge heads: every spill file plus the live memtable, all already
  // in key order.  Standard loser-tree-free k-way merge over a heap.
  struct Head {
    std::string key;
    std::string value;
    size_t source;  // spill index, or spills.size() for the memtable
  };
  mr::KeyCompareFn cmp = config_.key_cmp;
  auto key_less = [&cmp](const Slice a, const Slice b) {
    return cmp ? cmp(a, b) < 0 : a.view() < b.view();
  };
  // Heap orders by (key asc, source asc) — source order keeps the merge
  // fold deterministic (spill order, then memtable), matching the order
  // in which the fragments were produced.
  auto head_greater = [&key_less](const Head& a, const Head& b) {
    if (key_less(Slice(a.key), Slice(b.key))) return false;
    if (key_less(Slice(b.key), Slice(a.key))) return true;
    return a.source > b.source;
  };
  std::priority_queue<Head, std::vector<Head>, decltype(head_greater)> heap(
      head_greater);

  std::vector<std::unique_ptr<SpillFileReader>> readers;
  readers.reserve(spill_paths_.size());
  for (const auto& path : spill_paths_) {
    readers.push_back(
        std::make_unique<SpillFileReader>(path, config_.fault_injector));
    BMR_RETURN_IF_ERROR(readers.back()->Open());
  }
  auto advance_reader = [&](size_t idx) -> Status {
    Head h;
    h.source = idx;
    bool has;
    BMR_RETURN_IF_ERROR(readers[idx]->Next(&h.key, &h.value, &has));
    if (has) {
      stats_.disk_read_bytes += h.key.size() + h.value.size();
      ++stats_.disk_reads;
      heap.push(std::move(h));
    }
    return Status::Ok();
  };
  for (size_t i = 0; i < readers.size(); ++i) {
    BMR_RETURN_IF_ERROR(advance_reader(i));
  }
  auto memtable_it = memtable_.begin();
  auto push_memtable_head = [&] {
    if (memtable_it != memtable_.end()) {
      heap.push(Head{memtable_it->first, memtable_it->second,
                     spill_paths_.size()});
      ++memtable_it;
    }
  };
  push_memtable_head();

  std::string current_key;
  std::string current_partial;
  bool have_current = false;
  auto flush_current = [&] {
    if (have_current) fn(Slice(current_key), Slice(current_partial));
    have_current = false;
  };

  while (!heap.empty()) {
    Head h = heap.top();
    heap.pop();
    if (h.source < readers.size()) {
      BMR_RETURN_IF_ERROR(advance_reader(h.source));
    } else {
      push_memtable_head();
    }
    bool same_key = have_current && !key_less(Slice(current_key), Slice(h.key)) &&
                    !key_less(Slice(h.key), Slice(current_key));
    if (same_key) {
      current_partial =
          merge ? merge(Slice(h.key), Slice(current_partial), Slice(h.value))
                : std::move(h.value);
    } else {
      flush_current();
      current_key = std::move(h.key);
      current_partial = std::move(h.value);
      have_current = true;
    }
  }
  flush_current();
  return Status::Ok();
}

}  // namespace bmr::core
