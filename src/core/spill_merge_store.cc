#include "core/spill_merge_store.h"

#include <algorithm>
#include <memory>

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
      spills_(config.type == StoreType::kSpillMerge) {}

Status SpillMergeStore::Fold(Slice key, FoldFn fn) {
  ++stats_.folds;
  auto it = memtable_.find(key);  // transparent: no key copy
  if (it != memtable_.end()) {
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
    memtable_.emplace(key.ToString(), std::move(partial));
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
  std::vector<const Memtable::value_type*> run;
  BMR_RETURN_IF_ERROR(SortedEntries(memtable_, config_.key_cmp, &run));
  if (!scratch_) scratch_.emplace(config_.scratch_dir);
  std::string path =
      scratch_->FilePath("spill_" + std::to_string(spill_paths_.size()));
  SpillFileWriter writer(path, config_.fault_injector);
  BMR_RETURN_IF_ERROR(writer.Open());
  for (const auto* entry : run) {
    BMR_RETURN_IF_ERROR(
        writer.Append(Slice(entry->first), Slice(entry->second)));
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
  // The memtable, sorted once (and left in place: Scan is
  // non-destructive), is one more run beside the spill files.
  std::vector<const Memtable::value_type*> memtable_run;
  BMR_RETURN_IF_ERROR(SortedEntries(memtable_, config_.key_cmp, &memtable_run));

  // Merge heads: every spill file plus the memtable run, all in key
  // order.  Standard loser-tree-free k-way merge over a heap.
  struct Head {
    std::string key;
    std::string value;
    size_t source;  // spill index, or spill_paths_.size() for the memtable
  };
  const KeyLess key_less{config_.key_cmp};
  // Heap orders by (key asc, source asc) — source order keeps the merge
  // fold deterministic (spill order, then memtable), matching the order
  // in which the fragments were produced.
  auto head_greater = [&key_less](const Head& a, const Head& b) {
    if (key_less(Slice(a.key), Slice(b.key))) return false;
    if (key_less(Slice(b.key), Slice(a.key))) return true;
    return a.source > b.source;
  };
  std::vector<Head> heap;
  heap.reserve(spill_paths_.size() + 1);
  auto push = [&heap, &head_greater](Head h) {
    heap.push_back(std::move(h));
    std::push_heap(heap.begin(), heap.end(), head_greater);
  };

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
      push(std::move(h));
    }
    return Status::Ok();
  };
  for (size_t i = 0; i < readers.size(); ++i) {
    BMR_RETURN_IF_ERROR(advance_reader(i));
  }
  size_t memtable_next = 0;
  auto push_memtable_head = [&] {
    if (memtable_next < memtable_run.size()) {
      const auto* entry = memtable_run[memtable_next++];
      push(Head{entry->first, entry->second, spill_paths_.size()});
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
    std::pop_heap(heap.begin(), heap.end(), head_greater);
    Head h = std::move(heap.back());
    heap.pop_back();
    if (h.source < readers.size()) {
      BMR_RETURN_IF_ERROR(advance_reader(h.source));
    } else {
      push_memtable_head();
    }
    // Heads pop in key order, so a head that does not sort after the
    // current key is a fragment of it.
    if (have_current && !key_less(Slice(current_key), Slice(h.key))) {
      if (h.key != current_key) {
        // Fragments from different runs that the comparator ties.
        return ComparatorTiesDistinctKeys();
      }
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
