#include "core/kvstore.h"

#include <cstdio>

#include <algorithm>
#include <vector>

#include "common/serde.h"
#include "faults/fault_injector.h"

namespace bmr::core {

KvStoreBackend::KvStoreBackend(const StoreConfig& config)
    : config_(config),
      scratch_(config.scratch_dir),
      log_path_(scratch_.FilePath("kvlog")) {
  // A failed open is surfaced by CheckLog() on the first log access —
  // constructors can't return Status.
  log_ = std::fopen(log_path_.c_str(), "w+b");
}

Status KvStoreBackend::CheckLog() const {
  if (log_ != nullptr) return Status::Ok();
  return Status::Unavailable("kv store log failed to open: " + log_path_);
}

KvStoreBackend::~KvStoreBackend() {
  if (log_ != nullptr) std::fclose(log_);
}

void KvStoreBackend::Touch(LruList::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

Status KvStoreBackend::WriteToLog(Slice value, DiskLocation* loc) {
  BMR_RETURN_IF_ERROR(CheckLog());
  if (config_.fault_injector != nullptr) {
    BMR_RETURN_IF_ERROR(config_.fault_injector->OnSpillWrite(log_path_));
  }
  // fseeko: the log can exceed 2 GiB, so the offset must not be
  // narrowed through long (32-bit on LLP64 targets).
  if (::fseeko(log_, static_cast<off_t>(log_tail_), SEEK_SET) != 0) {
    return Status::Internal("kv log seek failed");
  }
  if (std::fwrite(value.data(), 1, value.size(), log_) != value.size()) {
    return Status::Internal("kv log write failed");
  }
  loc->offset = log_tail_;
  loc->length = static_cast<uint32_t>(value.size());
  loc->on_disk = true;
  log_tail_ += value.size();
  return Status::Ok();
}

Status KvStoreBackend::ReadFromLog(const DiskLocation& loc,
                                   std::string* value) {
  BMR_RETURN_IF_ERROR(CheckLog());
  if (config_.fault_injector != nullptr) {
    BMR_RETURN_IF_ERROR(config_.fault_injector->OnSpillRead(log_path_));
  }
  if (::fseeko(log_, static_cast<off_t>(loc.offset), SEEK_SET) != 0) {
    return Status::Internal("kv log seek failed");
  }
  value->resize(loc.length);
  if (std::fread(value->data(), 1, loc.length, log_) != loc.length) {
    return Status::Internal("kv log short read");
  }
  ++stats_.disk_reads;
  stats_.disk_read_bytes += loc.length;
  return Status::Ok();
}

Status KvStoreBackend::EvictIfNeeded() {
  while (cache_bytes_ > config_.kv_cache_bytes && !lru_.empty()) {
    CacheEntry& victim = lru_.back();
    Slot& slot = victim.node->second;
    if (victim.dirty) {
      BMR_RETURN_IF_ERROR(WriteToLog(Slice(victim.value), &slot.disk));
    }
    cache_bytes_ -=
        EntryFootprint(victim.node->first.size(), victim.value.size());
    slot.cached = lru_.end();
    lru_.pop_back();
    ++evictions_;
  }
  return Status::Ok();
}

Status KvStoreBackend::Fold(Slice key, FoldFn fn) {
  ++stats_.folds;
  auto it = index_.find(key);  // transparent: no key copy
  if (it != index_.end() && it->second.cached != lru_.end()) {
    ++cache_hits_;
    CacheEntry& entry = *it->second.cached;
    const size_t old_size = entry.value.size();
    fn(&entry.value, /*fresh=*/false);
    cache_bytes_ = cache_bytes_ - old_size + entry.value.size();
    entry.dirty = true;
    Touch(it->second.cached);
  } else {
    // Cache miss: the same probe found the on-disk version, or the key
    // is new.  Only a new key materializes an owning key string.
    if (it == index_.end()) {
      it = index_.emplace(key.ToString(), Slot{DiskLocation{}, lru_.end()})
               .first;
    }
    Slot& slot = it->second;
    const bool fresh = !slot.disk.on_disk;
    std::string value;
    if (!fresh) {
      ++cache_misses_;
      BMR_RETURN_IF_ERROR(ReadFromLog(slot.disk, &value));
    }
    fn(&value, fresh);
    cache_bytes_ += EntryFootprint(key.size(), value.size());
    lru_.push_front(CacheEntry{&*it, std::move(value), /*dirty=*/true});
    slot.cached = lru_.begin();
  }
  stats_.peak_memory_bytes = std::max(stats_.peak_memory_bytes, cache_bytes_);
  // Eviction to make room may have to write back a dirty victim; a
  // failed write-back is lost data and must surface, not be swallowed.
  return EvictIfNeeded();
}

Status KvStoreBackend::Scan(const MergeFn& merge, const EmitFn& fn) {
  (void)merge;
  std::vector<const Node*> sorted;
  BMR_RETURN_IF_ERROR(SortedEntries(index_, config_.key_cmp, &sorted));
  std::string value;
  for (const Node* node : sorted) {
    const Slot& slot = node->second;
    if (slot.cached != lru_.end()) {
      fn(Slice(node->first), Slice(slot.cached->value));
    } else if (slot.disk.on_disk) {
      BMR_RETURN_IF_ERROR(ReadFromLog(slot.disk, &value));
      fn(Slice(node->first), Slice(value));
    } else {
      return Status::Internal("kv index entry with no value anywhere");
    }
  }
  return Status::Ok();
}

}  // namespace bmr::core
