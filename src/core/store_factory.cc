#include "core/kvstore.h"
#include "core/partial_store.h"
#include "core/spill_merge_store.h"

namespace bmr::core {

const char* StoreTypeName(StoreType type) {
  switch (type) {
    case StoreType::kInMemory: return "in-memory";
    case StoreType::kSpillMerge: return "spill-merge";
    case StoreType::kKvStore: return "kv-store";
  }
  return "unknown";
}

std::unique_ptr<PartialStore> CreatePartialStore(const StoreConfig& config) {
  switch (config.type) {
    case StoreType::kInMemory:
    case StoreType::kSpillMerge:
      // One memtable; config.type decides whether it spills.
      return std::make_unique<SpillMergeStore>(config);
    case StoreType::kKvStore:
      return std::make_unique<KvStoreBackend>(config);
  }
  return nullptr;
}

}  // namespace bmr::core
