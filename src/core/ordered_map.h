// Key identity and key order for the partial-result stores.
//
// The stores index keys by hash (SliceHash/SliceEq: byte identity,
// transparent, so a probe takes a Slice and only an insert copies the
// key) and make key order only where it is consumed: a spill writes a
// sorted run, and Scan emits in key order.  Each sorts once, with
// SortedEntries, instead of keeping a tree ordered on every fold.
//
// Comparator contract: a key comparator returns 0 only for byte-equal
// keys.  The hash index keeps byte-distinct keys apart, so a tie would
// emit one logical key twice; SortedEntries checks for it on every sort.
#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "mr/types.h"

namespace bmr::core {

struct KeyLess {
  mr::KeyCompareFn cmp;  // null => bytewise

  bool operator()(Slice a, Slice b) const {
    if (!cmp) return a.view() < b.view();
    return cmp(a, b) < 0;
  }
};

/// Transparent hash/equality for unordered containers keyed by
/// std::string (C++20 heterogeneous lookup).
struct SliceHash {
  using is_transparent = void;
  size_t operator()(Slice s) const {
    return std::hash<std::string_view>{}(s.view());
  }
};

struct SliceEq {
  using is_transparent = void;
  bool operator()(Slice a, Slice b) const { return a.view() == b.view(); }
};

/// The status a store returns when the key comparator ties two
/// byte-distinct keys.
[[nodiscard]] inline Status ComparatorTiesDistinctKeys() {
  return Status::InvalidArgument(
      "key comparator returned 0 for byte-distinct keys; it must order "
      "every pair of distinct keys");
}

/// Pointers to every entry of a hash index keyed by std::string, sorted
/// by key under `cmp` (null = bytewise) into `*out`.  Returns
/// ComparatorTiesDistinctKeys() if two adjacent keys are not strictly
/// increasing.  One compare per entry on top of the sort, in every
/// build type.
template <typename Index>
[[nodiscard]] Status SortedEntries(
    const Index& index, const mr::KeyCompareFn& cmp,
    std::vector<const typename Index::value_type*>* out) {
  const KeyLess less{cmp};
  out->clear();
  out->reserve(index.size());
  for (const auto& entry : index) out->push_back(&entry);
  std::sort(out->begin(), out->end(), [&less](const auto* a, const auto* b) {
    return less(Slice(a->first), Slice(b->first));
  });
  for (size_t i = 1; i < out->size(); ++i) {
    if (!less(Slice((*out)[i - 1]->first), Slice((*out)[i]->first))) {
      return ComparatorTiesDistinctKeys();
    }
  }
  return Status::Ok();
}

}  // namespace bmr::core
