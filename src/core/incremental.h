// The barrier-less Reduce programming model (Sections 3–4 of the paper).
//
// In barrier-less MapReduce the Reduce function is invoked with a
// *single record* as it arrives off the shuffle, not with a key and all
// of its values.  Applications therefore keep a partial result per key
// and fold each arriving value into it; final output is emitted once
// all records have been consumed.  The paper has the programmer write a
// custom run() doing exactly this with a TreeMap; here the fold is
// factored into an interface so the framework can own the partial-result
// storage — which is what makes the pluggable overflow management of
// Section 5 (spill-and-merge, disk-spilling KV store) possible, and lets
// the stores index by hash and sort once, at spill and final emission,
// instead of keeping a tree ordered on every record.
//
// The seven Reduce classes of Table 1 map onto it as:
//   Identity                  — UsesStore()=false, Update emits directly
//   Sorting                   — partial = duplicate count, O(records) keys
//   Aggregation               — partial = running aggregate, O(keys)
//   Selection                 — partial = top-k list, O(k·keys)
//   Post-reduction processing — partial = per-key set, O(records)
//   Cross-key operations      — UsesStore()=false, window kept in the
//                               reducer object, flushed in Flush()
//   Single-reducer aggregation— one fixed key, O(1)
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/config.h"
#include "mr/emitter.h"

namespace bmr::core {

class IncrementalReducer {
 public:
  virtual ~IncrementalReducer() = default;

  /// Called once before the first record.
  virtual void Setup(const Config& config) { (void)config; }

  /// Whether the framework should keep a per-key partial result in the
  /// configured PartialStore.  Identity and cross-key reducers return
  /// false and manage (none or windowed) state themselves.
  virtual bool UsesStore() const { return true; }

  /// Initial partial result for a key seen for the first time.  The
  /// paper's WordCount inserts (key, 0) before the first reduce call.
  virtual std::string InitPartial(Slice key) {
    (void)key;
    return std::string();
  }

  /// Fold one arriving value into the key's partial result.  `partial`
  /// is the current value (initially InitPartial) and is updated in
  /// place.  When UsesStore() is false, `partial` is nullptr and the
  /// implementation may emit output directly.
  virtual void Update(Slice key, Slice value, std::string* partial,
                      mr::ReduceEmitter* out) = 0;

  /// Merge two partial results for the same key that were accumulated
  /// independently (e.g. in different spill files).  Must be associative;
  /// the engine may call it in any grouping.  This plays the role the
  /// paper assigns to the combiner-like merge function of the
  /// spill-and-merge scheme (§5.1).
  virtual std::string MergePartials(Slice key, Slice a, Slice b) {
    (void)key;
    (void)a;
    // Default: last write wins.  Correct only for reducers that never
    // rely on spilled fragments, i.e. UsesStore()==false.
    return b.ToString();
  }

  /// Emit the final output for one key once all values are folded in.
  virtual void Finish(Slice key, Slice partial, mr::ReduceEmitter* out) {
    out->Emit(key, partial);
  }

  /// Called once after every key has been finished — cross-key windows
  /// and single-reducer aggregates emit their remainder here.
  virtual void Flush(mr::ReduceEmitter* out) { (void)out; }
};

using IncrementalReducerFactory =
    std::function<std::unique_ptr<IncrementalReducer>()>;

}  // namespace bmr::core
