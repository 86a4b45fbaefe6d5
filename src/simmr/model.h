// Paper-scale workload model for the cluster simulator.
//
// The evaluation in the paper ran on 16 real nodes over 2–16 GB inputs;
// this module describes a job to the DES as record/byte volumes and
// per-record costs so those experiments can be replayed in virtual
// time.  Cost constants live in profiles.cc and are sanity-checked
// against per-record costs measured on the real engine
// (simmr/calibrate) — see DESIGN.md for the substitution argument.
#pragma once

#include <cstdint>
#include <string>

#include "core/partial_store.h"

namespace bmr::simmr {

/// Memory complexity class of the partial results (Table 1).
enum class MemClass {
  kNone,      // Identity: nothing retained
  kConstant,  // Single-reducer aggregation: O(1)
  kWindow,    // Cross-key: O(window_size)
  kKeys,      // Aggregation: O(keys)
  kKKeys,     // Selection: O(k * keys)
  kRecords,   // Sorting / post-reduction: O(records)
};

/// Overflow-management scheme used by a barrier-less reducer.
struct StoreModel {
  core::StoreType type = core::StoreType::kInMemory;
  uint64_t heap_limit_bytes = 0;          // 0 = unlimited
  uint64_t spill_threshold_bytes = 240ull << 20;
  double kv_ops_per_sec = 30000;          // BerkeleyDB JE measurement
  double kv_cache_fraction = 0.2;         // hit rate proxy for gets
};

/// Everything the simulator needs to know about one job.
struct SimJob {
  std::string app = "job";
  bool barrierless = false;

  // ---- Volumes -------------------------------------------------------
  double input_bytes = 1e9;
  uint64_t map_input_records = 0;
  /// Map output (post-combiner, if any), across all mappers.
  uint64_t map_output_records = 0;
  double map_output_bytes = 0;
  /// Total distinct intermediate keys.
  uint64_t distinct_keys = 0;
  double output_bytes = 0;

  // ---- Shape ---------------------------------------------------------
  int num_reducers = 60;
  /// 0 = derive map tasks from input_bytes / dfs block size.
  int num_map_tasks = 0;

  // ---- Per-record costs, seconds on a speed-1.0 core -----------------
  /// Map function cost per *input* record (parse + user code + emit).
  double map_cost_per_record = 2e-6;
  /// Map-side sort cost per *output* record (with-barrier mode only).
  double map_sort_cost_per_record = 1.2e-6;
  /// Reduce-side merge cost per record at the barrier (heap merge of
  /// sorted runs).
  double merge_cost_per_record = 1.0e-6;
  /// Grouped reduce-function cost per record (with barrier).
  double reduce_cost_per_record = 1.0e-6;
  /// Barrier-less fold cost per record: one store probe plus the update
  /// in place (the engine's PartialStore::Fold).  Profiles keep the
  /// paper's TreeMap get + update + put cost — the red-black tree path
  /// its Sort analysis highlights — so Fig. 6(a) does not drift.
  double incremental_cost_per_record = 1.6e-6;
  /// Final emission cost per distinct key (barrier-less only).
  double finalize_cost_per_key = 0.8e-6;

  // ---- Memory model --------------------------------------------------
  MemClass mem_class = MemClass::kKeys;
  /// Estimated bytes per partial-result entry (key + value + overhead).
  double partial_entry_bytes = 64;
  /// Cross-key window size (kWindow only).
  uint64_t window_size = 0;
  /// Selection factor k (kKKeys only).
  uint64_t selection_k = 10;

  StoreModel store;

  /// Relative per-task duration jitter (uniform in [1-j, 1+j]); models
  /// input skew and the machine-to-machine variation the paper calls
  /// out in commodity datacenters.
  double task_jitter = 0.3;
  uint64_t seed = 1;

  /// Map-side combiner model: fraction of map-output records folded
  /// away before the shuffle (0 = no combiner).  Charges
  /// reduce_cost_per_record per pre-combine record at the mapper.
  double combiner_reduction = 0.0;

  /// Speculative execution (Hadoop-style backup tasks): when a map
  /// task has run longer than `speculation_slowness` x the median
  /// completed duration and a slot is free elsewhere, a backup copy is
  /// launched; the first finisher wins.
  bool speculative_execution = false;
  double speculation_slowness = 1.3;
};

/// One (virtual time, reducer, bytes) heap sample (Fig. 5 raw data).
struct SimMemorySample {
  double t = 0;
  int reducer = 0;
  double bytes = 0;
};

}  // namespace bmr::simmr
