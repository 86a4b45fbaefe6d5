// Crash flight recorder (GUIDE §15): a process-global, always-armed,
// bounded ring of coarse events — task phase transitions, faults,
// recovery actions — recorded even when `obs.trace` is off.  Like an
// aircraft FDR it never stops writing: the ring keeps the most recent
// history and a dump is a snapshot of it, so a job failure,
// tainted-reducer restart, or injected crash leaves a post-mortem
// Perfetto JSON artifact instead of just an exit code.
//
// Cost discipline: events are coarse (per task phase, per fault — not
// per record), so one mutex-guarded ring write per event is far off
// every hot path; the fine-grained span machinery stays in obs/trace.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace bmr::obs {

/// One ring entry: a closed interval (notes have zero duration) on the
/// process time base (obs::ProcessNow).  Names are dynamic strings —
/// triggers carry failure details — which is fine at flight-event
/// rates.
struct FlightEvent {
  std::string name;
  const char* category = "";
  int64_t arg = -1;   // task / node / fault id; -1 = none
  int node = -1;      // logical node; -1 = none
  double start_s = 0;
  double end_s = 0;
};

/// Category every RequestDump trigger event is recorded under; the
/// chaos harness greps dumped artifacts for it.
inline constexpr const char* kFlightTriggerCategory = "flight.trigger";

class FlightRecorder {
 public:
  /// The process-wide recorder, armed from first use.
  static FlightRecorder* Global();

  explicit FlightRecorder(size_t capacity = 4096);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Record the closed interval [start_s, end_s] on the process time
  /// base — a job-clock event maps there through Tracer::ProcessTime.
  void RecordSpan(std::string name, const char* category, int64_t arg,
                  int node, double start_s, double end_s) BMR_EXCLUDES(mu_);

  /// Record an instantaneous event now.
  void Note(std::string name, const char* category, int64_t arg, int node)
      BMR_EXCLUDES(mu_);

  /// Mark the ring for a post-mortem dump (sticky until taken) and
  /// record a kFlightTriggerCategory event naming the reason.  `arg`
  /// identifies the failed task / node (-1 = none).
  void RequestDump(const std::string& reason, int64_t arg) BMR_EXCLUDES(mu_);

  bool dump_pending() const BMR_EXCLUDES(mu_);

  /// Claim the accumulated trigger reasons (clears the pending flag);
  /// the owner of the job boundary decides whether and where to dump.
  std::vector<std::string> TakeDumpReasons() BMR_EXCLUDES(mu_);

  /// The retained history (most recent `last_n` events; 0 = all),
  /// rendered by obs::PerfettoTraceJson on pid 3 ("bmr-flight"), one
  /// lane per node ("node-<n>"; events without a node on lane 0), as
  /// parent-free spans — passes obs::ValidatePerfettoJson.
  std::string SnapshotJson(size_t last_n) const BMR_EXCLUDES(mu_);

  /// Write SnapshotJson(0) to `dir`/flight_<pid>_<seq>.json and return
  /// the path.  The ring is not cleared: later dumps include this
  /// history too (it is a flight recorder, not a per-job log).
  [[nodiscard]] StatusOr<std::string> DumpToDir(const std::string& dir)
      BMR_EXCLUDES(mu_);

  /// Events overwritten by ring wraparound (bounded-memory drops).
  uint64_t overwritten() const BMR_EXCLUDES(mu_);
  size_t size() const BMR_EXCLUDES(mu_);

 private:
  /// Events in record order, oldest first.
  std::vector<FlightEvent> Chronological(size_t last_n) const
      BMR_REQUIRES(mu_);

  const size_t capacity_;

  mutable Mutex mu_;
  std::vector<FlightEvent> ring_ BMR_GUARDED_BY(mu_);
  size_t next_ BMR_GUARDED_BY(mu_) = 0;    // ring cursor
  uint64_t total_ BMR_GUARDED_BY(mu_) = 0;  // events ever recorded
  std::vector<std::string> dump_reasons_ BMR_GUARDED_BY(mu_);
  uint64_t dump_seq_ BMR_GUARDED_BY(mu_) = 0;
};

}  // namespace bmr::obs
