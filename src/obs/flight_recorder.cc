#include "obs/flight_recorder.h"

#include <unistd.h>

#include <fstream>
#include <set>
#include <utility>

#include "obs/export.h"
#include "obs/trace.h"

namespace bmr::obs {
namespace {

constexpr int kFlightPid = 3;

}  // namespace

FlightRecorder* FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return recorder;
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {}

void FlightRecorder::RecordSpan(std::string name, const char* category,
                                int64_t arg, int node, double start_s,
                                double end_s) {
  FlightEvent event{std::move(name), category, arg, node, start_s, end_s};
  MutexLock lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[next_] = std::move(event);
  }
  next_ = (next_ + 1) % capacity_;
  ++total_;
}

void FlightRecorder::Note(std::string name, const char* category, int64_t arg,
                          int node) {
  const double now = ProcessNow();
  RecordSpan(std::move(name), category, arg, node, now, now);
}

void FlightRecorder::RequestDump(const std::string& reason, int64_t arg) {
  {
    MutexLock lock(mu_);
    dump_reasons_.push_back(reason);
  }
  Note(reason, kFlightTriggerCategory, arg, -1);
}

bool FlightRecorder::dump_pending() const {
  MutexLock lock(mu_);
  return !dump_reasons_.empty();
}

std::vector<std::string> FlightRecorder::TakeDumpReasons() {
  MutexLock lock(mu_);
  std::vector<std::string> reasons;
  reasons.swap(dump_reasons_);
  return reasons;
}

std::vector<FlightEvent> FlightRecorder::Chronological(size_t last_n) const {
  std::vector<FlightEvent> events;
  events.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    events.assign(ring_.begin(), ring_.end());
  } else {
    events.assign(ring_.begin() + next_, ring_.end());
    events.insert(events.end(), ring_.begin(), ring_.begin() + next_);
  }
  if (last_n > 0 && events.size() > last_n) {
    events.erase(events.begin(), events.end() - last_n);
  }
  return events;
}

std::string FlightRecorder::SnapshotJson(size_t last_n) const {
  std::vector<FlightEvent> events;
  {
    MutexLock lock(mu_);
    events = Chronological(last_n);
  }
  // Span::name borrows from `events`, which outlives the rendering.
  TraceLog log;
  std::set<int> nodes;
  for (const FlightEvent& e : events) {
    Span span;
    span.id = static_cast<SpanId>(log.spans.size() + 1);
    span.name = e.name.c_str();
    span.category = e.category;
    span.pid = kFlightPid;
    span.tid = e.node >= 0 ? e.node : 0;
    span.arg = e.arg;
    span.start_s = e.start_s;
    span.end_s = e.end_s;
    log.spans.push_back(span);
    if (e.node >= 0) nodes.insert(e.node);
  }
  for (int node : nodes) {
    log.tracks.push_back({kFlightPid, node, "node-" + std::to_string(node)});
  }
  return PerfettoTraceJson(log);
}

StatusOr<std::string> FlightRecorder::DumpToDir(const std::string& dir) {
  uint64_t seq;
  {
    MutexLock lock(mu_);
    seq = dump_seq_++;
  }
  const std::string path = dir + "/flight_" + std::to_string(getpid()) + "_" +
                           std::to_string(seq) + ".json";
  const std::string json = SnapshotJson(0);
  std::ofstream out(path, std::ios::trunc);
  out << json;
  out.close();
  if (!out) {
    return Status::Internal("cannot write flight artifact " + path);
  }
  return path;
}

uint64_t FlightRecorder::overwritten() const {
  MutexLock lock(mu_);
  return total_ > ring_.size() ? total_ - ring_.size() : 0;
}

size_t FlightRecorder::size() const {
  MutexLock lock(mu_);
  return ring_.size();
}

}  // namespace bmr::obs
