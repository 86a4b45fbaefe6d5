// Result reporting: named metrics with units, provenance, statistics
// helpers, and the one-line JSON result the benchmark ends with.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples;
/// 0 for an empty vector.
double Quantile(std::vector<double> samples, double q);
inline double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

/// Process CPU seconds (user + sys) so far, from getrusage.
double ProcessCpuSeconds();
/// Restart the process's peak-RSS high-water mark at the current RSS
/// (Linux /proc/self/clear_refs); false where that is unsupported.
bool ResetPeakRss();
/// Peak resident set size of the process since the last ResetPeakRss
/// (or since start), MiB.
double PeakRssMb();

struct Metric {
  double value = 0;
  std::string unit;
};

/// Ordered metric set of one workload run.
class Report {
 public:
  /// Append a metric; each name is set once.
  void Set(const std::string& name, double value, const std::string& unit);
  /// Provenance: configuration a number must never be read without.
  void Note(const std::string& key, const std::string& value);
  void Note(const std::string& key, int64_t value) {
    Note(key, std::to_string(value));
  }

  const std::vector<std::pair<std::string, Metric>>& metrics() const {
    return metrics_;
  }

  /// Human-readable block: provenance line, then one metric per line.
  void Print(const std::string& workload) const;
  /// {"name": {"value": v, "unit": u}, ...}; names optionally prefixed.
  std::string MetricsJson(const std::string& prefix = "") const;

 private:
  std::vector<std::pair<std::string, Metric>> metrics_;
  std::vector<std::pair<std::string, std::string>> provenance_;
};

/// Outcome counts of one run: every job whose output was checked.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

}  // namespace perfbench
