#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double pos = q * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;  // 5: reset the peak RSS
  return std::fclose(f) == 0 && ok;
}

double PeakRssMb() {
  // VmHWM honours clear_refs; ru_maxrss does not.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.emplace_back(name, Metric{value, unit});
}

void Report::Note(const std::string& key, const std::string& value) {
  provenance_.emplace_back(key, value);
}

void Report::Print(const std::string& workload) const {
  std::printf("== %s ==\nprovenance:", workload.c_str());
  for (const auto& [key, value] : provenance_) {
    std::printf(" %s=%s", key.c_str(), value.c_str());
  }
  std::printf("\n");
  for (const auto& [name, metric] : metrics_) {
    std::printf("  %-36s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::fflush(stdout);
}

std::string Report::MetricsJson(const std::string& prefix) const {
  std::string out;
  char buf[512];
  for (const auto& [name, metric] : metrics_) {
    std::snprintf(buf, sizeof(buf), "%s\"%s%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.empty() ? "" : ", ", prefix.c_str(), name.c_str(),
                  std::isfinite(metric.value) ? metric.value : 0.0,
                  metric.unit.c_str());
    out += buf;
  }
  return out;
}

}  // namespace perfbench
