// Measurement primitives for the perfbench driver: raw latency samples
// with nearest-rank percentiles, named span durations, peak RSS, and
// the JSON number formatting the result line uses.
//
// Percentiles are always read from raw samples. The library's
// obs::Histogram interpolates inside power-of-two buckets, so its p99
// is often a bucket edge (1536.0, 1792.0, ...) rather than a value any
// request took; nothing here reads a percentile from a histogram.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

inline double UsSince(Clock::time_point a) { return UsBetween(a, Clock::now()); }

/// Raw samples of one quantity. Percentile() is the nearest-rank
/// definition: the smallest sample with at least q of the samples at or
/// below it, so every reported value is one that was measured.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double Percentile(double q) const {
    if (values_.empty()) return 0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = std::ceil(q * static_cast<double>(sorted.size()));
    const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
    return sorted[std::min(idx, sorted.size() - 1)];
  }
  double Median() const { return Percentile(0.5); }

 private:
  std::vector<double> values_;
};

/// The benchmark's own spans: durations of timed calls into one layer's
/// public functions, grouped by span name. Kept in memory and summarized
/// when the run ends.
class SpanLog {
 public:
  Samples& operator[](const std::string& name) { return spans_[name]; }
  double Median(const std::string& name) const {
    auto it = spans_.find(name);
    return it == spans_.end() ? 0 : it->second.Median();
  }
  const std::map<std::string, Samples>& all() const { return spans_; }

 private:
  std::map<std::string, Samples> spans_;
};

/// Peak resident set size of this process image so far, in MiB: VmHWM
/// of /proc/self/status. getrusage's ru_maxrss survives execve, so under
/// a launcher it would report the launcher's peak when that is larger.
inline double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof(line), f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %lu kB", &kib) == 1;
    }
    std::fclose(f);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// A JSON number with every significant digit of a double.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
