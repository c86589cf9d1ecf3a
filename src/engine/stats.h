// Engine serving metrics: per-request timings and aggregate counters.
//
// EngineStats is updated with relaxed atomics from the worker pool (the
// counters are independent monotone sums, so no ordering is needed) and
// read via Snapshot(). Cache counters live in CoverCache; the engine
// merges both into one EngineStatsSnapshot.
//
// Latency accumulation rides on src/obs histograms: each timing field
// is one obs::Histogram whose nanosecond sum plays the old accumulator
// role (the former `atomic<double>` CAS loops are gone) and whose
// buckets give the per-engine latency distribution the exporter
// renders. Constructing with `latency_histograms = false` keeps only
// the sums — the registry-disabled path BM_MetricsOverhead measures.

#ifndef CFDPROP_ENGINE_STATS_H_
#define CFDPROP_ENGINE_STATS_H_

#include <atomic>
#include <cstdint>

#include "src/engine/cover_cache.h"
#include "src/obs/metrics.h"

namespace cfdprop {

/// Timings of one served request, microseconds.
struct RequestTiming {
  double total_us = 0;       // fingerprint + cache + compute
  double fingerprint_us = 0; // canonicalization + hashing
  double compute_us = 0;     // PropagationCoverSPC (0 on a cache hit)
};

/// A consistent-enough view of the engine's counters (individual fields
/// are exact; cross-field ratios can be off by in-flight requests).
struct EngineStatsSnapshot {
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t batches = 0;
  /// SPCU requests (each also counts once in `requests`).
  uint64_t union_requests = 0;
  /// Per-disjunct SPC cache lines reused / computed while assembling
  /// union covers (the "k partial hits" of an SPCU request).
  uint64_t disjunct_hits = 0;
  uint64_t disjunct_misses = 0;
  /// AddCfd/RetractCfd mutations applied across all sigma sets.
  uint64_t sigma_mutations = 0;
  /// Mutations whose group MinCover came from the memo, and the memo's
  /// lines now (at most Engine::kSigmaMemoCapacity).
  uint64_t sigma_memo_hits = 0;
  uint64_t sigma_memo_lines = 0;
  double total_us = 0;
  double fingerprint_us = 0;
  double compute_us = 0;
  /// PropagateBatch accounting: wall-clock time spent inside batch calls
  /// and the sum of the per-request serve times within them. Their ratio
  /// is the *effective* parallelism actually achieved: ~1.0 on one CPU
  /// or with one worker. perfbench, the workload runner and the CLI
  /// (unless --threads asks for more) serve with one engine worker, so
  /// there it reads ~1.0 on any machine.
  double batch_wall_us = 0;
  double batch_busy_us = 0;
  /// Latency distributions behind the sums above (empty buckets when the
  /// engine runs with latency_histograms off).
  obs::HistogramSnapshot total_latency;
  obs::HistogramSnapshot fingerprint_latency;
  obs::HistogramSnapshot compute_latency;

  double BatchParallelism() const {
    return batch_wall_us > 0 ? batch_busy_us / batch_wall_us : 0.0;
  }
  CacheStats cache;
};

class EngineStats {
 public:
  explicit EngineStats(bool latency_histograms = true)
      : total_hist_(latency_histograms),
        fingerprint_hist_(latency_histograms),
        compute_hist_(latency_histograms) {}

  void Record(const RequestTiming& t, bool error) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (error) errors_.fetch_add(1, std::memory_order_relaxed);
    total_hist_.Record(t.total_us);
    fingerprint_hist_.Record(t.fingerprint_us);
    compute_hist_.Record(t.compute_us);
  }

  void RecordBatch() { batches_.fetch_add(1, std::memory_order_relaxed); }

  /// One PropagateBatch completed: `wall_us` is its wall-clock span,
  /// `busy_us` the sum of its requests' serve times.
  void RecordBatchTiming(double wall_us, double busy_us) {
    batch_wall_ns_.fetch_add(ToNanos(wall_us), std::memory_order_relaxed);
    batch_busy_ns_.fetch_add(ToNanos(busy_us), std::memory_order_relaxed);
  }

  void RecordUnion(size_t disjunct_hits, size_t disjunct_misses) {
    union_requests_.fetch_add(1, std::memory_order_relaxed);
    disjunct_hits_.fetch_add(disjunct_hits, std::memory_order_relaxed);
    disjunct_misses_.fetch_add(disjunct_misses, std::memory_order_relaxed);
  }

  void RecordMutation() {
    sigma_mutations_.fetch_add(1, std::memory_order_relaxed);
  }

  void RecordSigmaMemoHit() {
    sigma_memo_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  void SetSigmaMemoLines(uint64_t lines) {
    sigma_memo_lines_.store(lines, std::memory_order_relaxed);
  }

  /// Cache counters are filled in by the engine (they live in the cache).
  EngineStatsSnapshot Snapshot() const {
    EngineStatsSnapshot s;
    s.requests = requests_.load(std::memory_order_relaxed);
    s.errors = errors_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.union_requests = union_requests_.load(std::memory_order_relaxed);
    s.disjunct_hits = disjunct_hits_.load(std::memory_order_relaxed);
    s.disjunct_misses = disjunct_misses_.load(std::memory_order_relaxed);
    s.sigma_mutations = sigma_mutations_.load(std::memory_order_relaxed);
    s.sigma_memo_hits = sigma_memo_hits_.load(std::memory_order_relaxed);
    s.sigma_memo_lines = sigma_memo_lines_.load(std::memory_order_relaxed);
    s.total_latency = total_hist_.Snapshot();
    s.fingerprint_latency = fingerprint_hist_.Snapshot();
    s.compute_latency = compute_hist_.Snapshot();
    s.total_us = s.total_latency.sum_us;
    s.fingerprint_us = s.fingerprint_latency.sum_us;
    s.compute_us = s.compute_latency.sum_us;
    s.batch_wall_us =
        static_cast<double>(batch_wall_ns_.load(std::memory_order_relaxed)) /
        1000.0;
    s.batch_busy_us =
        static_cast<double>(batch_busy_ns_.load(std::memory_order_relaxed)) /
        1000.0;
    return s;
  }

 private:
  static uint64_t ToNanos(double us) {
    return us > 0 ? static_cast<uint64_t>(us * 1000.0 + 0.5) : 0;
  }

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> union_requests_{0};
  std::atomic<uint64_t> disjunct_hits_{0};
  std::atomic<uint64_t> disjunct_misses_{0};
  std::atomic<uint64_t> sigma_mutations_{0};
  std::atomic<uint64_t> sigma_memo_hits_{0};
  std::atomic<uint64_t> sigma_memo_lines_{0};
  obs::Histogram total_hist_;
  obs::Histogram fingerprint_hist_;
  obs::Histogram compute_hist_;
  std::atomic<uint64_t> batch_wall_ns_{0};
  std::atomic<uint64_t> batch_busy_ns_{0};
};

}  // namespace cfdprop

#endif  // CFDPROP_ENGINE_STATS_H_
