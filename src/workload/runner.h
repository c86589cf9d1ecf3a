// Executes a gen::WorkloadPlan over any serving path and measures it.
// Workers program against the CoverBackend interface (src/net) — the
// path choice is an injection, not a branch:
//
//   * inproc — one shared InProcBackend over a CatalogService: name
//     resolution + future folding in process, no sockets;
//   * tcp    — a loopback CoverServer; every client thread gets its own
//     RemoteBackend (the full wire round trip: encode, checksum,
//     socket, decode, re-intern — with reconnect-and-reopen on drops);
//   * routed — `router_shards` loopback CoverServers behind one shared
//     CoverRouter: consistent-hash placement, per-shard services with
//     their own snapshot subdirectories. After the serving phase (and
//     after its counters are read) the runner live-migrates every
//     tenant one shard clockwise and reports the migration rate.
//
// One worker thread per client script; per-op latency lands in an
// obs::Histogram (log buckets, linear interpolation within a bucket)
// from which the report's p50/p95/p99 are read.
//
// Admission bookkeeping: burst ops append one letter per batch to the
// report's admit pattern — 'A' admitted, 'R' rejected
// (ResourceExhausted), 'E' any other error — and the admitted/rejected
// totals are read back from the service stats *through the path under
// test* (the stats wire frame on tcp, the router's cross-shard
// aggregate on routed), so the determinism suite can assert every path
// agrees about every decision. The report's cover_fingerprint is the
// wrapping sum of a pool-independent content hash of every served
// cover's CFDs (FingerprintSigmaSet) — order-independent, so two paths
// serving the same cover *bytes* report the same value no matter how
// their threads interleaved, and a path serving a wrong-but-cached
// cover cannot hide behind its request key.

#ifndef CFDPROP_WORKLOAD_RUNNER_H_
#define CFDPROP_WORKLOAD_RUNNER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/gen/workload.h"

namespace cfdprop {
namespace workload {

/// Which CoverBackend the workers are handed.
enum class RunnerPath {
  kInproc,  // InProcBackend over one CatalogService
  kTcp,     // RemoteBackend over one loopback CoverServer
  kRouted,  // CoverRouter over router_shards loopback CoverServers
};

/// "inproc" | "tcp" | "routed" — the --path spellings.
const char* RunnerPathName(RunnerPath path);
Result<RunnerPath> ParseRunnerPath(const std::string& name);

struct RunnerOptions {
  RunnerPath path = RunnerPath::kInproc;
  /// Engine worker threads per tenant (1 on the pinned-CPU CI).
  size_t engine_threads = 1;
  /// 0 = one dispatcher per tenant (min 2).
  size_t dispatcher_threads = 0;
  /// Directory for snapshot spills; required when the plan spills
  /// (snapshot-restart, tenant-churn). Must exist. The routed path
  /// creates one subdirectory per shard under it.
  std::string snapshot_dir;
  /// Socket deadline armed on both ends of the wire paths (0 = blocking).
  std::chrono::milliseconds io_timeout{0};
  /// Shards behind the router (routed path only; min 2).
  size_t router_shards = 3;

  /// Tracing (src/obs/trace.h): sample 1/2^k requests at the edge.
  /// Negative (the default) installs no tracer at all — the run is
  /// byte-identical to a build without tracing.
  int trace_sample_shift = -1;
  /// Slow-request capture threshold in microseconds; negative = off. A
  /// non-negative threshold installs the tracer even with sampling off.
  int64_t slow_threshold_us = -1;
  /// Seed for the tracer's id streams (deterministic dumps).
  uint64_t trace_seed = 0;
};

struct WorkloadReport {
  std::string workload;
  std::string path;  // RunnerPathName of the path run
  uint64_t seed = 0;
  /// The plan's request-stream fingerprint (gen::FingerprintScripts).
  uint64_t stream_fingerprint = 0;

  uint64_t requests = 0;        // view requests submitted
  uint64_t covers_served = 0;   // requests answered with an OK cover
  uint64_t batches = 0;         // batch + burst slots submitted
  uint64_t errors = 0;          // non-admission request/batch errors
  uint64_t churn_ops = 0;
  uint64_t reopens = 0;
  uint64_t restored_lines = 0;  // warm-start restores across reopens

  /// Wrapping sum of the pool-independent content hash
  /// (FingerprintSigmaSet) of every OK cover served. Scenario + seed
  /// determine it for churn-free plans, so equal values across paths
  /// mean the paths served byte-identical covers.
  uint64_t cover_fingerprint = 0;

  /// Admission totals as reported by the path under test: its backend's
  /// METRICS scrape, summed over tenants (and shards on routed).
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  /// Concatenated per-burst patterns in client order ('A'/'R'/'E').
  std::string admit_pattern;

  /// Routed path only: live migrations performed after the serving
  /// phase (every tenant, one shard clockwise) and their rate.
  uint64_t migrations = 0;
  double migrations_per_sec = 0;
  /// Snapshot lines the migrations restored on their target shards.
  uint64_t migrated_lines = 0;

  double elapsed_s = 0;
  double covers_per_sec = 0;
  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double hit_rate_pct = 0;

  /// Per-stage latency over the run's sampled spans (tracing on only):
  /// one row per span name (rpc/route/decode/admission/...), sorted by
  /// name, quantiles over the raw sampled durations — the bench's
  /// --json per-stage breakdown.
  struct StageLatency {
    std::string stage;
    uint64_t spans = 0;
    double p50_us = 0;
    double p95_us = 0;
    double p99_us = 0;
  };
  std::vector<StageLatency> stages;
  /// Tracer health over the run (tracing on only).
  uint64_t spans_recorded = 0;
  uint64_t spans_dropped = 0;
  uint64_t slow_requests = 0;

  std::string ToString() const;
};

/// Runs the plan to completion. Fails (typed) on setup errors — a spec
/// that cannot open, a server that cannot bind, a missing snapshot_dir
/// for a spilling plan; per-request serving errors are counted, not
/// fatal.
Result<WorkloadReport> RunWorkload(const gen::WorkloadPlan& plan,
                                   const RunnerOptions& options);

}  // namespace workload
}  // namespace cfdprop

#endif  // CFDPROP_WORKLOAD_RUNNER_H_
