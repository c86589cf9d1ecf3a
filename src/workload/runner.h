// Executes a gen::WorkloadPlan over any serving path: the cross-path
// correctness oracle that tests/workload_test.cc drives. Workers
// program against the CoverBackend interface (src/net) — the path
// choice is an injection, not a branch:
//
//   * inproc — one shared InProcBackend over a CatalogService: name
//     resolution + future folding in process, no sockets;
//   * tcp    — a loopback CoverServer; every client thread gets its own
//     RemoteBackend (the full wire round trip: encode, checksum,
//     socket, decode, re-intern — with reconnect-and-reopen on drops);
//   * routed — three loopback CoverServers behind one shared
//     CoverRouter: consistent-hash placement, per-shard services with
//     their own snapshot subdirectories. After the serving phase (and
//     after its counters are read) the runner live-migrates every
//     tenant one shard clockwise and reports the lines it restored.
//
// One worker thread per client script. Nothing here is timed: speed is
// perfbench's job (perfbench/README.md); this runner only counts.
//
// Admission bookkeeping: burst ops append one letter per batch to the
// report's admit pattern — 'A' admitted, 'R' rejected
// (ResourceExhausted), 'E' any other error — and the admitted/rejected
// totals are read back from the service's METRICS scrape *through the
// path under test* (the wire on tcp, the router's cross-shard merge on
// routed), so the determinism suite can assert every path agrees about
// every decision. The report's cover_fingerprint is the wrapping sum
// of a pool-independent content hash of every served cover's CFDs
// (FingerprintSigmaSet) — order-independent, so two paths serving the
// same cover *bytes* report the same value no matter how their threads
// interleaved, and a path serving a wrong-but-cached cover cannot hide
// behind its request key.

#ifndef CFDPROP_WORKLOAD_RUNNER_H_
#define CFDPROP_WORKLOAD_RUNNER_H_

#include <cstdint>
#include <string>

#include "src/base/status.h"
#include "src/gen/workload.h"

namespace cfdprop {
namespace workload {

/// Which CoverBackend the workers are handed.
enum class RunnerPath {
  kInproc,  // InProcBackend over one CatalogService
  kTcp,     // RemoteBackend over one loopback CoverServer
  kRouted,  // CoverRouter over three loopback CoverServers
};

/// "inproc" | "tcp" | "routed".
const char* RunnerPathName(RunnerPath path);

struct RunnerOptions {
  RunnerPath path = RunnerPath::kInproc;
  /// Directory for snapshot spills; required when the plan spills
  /// (snapshot-restart, tenant-churn). Must exist. The routed path
  /// creates one subdirectory per shard under it.
  std::string snapshot_dir;
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
  /// Batch slots that failed NotFound while the client dropping and
  /// re-opening that tenant was mid-reopen — the typed outcome
  /// tenant-churn's drop window is allowed to produce. Any other
  /// failure, a NotFound outside a reopen included, is an error.
  uint64_t unavailable = 0;
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
  /// phase (every tenant, one shard clockwise) and the snapshot lines
  /// they restored on their target shards.
  uint64_t migrations = 0;
  uint64_t migrated_lines = 0;

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
