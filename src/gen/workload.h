// Scenario workload plans: a WorkloadPlan is a fully deterministic
// function of WorkloadOptions — per-tenant generated specs (src/gen
// generators under names V0..Vn, plus U0..Un union views where the
// scenario serves unions) and one op script per client. Two users:
// perfbench builds its tenants with BuildTenantSpec, and the
// cross-path oracle (src/workload/runner.h, driven by
// tests/workload_test.cc) executes the same plan over the in-process,
// TCP and routed paths, which is what makes the paths comparable: they
// serve byte-identical request streams.
//
// Determinism is a feature under test: SerializeScripts renders the
// request stream to canonical bytes and FingerprintScripts hashes them,
// so "same seed ⇒ byte-identical stream" is a plain string compare.

#ifndef CFDPROP_GEN_WORKLOAD_H_
#define CFDPROP_GEN_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/parser/parser.h"

namespace cfdprop {
namespace gen {

/// The seven scenarios, named (WorkloadKindName) hit-heavy, churn-heavy,
/// union-heavy, tenant-churn, burst-reject, snapshot-restart, mixed.
enum class WorkloadKind {
  kHitHeavy,         // hot SPC name stream, ~90% cache hits
  kChurnHeavy,       // hit-heavy + AddCfd/RetractCfd churn interleaved
  kUnionHeavy,       // SPCU names: k-partial-hit union assembly
  kTenantChurn,      // serving while tenants are dropped and re-opened
  kBurstReject,      // pipelined bursts against tight admission caps
  kSnapshotRestart,  // serve cold -> spill -> drop -> warm reopen -> serve
  kMixed,            // all of the above, interleaved
};

const char* WorkloadKindName(WorkloadKind kind);
std::vector<WorkloadKind> AllWorkloadKinds();

struct WorkloadOptions {
  WorkloadKind kind = WorkloadKind::kHitHeavy;
  /// Tenants opened for the run (tenant0..tenantN-1).
  size_t tenants = 2;
  /// Concurrent client scripts. Pinned-tenant scenarios (burst-reject,
  /// snapshot-restart) clamp this to `tenants` so each tenant has one
  /// deterministic driver.
  size_t clients = 2;
  /// Rounds per client script.
  size_t rounds = 5;
  uint64_t seed = 42;
  /// View-name requests per batch.
  size_t batch_size = 40;
  /// Batches pipelined per burst op (burst-reject / mixed).
  size_t burst = 6;
  /// Admission caps applied by the runner for burst-reject and mixed
  /// (the other scenarios run uncapped).
  uint64_t max_inflight = 1;
  uint64_t max_queue = 1;
  /// Generator sizes per tenant spec.
  size_t num_cfds = 120;
  size_t num_views = 40;
};

/// One step of a client script.
struct WorkloadOp {
  enum class Type {
    kBatch,     // submit batches[0], wait for the reply
    kBurst,     // pipeline all of `batches` in one admission decision
    kChurnAdd,  // AddCfd of the tenant's churn CFD to Σ0
    kChurnDrop, // RetractCfd of the same
    kSpill,     // spill the tenant's cover cache to disk
    kReopen,    // drop the tenant and re-open it (warm when spilled)
  };
  Type type = Type::kBatch;
  /// Tenant index into the plan's tenant list.
  size_t tenant = 0;
  /// View-name batches (kBatch: exactly one; kBurst: `burst` of them).
  std::vector<std::vector<std::string>> batches;
};

struct WorkloadPlan {
  WorkloadOptions options;
  /// Effective admission caps the runner must configure (0 = off).
  uint64_t max_inflight = 0;
  uint64_t max_queue = 0;
  /// Whether the plan's specs carry U* union views.
  bool with_unions = false;
  /// Whether any op spills/reopens (the runner then needs snapshot_dir).
  bool needs_snapshots = false;
  /// scripts[c] is client c's op sequence.
  std::vector<std::vector<WorkloadOp>> scripts;

  std::string TenantName(size_t t) const {
    return "tenant" + std::to_string(t);
  }
};

/// Builds the deterministic plan for `options` (clamping degenerate
/// knobs: >=1 tenant/client/round, pinned scenarios clamp clients).
WorkloadPlan BuildWorkloadPlan(const WorkloadOptions& options);

/// (Re)generates tenant t's spec — catalog, Σ0 source CFDs, V*/U*
/// views — purely from the plan's options, so a reopen after drop
/// rebuilds the exact same structures (and a warm start's Σ fingerprint
/// matches the spilled snapshot).
Spec BuildTenantSpec(const WorkloadPlan& plan, size_t tenant);

/// The canonical byte rendering of every client script, tenants and ops
/// in order. Two plans with equal options render equal bytes.
std::string SerializeScripts(const WorkloadPlan& plan);

/// FNV-1a over SerializeScripts — the request-stream fingerprint the
/// reports and determinism tests compare.
uint64_t FingerprintScripts(const WorkloadPlan& plan);

}  // namespace gen
}  // namespace cfdprop

#endif  // CFDPROP_GEN_WORKLOAD_H_
