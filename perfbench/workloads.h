// The three perfbench workloads, their generated inputs and the cover
// oracle every served cover is checked against.
//
//   hot-read     routed: 3 loopback CoverServer shards behind one
//                CoverRouter, 8 tenants, 2 closed-loop clients sending
//                batches drawn from a hot set that fits every tenant's
//                cache. After the warm-up pass every request hits, so
//                the router, wire, service dispatch and engine lookup do
//                all the work and MinCover/PropCFD_SPC do none.
//   churn-write  inproc (InProcBackend over CatalogService), 16 tenants,
//                2 closed-loop clients, each pinned to its own tenants. Every
//                round is AddCfd -> batch -> RetractCfd on the client's
//                tenant, with |Σ| = 256 per tenant and a share of SPCU
//                unions, so every post-mutation batch recomputes: paper
//                algorithms, union assembly and invalidation dominate
//                and no socket is involved.
//   zipf-open    tcp: one loopback CoverServer, 64 tenants, an open loop
//                over 4 connections at a fixed rate. Names are Zipf-
//                popular over a working set 3x each tenant's cache share,
//                so the cache evicts, hits and misses mix inside a batch
//                and queueing shows in the tail.
//
// Everything here is a pure function of (workload, seed): the program
// under test only ever sees the generated specs and name streams.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/measure.h"
#include "src/base/status.h"
#include "src/cfd/cfd.h"
#include "src/gen/workload.h"
#include "src/parser/parser.h"

namespace perfbench {

enum class Path { kInproc, kTcp, kRouted };

const char* PathName(Path path);

/// "V3" / "U3": the spec names gen::BuildTenantSpec gives SPC views and
/// unions.
std::string ViewName(char prefix, size_t index);

struct WorkloadConfig {
  std::string name;
  Path path = Path::kInproc;
  size_t shards = 1;
  size_t tenants = 8;
  /// Closed loop: client threads. Open loop: connections, each driven by
  /// its own generator thread.
  size_t clients = 2;
  bool open_loop = false;
  /// Open loop only: batches per second offered across all connections.
  double rate = 0;
  size_t batch = 40;
  /// Generator sizes per tenant spec (src/gen): |Σ| and SPC views V0..
  /// Every spec also declares the unions U_i = V_i ∪ V_{i+1}.
  size_t num_cfds = 120;
  size_t num_views = 40;
  /// hot-read: names are drawn uniformly from V0..V{hot_views-1}.
  size_t hot_views = 0;
  /// zipf-open: Zipf exponent of the name popularity over V0..
  double zipf_s = 0;
  /// churn-write: percent of names that are unions U0..
  size_t union_pct = 0;
  /// Each round is AddCfd -> batch -> RetractCfd on the client's tenant.
  bool churn = false;
  /// ServiceOptions::global_cache_budget of every service.
  size_t cache_budget = 4096;
  /// ServiceOptions::dispatcher_threads. Engines serve batches inline on
  /// the dispatcher (EngineOptions::num_threads = 1): the dispatchers and
  /// clients already cover the 4 CPUs.
  size_t dispatchers = 2;
  /// Batches per client stream; streams are replayed cyclically.
  size_t stream_len = 2048;

  std::string TenantName(size_t t) const { return "tenant" + std::to_string(t); }
};

/// The workload named `name` (hot-read, churn-write, zipf-open). `tiny`
/// shrinks every size for the self-test. NotFound for other names.
cfdprop::Result<WorkloadConfig> ConfigFor(const std::string& name, bool tiny);

/// The `key=value` parameter list printed in each run's stamp.
std::string DescribeConfig(const WorkloadConfig& cfg);

/// One batch of a client's stream.
struct BatchOp {
  size_t tenant = 0;
  std::vector<std::string> names;
};

/// streams[c] is client (or connection) c's batch sequence. On
/// churn-write client c owns the tenants t with t % clients == c.
std::vector<std::vector<BatchOp>> MakeStreams(const WorkloadConfig& cfg,
                                              uint64_t seed);

/// The generator plan the tenant specs come from (gen::BuildTenantSpec).
cfdprop::gen::WorkloadPlan MakePlan(const WorkloadConfig& cfg, uint64_t seed);

/// The CFD churn-write adds and retracts: an FD on relation 0 that is
/// not already in `sigma` (so RetractCfd removes exactly the added copy).
cfdprop::CFD ChurnCfd(const std::vector<cfdprop::CFD>& sigma);

/// Expected cover fingerprints (FingerprintSigmaSet) per tenant, Σ state
/// (0 = as generated, 1 = with the churn CFD added) and view name,
/// computed one-shot: MinCoverSigma on the raw Σ of the state, then
/// PropagationCoverSPC / PropagationCoverSPCU with input_mincover off —
/// exactly Fig. 2 with its line 1 hoisted.
struct Oracle {
  std::vector<std::array<std::unordered_map<std::string, uint64_t>, 2>> fps;
  std::vector<cfdprop::CFD> churn_cfds;  // per tenant
};

/// Computes the oracle for every (tenant, state, name) in `names`
/// (names[t] = the names tenant t can be asked for). Records the
/// one-shot calls as spans "cfd.mincover" (ms), "cover.spc" and
/// "cover.union" (us) in `spans`.
cfdprop::Result<Oracle> BuildOracle(
    const WorkloadConfig& cfg, const cfdprop::gen::WorkloadPlan& plan,
    const std::vector<std::vector<std::string>>& names, SpanLog& spans);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
