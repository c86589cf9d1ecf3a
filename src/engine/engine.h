// The propagation engine: cached, batched, multi-threaded serving of
// CFD propagation covers (PropCFD_SPC / SPCU) over a shared catalog.
//
// A deployment (schema mapping, data exchange, cleaning-rule discovery)
// issues many near-identical propagation requests against one source
// schema and a handful of CFD sets. The one-shot pipeline recomputes
// MinCover/ComputeEQ/RBR per call; the engine amortizes that work:
//
//   * source CFD sets are registered once and min-covered at
//     registration (Fig. 2 line 1 runs once, not per request), and can
//     be *mutated* afterwards — AddCfd/RetractCfd re-minimize only the
//     relation the CFD is on (every other relation's minimized CFDs are
//     kept) and, when the set's content version changes, invalidate
//     only the old version's cache lines (never a global Clear),
//   * each request is canonically fingerprinted (src/engine/fingerprint.h)
//     together with its Σ's content version (SigmaVersion, the one Σ
//     identity: cache key, staleness check, snapshot and migration
//     binding) and served from a sharded LRU cover cache on a repeat; SPCU
//     requests are keyed by the multiset of their disjuncts'
//     fingerprints, and assemble from the per-SPC cache lines, so a
//     union of k disjuncts can be served as up to k partial hits,
//   * batches run on a fixed worker pool; results come back in request
//     order regardless of the thread count.
//
// Thread-safety contract: Propagate/PropagateUnion/PropagateBatch,
// RegisterSigma, AddCfd and RetractCfd are safe to call concurrently
// once the engine is constructed — sigma state is guarded by a
// shared_mutex and served via shared_ptr snapshots, so a retraction
// never frees CFDs or covers an in-flight request (or a caller-held
// EngineResult) still references. Building views against catalog()
// (which interns constants into the shared ValuePool), and constructing
// the CFDs handed to RegisterSigma/AddCfd/RetractCfd when that
// construction interns new constants, must still be serialized against
// serving: the pool itself is append-only and not thread-safe. The
// propagation pipeline only ever interns the two ComputeEQ/Lemma-4.5
// constants, which the constructor pre-interns, so serving and mutation
// with pre-built CFDs never mutate the pool.

#ifndef CFDPROP_ENGINE_ENGINE_H_
#define CFDPROP_ENGINE_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "src/algebra/view.h"
#include "src/base/status.h"
#include "src/cfd/cfd.h"
#include "src/cover/propcfd_spc.h"
#include "src/engine/cover_cache.h"
#include "src/engine/fingerprint.h"
#include "src/engine/stats.h"
#include "src/obs/trace.h"
#include "src/schema/schema.h"

namespace cfdprop {

/// Engine-local id of a registered source CFD set.
using SigmaId = uint32_t;

struct EngineOptions {
  /// Worker pool size for PropagateBatch. 0 or 1 = serve batches inline
  /// on the calling thread.
  size_t num_threads = 4;

  /// Total cover-cache capacity (entries) and shard count.
  size_t cache_capacity = 1024;
  size_t cache_shards = 8;

  /// Disable to force every request down the compute path (baseline
  /// measurements; the cache is still constructed but never consulted).
  bool use_cache = true;

  /// Disable to drop latency-histogram bucket recording (timing sums and
  /// counters still accumulate) — the registry-disabled baseline
  /// BM_MetricsOverhead compares against.
  bool metrics = true;

  /// Options forwarded to PropagationCoverSPC. `input_mincover` is
  /// ignored: registration already minimized, so requests always run
  /// with input_mincover = false, and a miss borrows the registered Σ
  /// without copying it. Per miss over zipf-open's 6,144 (tenant, view)
  /// pairs (|Σ| = 120, Release, 4-CPU x86 container, median of five
  /// interleaved runs), before and after the flat chase kernel
  /// (ComputeEQ) and the attribute-indexed RBR; the copy-free path
  /// before them had taken a miss from 62.1 µs and 644 allocations:
  ///
  ///   step (Fig. 2)                       µs           allocations
  ///   validation of the view and Σ         2.1 → 1.9     0 → 0
  ///   line 2: ComputeEQ                    5.6 → 1.7    66 → 8
  ///   lines 5-10 + line 11's X: Σ_V        8.6 → 8.4    65 → 65
  ///   line 11: RBR                        12.0 → 7.2     8 → 12
  ///   line 12: map + EQ2CFD                1.5 → 1.4    25 → 25
  ///   line 13: final MinCover              2.2 → 2.1     4 → 7
  ///   total                               31.8 → 22.8  167 → 117
  ///
  /// A union miss then assembles the per-disjunct covers
  /// (AssembleUnionCover): 129.7 → 27.8 µs and 606 → 79 allocations per
  /// churn-write union (|Σ| = 256).
  PropCoverOptions cover;
};

/// One served request. `cover` is shared with the cache: it stays valid
/// for as long as the caller holds it, across evictions, Clear() and
/// sigma retraction.
struct EngineResult {
  std::shared_ptr<const CachedCover> cover;
  uint64_t fingerprint = 0;
  bool cache_hit = false;

  /// SPCU requests only (disjunct_count >= 2): how many of the union's
  /// disjuncts were served from existing per-SPC cache lines while
  /// assembling. A full union-level hit reports disjunct_hits ==
  /// disjunct_count.
  size_t disjunct_hits = 0;
  size_t disjunct_count = 0;

  RequestTiming timing;
};

class Engine {
 public:
  /// Takes ownership of the catalog all registered CFD sets and served
  /// views refer to.
  explicit Engine(Catalog catalog, EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers a source CFD set, minimizes it per relation (Fig. 2
  /// line 1, hoisted out of the request path) and computes its content
  /// version. Σ sets with equal minimized content share cache lines.
  /// Thread-safe.
  Result<SigmaId> RegisterSigma(std::vector<CFD> sigma);

  /// Adds one CFD to a registered set and re-minimizes only the relation
  /// the CFD is on (MinCoverSigmaRelation; the result equals a full
  /// MinCoverSigma of the new list). If the minimized content changed,
  /// drops the old version's cache lines; lines of other versions are
  /// untouched, and a mutation that leaves the minimized set unchanged
  /// keeps every line. The CFD must be fully built — any constants
  /// already interned — before the call. Thread-safe against serving and
  /// other mutations.
  Status AddCfd(SigmaId id, CFD cfd);

  /// Retracts the first CFD of the set's *registered* (pre-minimization)
  /// list that equals `cfd`, then re-minimizes only the relation the CFD
  /// is on and selectively invalidates like AddCfd. NotFound when no
  /// registered CFD matches. Covers already handed out stay valid
  /// (shared_ptr). Thread-safe.
  Status RetractCfd(SigmaId id, const CFD& cfd);

  size_t num_sigmas() const;

  /// Snapshot of the minimized set served for `id`. The snapshot stays
  /// valid (and unchanged) across later AddCfd/RetractCfd calls.
  /// Precondition: id < num_sigmas().
  std::shared_ptr<const std::vector<CFD>> sigma(SigmaId id) const;

  /// Copy of the registered (pre-minimization) list, as mutated by
  /// AddCfd/RetractCfd — the input a one-shot differential run should
  /// use. Precondition: id < num_sigmas().
  std::vector<CFD> sigma_raw(SigmaId id) const;

  /// Content version of the set's minimized CFDs (SigmaVersionOf).
  /// Cache lines record the version they were computed against and are
  /// only served for it. Precondition: id < num_sigmas().
  SigmaVersion sigma_version(SigmaId id) const;

  const Catalog& catalog() const { return catalog_; }
  /// Mutable access for setup (SPCViewBuilder interns constants). Must
  /// not be used concurrently with serving.
  Catalog& catalog() { return catalog_; }

  /// Serves one SPC request on the calling thread (cache → compute).
  Result<EngineResult> Propagate(const SPCView& view, SigmaId sigma_id);

  /// Serves one SPCU request on the calling thread. The union is cached
  /// under the multiset fingerprint of its disjuncts (order-insensitive)
  /// and, on a union-level miss, each disjunct is served from the per-SPC
  /// cache lines before the cross-disjunct assembly runs — byte-identical
  /// to one-shot PropagationCoverSPCU on the same inputs. A
  /// single-disjunct union degenerates to Propagate.
  Result<EngineResult> PropagateUnion(const SPCUView& view, SigmaId sigma_id);

  struct Request {
    SPCUView view;
    SigmaId sigma_id = 0;

    Request() = default;
    Request(SPCView v, SigmaId s) : view(std::move(v)), sigma_id(s) {}
    Request(SPCUView v, SigmaId s) : view(std::move(v)), sigma_id(s) {}
  };

  /// Serves a batch across the worker pool. results[i] answers
  /// requests[i] — output order is deterministic and independent of the
  /// thread count and of scheduling. Requests may mix SPC and SPCU
  /// views.
  std::vector<Result<EngineResult>> PropagateBatch(
      const std::vector<Request>& requests);

  /// Same, recording a "compute" span against `trace` (sampled, with a
  /// process tracer installed — see src/obs/trace.h) annotated with the
  /// batch's cache hit/miss split. The untraced overload costs no
  /// tracing work at all; this one costs one branch when the context is
  /// unsampled.
  std::vector<Result<EngineResult>> PropagateBatch(
      const std::vector<Request>& requests, const obs::TraceContext& trace);

  /// Engine + cache counters.
  EngineStatsSnapshot Stats() const;

  /// Spills every live cover-cache line to `path` atomically
  /// (write-to-temp + rename; snapshot format in src/engine/snapshot.h).
  /// Each line carries its Σ version, so a restart whose registered
  /// sets differ rejects it instead of serving a stale cover. Returns
  /// the number of lines written. Thread-safe against serving and
  /// mutation.
  Result<uint64_t> SaveSnapshot(const std::string& path) const;

  /// Warm-starts the cover cache from a snapshot: call it after
  /// registering the Σ sets to serve (in any order) and before serving
  /// traffic — it interns snapshot constants into the shared pool,
  /// which is not thread-safe. A line restores iff its Σ version is the
  /// version of a registered set, so later AddCfd/RetractCfd churn
  /// invalidates it exactly like a natively computed line. A
  /// version/format mismatch or corrupt file rejects wholesale with a
  /// Status (the cache is untouched); lines of Σ content this engine
  /// does not serve are rejected one by one (see SnapshotLoadStats and
  /// the restored=/rejected= counters in Stats()).
  Result<SnapshotLoadStats> LoadSnapshot(const std::string& path);

  /// SaveSnapshot without the file: the snapshot bytes in memory,
  /// exactly what SaveSnapshot would publish. Tenant migration ships
  /// these over the wire. Thread-safe against serving and mutation.
  SerializedSnapshot SerializeSnapshot() const;

  /// LoadSnapshot from bytes already in memory (the receiving side of a
  /// migration). Same validation, acceptance and thread-safety rules as
  /// LoadSnapshot: call before serving traffic.
  Result<SnapshotLoadStats> LoadSnapshotBytes(std::string_view bytes);

  /// Drops all cached covers (handed-out results stay valid).
  void ClearCache();

  /// Resizes the cover cache to `entries` total slots (shard count is
  /// fixed). A shrink evicts in deterministic LRU order; handed-out
  /// covers stay valid. Returns how many entries were evicted. This is
  /// the hook a multi-tenant service uses to rebalance per-tenant
  /// budgets at runtime. Thread-safe.
  size_t SetCacheBudget(size_t entries);

  /// Current cover-cache capacity in entries (reflects SetCacheBudget,
  /// unlike options().cache_capacity which records the construction-time
  /// value).
  size_t cache_capacity() const;

  const EngineOptions& options() const { return options_; }

 private:
  struct SigmaEntry {
    /// As registered/churned, before minimization; AddCfd appends,
    /// RetractCfd erases the first match.
    std::vector<CFD> raw;
    /// Min-covered serving snapshot; replaced wholesale on mutation so
    /// in-flight requests keep their copy alive.
    std::shared_ptr<const std::vector<CFD>> minimized;
    /// SigmaVersionOf(*minimized); bound into every cache entry.
    SigmaVersion version;
  };

  Status ValidateSigma(const std::vector<CFD>& sigma) const;

  /// AddCfd/RetractCfd under mutation_mu_: applies `edit` to a copy of
  /// the raw list (an error leaves the set unchanged), re-minimizes only
  /// `relation`, the relation the CFD is on, and computes the version
  /// (outside sigma_mu_ — serving only ever blocks on the snapshot
  /// swap), swaps the entry's state, frees the superseded state after
  /// the lock, and drops the old version's cache lines if the version
  /// changed.
  Status MutateSigma(SigmaId id, RelationId relation,
                     const std::function<Status(std::vector<CFD>&)>& edit);

  /// Snapshots (minimized set, version) for a sigma id under the shared
  /// lock; InvalidArgument for unknown ids.
  Result<std::pair<std::shared_ptr<const std::vector<CFD>>, SigmaVersion>>
  SnapshotSigma(SigmaId sigma_id) const;

  /// The versions of every registered set: the lines a snapshot load
  /// may restore.
  std::vector<SigmaVersion> LiveVersions() const;

  Result<EngineResult> Serve(const SPCView& view, SigmaId sigma_id);
  Result<EngineResult> ServeUnion(const SPCUView& view, SigmaId sigma_id);
  Result<EngineResult> ServeRequest(const Request& request);
  /// ServeRequest with exceptions surfaced as Status::Internal — the
  /// batch contract ("errors come back as the slot's Status") for both
  /// the inline and the worker-chunk path.
  Result<EngineResult> ServeRequestNoThrow(const Request& request);
  void WorkerLoop();
  void StartWorkers();

  Catalog catalog_;
  EngineOptions options_;

  /// Guards sigmas_ (the vector and every entry). Serving takes it
  /// shared just long enough to snapshot; mutations take it exclusively
  /// just long enough to swap a re-minimized entry in (the minimization
  /// itself runs outside, see MutateSigma).
  mutable std::shared_mutex sigma_mu_;
  std::vector<SigmaEntry> sigmas_;
  /// Serializes AddCfd/RetractCfd against each other, so a mutation can
  /// copy raw, minimize unlocked, and swap without losing a concurrent
  /// mutator's update — and so the entry's snapshot is always the
  /// minimized form of its raw list, which MinCoverSigmaRelation needs.
  std::mutex mutation_mu_;

  CoverCache cache_;
  EngineStats stats_;

  // Work queue for PropagateBatch.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace cfdprop

#endif  // CFDPROP_ENGINE_ENGINE_H_
