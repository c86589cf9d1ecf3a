// Multi-tenant catalog service: the routing/serving layer above the
// propagation engine.
//
// One Engine serves one catalog; the ROADMAP north star is many
// catalogs (tenants) behind one front end. CatalogService owns N named
// tenants — each a catalog, its registered Σ sets and a private Engine —
// and adds the three things the engine alone does not have:
//
//   * a tenant registry (OpenSpec / OpenCatalog / DropCatalog /
//     ResolveCatalog) that carves per-tenant cover-cache budgets out of
//     one global entry budget, rebalancing live caches (deterministic
//     LRU eviction, CoverCache::SetBudget) whenever a tenant opens or
//     drops, and rolls every tenant's engine counters up into one
//     service stats snapshot. A tenant keeps its spec — source Σ (as
//     Σ 0), named SPC/SPCU views, the text it was parsed from — so the
//     registry alone decides a same-text reopen and resolves view
//     names; the front ends keep no tenant state;
//
//   * a batch front end with one run queue — SubmitBatch returns a
//     std::future<BatchReply> (or invokes a callback) and a
//     service-level dispatcher pool fans the batches out across tenant
//     engines; ServeBatches is the synchronous form, whose calling
//     thread runs queued batches itself until its own have resolved
//     (a connection thread that would only block on the futures saves
//     two thread hand-offs per request). Dispatchers and serving
//     callers pop one queue in one order under one bound
//     (ServiceOptions::dispatcher_threads batches running at once);
//     results come back in request order within each batch, exactly as
//     Engine::PropagateBatch orders them;
//
//   * a snapshot *policy* — PR 3 built the snapshot mechanism (when
//     asked, spill/restore the cover cache byte-stably); the service
//     decides WHEN: a background thread spills each tenant's cache to
//     <snapshot_dir>/<tenant>.ccsnap once at least
//     SnapshotPolicy::dirty_line_threshold cache changes accrued since
//     its last spill, checked every SnapshotPolicy::interval; an open
//     warm-starts a tenant from its file (after registering the Σ
//     sets, so content fingerprints validate), and DropCatalog /
//     service shutdown flush dirty tenants so no computed cover is
//     lost.
//
// Thread-safety: every public method is safe to call concurrently once
// the service is constructed. Tenants are held by shared_ptr — a drop
// never frees an engine an in-flight batch (or a caller-held handle)
// still uses. The one caveat inherited from Engine: building the
// Catalog, CFDs and views *passed to* an open interns into that
// tenant's pool and must happen-before the call; from then on serving
// never mutates it.

#ifndef CFDPROP_SERVICE_CATALOG_SERVICE_H_
#define CFDPROP_SERVICE_CATALOG_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/engine/engine.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/parser/parser.h"
#include "src/service/batch_result.h"

namespace cfdprop {

/// When the background thread spills a tenant's cover cache.
struct SnapshotPolicy {
  /// How often dirtiness is checked. 0 disables the background thread —
  /// tenants then spill only on DropCatalog/shutdown (and explicit
  /// SpillTenant calls), which keeps tests and scripts deterministic.
  std::chrono::milliseconds interval{0};

  /// Minimum cache changes (insertions + evictions + invalidations)
  /// since the tenant's last spill before the *background* thread
  /// considers it dirty (clamped to >= 1 at construction — a clean
  /// tenant is never re-spilled: equal content writes equal bytes, so
  /// skipping is purely an I/O saving). The DropCatalog/shutdown
  /// flushes ignore this bar and spill on ANY dirtiness, so a computed
  /// cover is never lost to a high threshold.
  uint64_t dirty_line_threshold = 1;
};

/// Per-tenant admission control: how many batches one tenant may have in
/// the service at once before further submissions are rejected instead
/// of queued. The point is fairness under saturation — with N tenants
/// sharing a dispatcher pool, one tenant flooding SubmitBatch must not
/// starve the others (dispatch is round-robin across tenants, and this
/// cap bounds how much of the queue a single tenant can occupy).
struct AdmissionOptions {
  /// Batches of one tenant that may be running at once (on dispatchers
  /// and ServeBatches callers together).
  /// 0 = unlimited (admission control off; nothing is ever rejected).
  uint64_t max_inflight_batches = 0;

  /// Waiting room beyond the running cap: a tenant's submissions are
  /// admitted while its total in-service count (running + queued) is
  /// below max_inflight_batches + max_queued_batches, and rejected with
  /// a deterministic ResourceExhausted Status at the bound. Ignored
  /// while max_inflight_batches is 0.
  uint64_t max_queued_batches = 0;
};

struct ServiceOptions {
  /// How many batches can be in flight across all tenants at once, and
  /// the dispatcher pool's size. A ServeBatches caller that runs a
  /// batch takes one of these slots too, so dispatchers and callers
  /// together never run more than this many (each runner blocks inside
  /// one Engine::PropagateBatch at a time).
  size_t dispatcher_threads = 2;

  AdmissionOptions admission;

  /// Total cover-cache entries split evenly across open tenants (each
  /// tenant gets at least 1; re-split on every open/drop). Per-tenant
  /// shares round down to shard multiples, so this is a true upper
  /// bound — with one caveat: a cache's shard count is fixed when its
  /// tenant opens (clamped to its share at that moment), and each shard
  /// keeps >= 1 slot, so if later opens shrink a tenant's share below
  /// its shard count (engine.cache_shards, default 8) that tenant
  /// floors at one entry per shard. Keep the budget >= tenants x shards
  /// (the default 4096 allows 512 such tenants) to stay within bound.
  size_t global_cache_budget = 4096;

  /// Per-tenant engine template. `cache_capacity` is overridden by the
  /// budget split above; everything else (worker threads, cover
  /// options, shard count) applies to every tenant's engine as-is.
  EngineOptions engine;

  /// Directory for per-tenant snapshot files ("" disables persistence
  /// entirely: no warm starts, no spills). Must exist.
  std::string snapshot_dir;

  SnapshotPolicy policy;
};

/// One open tenant: a named catalog with its own engine, and the spec
/// it was opened with. Handles are shared_ptr — they (and the covers
/// they served) outlive DropCatalog.
class Tenant {
 public:
  const std::string& name() const { return name_; }
  Engine& engine() { return *engine_; }
  const Engine& engine() const { return *engine_; }

  /// The spec the tenant was opened with (OpenSpec); its catalog has
  /// moved into the engine. No views for a bare OpenCatalog tenant.
  const Spec& spec() const { return spec_; }

  /// Current cover-cache budget (entries) as actually honored by the
  /// cache after the service's global-budget split (shares round down
  /// to shard multiples, so this never overstates capacity).
  size_t cache_budget() const {
    return cache_budget_.load(std::memory_order_relaxed);
  }

  /// Why the open's warm start rejected its snapshot whole (version bump,
  /// truncation, corruption); OK when it loaded or there was no file.
  const Status& snapshot_rejection() const { return snapshot_rejection_; }

 private:
  friend class CatalogService;

  Tenant(std::string name, std::unique_ptr<Engine> engine, Spec spec,
         std::string spec_text)
      : name_(std::move(name)),
        engine_(std::move(engine)),
        spec_(std::move(spec)),
        spec_text_(std::move(spec_text)) {}

  std::string name_;
  std::unique_ptr<Engine> engine_;
  Spec spec_;
  std::string spec_text_;  // empty unless opened from text
  std::atomic<size_t> cache_budget_{0};
  Status snapshot_rejection_;  // set before the tenant is published

  /// Serializes spills of this tenant (policy thread vs. Drop vs.
  /// explicit SpillTenant). The file writer's temp files are
  /// writer-unique (pid + counter, last rename wins), so concurrent
  /// writes can never clobber each other's bytes — this lock is
  /// about *ordering*: without it a stale policy spill could rename
  /// over a newer flush. Held across the disk write — which is why the
  /// counters below are atomics: Stats() must never stall behind
  /// snapshot I/O.
  std::mutex spill_mu;
  /// Cache-change counter (insertions+evictions+invalidations) observed
  /// at the last spill; the delta against it is the dirtiness. Written
  /// under spill_mu, read lock-free by Stats().
  std::atomic<uint64_t> spill_marker{0};
  std::atomic<uint64_t> last_spill_lines{0};
  std::atomic<uint64_t> spills{0};    // total spills (policy + flush)
  /// Set by DropCatalog after its final flush (under spill_mu): the
  /// policy thread may still hold this handle from a pre-drop snapshot
  /// of the registry, and must not rewrite the tenant's file — a
  /// same-name tenant may have re-opened and own it now.
  std::atomic<bool> dropped{false};
  std::atomic<uint64_t> policy_spills{0};  // spills by the background thread

  /// Admission state; `admission_admitted` also numbers the tenant's
  /// batches (BatchReply::sequence). The gauges (queued/running) are
  /// only ever written under the service's queue_mu_ — which is what
  /// makes burst admission decisions deterministic — but are atomics so
  /// Stats() can read them without taking the queue lock.
  std::atomic<uint64_t> admission_admitted{0};
  std::atomic<uint64_t> admission_rejected{0};
  std::atomic<uint64_t> admission_queued{0};   // waiting in the tenant queue
  std::atomic<uint64_t> admission_running{0};  // held by a runner

  /// Per-stage latency histograms (`cfdprop_stage_latency_us{tenant=,
  /// stage=}`), owned by the service's MetricsRegistry and resolved at
  /// open — re-opening a name continues the same series. Only
  /// service code records into them.
  struct StageTimers {
    obs::Histogram* admission = nullptr;   // submit entry -> enqueued
    obs::Histogram* queue_wait = nullptr;  // enqueued -> runner pop
    obs::Histogram* dispatch = nullptr;    // pop -> batch handed to engine
    obs::Histogram* propagate = nullptr;   // Engine::PropagateBatch wall
    obs::Histogram* reply = nullptr;       // promise/callback delivery
  };
  StageTimers stages_;
};

using TenantHandle = std::shared_ptr<Tenant>;

/// One batch's outcome. The payload is the BatchResult shape the wire
/// protocol also speaks (results[i] answers requests[i] of the
/// submitted batch). A reply delivered through a future or callback
/// always has an OK `status` (SubmitBatch returns rejections
/// synchronously); a ServeBatches slot carries its batch's rejection
/// there, with no results.
struct BatchReply : BatchResult {
  std::string tenant;
  /// Per-tenant submission sequence number (0-based): replies to one
  /// tenant can complete out of order on concurrent runners, the
  /// sequence says which submit each reply answers.
  uint64_t sequence = 0;
};

/// Per-tenant rollup inside ServiceStatsSnapshot.
struct TenantStatsSnapshot {
  std::string name;
  size_t cache_budget = 0;
  uint64_t spills = 0;         // all snapshot spills (policy + flush)
  uint64_t policy_spills = 0;  // spills initiated by the background thread
  uint64_t last_spill_lines = 0;
  /// Cache changes since the last spill — what the policy compares to
  /// dirty_line_threshold. 0 means the snapshot file is up to date (a
  /// warm-started tenant that only ever hit stays clean forever).
  uint64_t dirty_lines = 0;
  /// Snapshot loads rejected wholesale at open (snapshot_rejection()).
  uint64_t snapshot_rejected = 0;
  /// Admission control (see AdmissionOptions): batches admitted/rejected
  /// over the tenant's lifetime, and the current queued/running gauges.
  uint64_t admitted = 0;
  uint64_t admission_rejected = 0;
  uint64_t queued = 0;
  uint64_t running = 0;
  EngineStatsSnapshot engine;
};

struct ServiceStatsSnapshot {
  size_t global_cache_budget = 0;
  uint64_t batches_submitted = 0;
  uint64_t batches_completed = 0;
  /// Submissions refused by per-tenant admission control, service-wide
  /// (rejected batches do not count in batches_submitted).
  uint64_t batches_rejected = 0;
  /// In tenant-name order.
  std::vector<TenantStatsSnapshot> tenants;
};

class CatalogService {
 public:
  explicit CatalogService(ServiceOptions options = {});

  /// Stops the dispatchers (draining every queued batch first, so no
  /// future is ever broken) and the policy thread, then flushes every
  /// dirty tenant to the snapshot directory.
  ~CatalogService();

  CatalogService(const CatalogService&) = delete;
  CatalogService& operator=(const CatalogService&) = delete;

  /// Opens a tenant: builds its engine (per-tenant budget carved from
  /// the global one), registers `sigmas` in order (their SigmaIds are
  /// 0, 1, ... as Engine::RegisterSigma assigns them), then — when a
  /// snapshot directory is configured and <dir>/<name>.ccsnap exists —
  /// warm-starts the cover cache from it (a rejected/corrupt file is
  /// not an error: the tenant just starts cold). Tenant names are file
  /// names, so only [A-Za-z0-9_.-] is accepted, and not starting with
  /// '.'. Fails on a name that is already open, or that differs from
  /// an open one only in case. Rebalances every tenant's cache budget
  /// to global/N. The tenant has no views (see OpenSpec).
  Result<TenantHandle> OpenCatalog(const std::string& name, Catalog catalog,
                                   std::vector<std::vector<CFD>> sigmas = {});

  /// Opens a tenant from a spec — the paper's propagation input: its
  /// catalog, Σ 0 = spec.source_cfds, and the named views that
  /// ServeViewBatches resolves. Otherwise as OpenCatalog. `spec_text`
  /// is the text `spec` was parsed from, or empty: re-opening an open
  /// tenant with the same non-empty text returns the live tenant
  /// (a reconnecting client replays its opens, a migration retry
  /// re-lands); any other open of an open name is InvalidArgument.
  /// `snapshot` warm-starts the cache from those bytes (a migration's
  /// target) instead of the snapshot directory's file; a rejected one
  /// opens cold (Tenant::snapshot_rejection says why), and restored
  /// lines count as dirty, so the next spill persists them locally.
  Result<TenantHandle> OpenSpec(
      const std::string& name, Spec spec, std::string spec_text = {},
      std::optional<std::string_view> snapshot = std::nullopt);

  /// Closes a tenant: flushes its cache to the snapshot directory (when
  /// configured), then removes it from the registry and rebalances the
  /// remaining tenants' budgets. A failed flush fails the drop — the
  /// tenant stays open for a retry rather than silently losing its
  /// covers. Batches already submitted still complete — they hold the
  /// tenant handle — but their late cache insertions are not
  /// re-spilled. NotFound for unknown names.
  Status DropCatalog(const std::string& name);

  /// Looks a tenant up by name. The handle stays valid across a later
  /// DropCatalog.
  Result<TenantHandle> ResolveCatalog(const std::string& name) const;

  size_t num_tenants() const;
  /// Open tenant names, sorted.
  std::vector<std::string> TenantNames() const;

  /// Submits a batch for async serving on `tenant`'s engine; the future
  /// resolves with results in request order once a dispatcher (or a
  /// ServeBatches caller) has run it. Resolution failures (unknown
  /// tenant, service shutting down, an admission rejection —
  /// ResourceExhausted, see AdmissionOptions) surface synchronously as
  /// the Result's status.
  Result<std::future<BatchReply>> SubmitBatch(
      const std::string& tenant, std::vector<Engine::Request> requests);

  /// Pipelined submit: every batch's admission is decided under one
  /// queue-lock hold, before any of them can be dispatched or complete —
  /// so the admit/reject pattern of a burst is a pure function of the
  /// caps and the tenant's in-service count at the call, never of
  /// dispatcher timing. slot i answers batches[i]: either a future (the
  /// batch was admitted and will resolve) or the synchronous rejection
  /// Status. ServeBatches admits the same way. `trace` (when sampled,
  /// with a process tracer installed) attaches the request's trace
  /// context to every batch: the five stage spans (admission/
  /// queue_wait/dispatch/propagate/reply) are recorded against it,
  /// parented to `trace.parent_span_id`, reusing the exact stamps the
  /// stage histograms read — tracing adds no clock calls of its own.
  std::vector<Result<std::future<BatchReply>>> SubmitBatches(
      const std::string& tenant,
      std::vector<std::vector<Engine::Request>> batches,
      const obs::TraceContext& trace = {});

  /// Synchronous SubmitBatches on a resolved tenant: admits `batches`
  /// exactly as SubmitBatches does (one queue-lock hold), then the
  /// calling thread runs queued batches — its own or another tenant's,
  /// in dispatch order, under the same running bounds as a dispatcher —
  /// until each of its admitted batches has resolved. Slot i answers
  /// batches[i]: its results, or its rejection in `status` (a shutdown
  /// rejects every slot).
  std::vector<BatchReply> ServeBatches(
      const TenantHandle& tenant,
      std::vector<std::vector<Engine::Request>> batches,
      const obs::TraceContext& trace = {});

  /// ServeBatches by view name: each name resolves against the views of
  /// the tenant's spec and is served against Σ 0. A batch naming an
  /// unknown view fails alone with NotFound and is never admitted.
  /// Slot i answers views[i]. The network front end and InProcBackend
  /// serve every frame through it — one registry lookup per frame, and
  /// the covers and the pool that encodes them come from one tenant.
  std::vector<BatchResult> ServeViewBatches(
      const TenantHandle& tenant,
      const std::vector<std::vector<std::string>>& views,
      const obs::TraceContext& trace = {});

  /// Callback overload: `done` runs when the batch completes, on
  /// whichever thread ran it — a dispatcher or a ServeBatches caller.
  /// It must not block for long (it holds one of the
  /// dispatcher_threads running slots) and must not throw.
  Status SubmitBatch(const std::string& tenant,
                     std::vector<Engine::Request> requests,
                     std::function<void(BatchReply)> done);

  /// Spills one tenant's cover cache to the snapshot directory now,
  /// regardless of dirtiness. Returns the number of lines written.
  /// Fails when no snapshot directory is configured.
  Result<uint64_t> SpillTenant(const std::string& name);

  /// Blocks until the tenant has no batches in the service (queued +
  /// running == 0) — the quiesce step of a migration. The caller is
  /// responsible for holding new submissions off (the router marks the
  /// tenant migrating first); DrainTenant only waits out what is
  /// already in. `deadline` <= 0 waits forever; otherwise typed
  /// DeadlineExceeded when the tenant is still busy at the deadline.
  Status DrainTenant(const std::string& name,
                     std::chrono::milliseconds deadline);

  /// The tenant's cover cache serialized to snapshot bytes in memory
  /// (.ccsnap wire format, checksum included) — what a migration ships
  /// to the target shard. Thread-safe against serving; for a settled
  /// byte image, DrainTenant first.
  Result<SerializedSnapshot> ExportTenantSnapshot(const std::string& name);

  /// Per-tenant and service-level counters.
  ServiceStatsSnapshot Stats() const;

  /// The service's metrics registry: owns the per-tenant stage
  /// histograms and (via a collector) exports every counter in Stats()
  /// as text exposition. Valid for the service's lifetime; anything
  /// registering its own collector (e.g. CoverServer) must remove it
  /// before the service dies.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// RenderMetricsText(metrics()) — the library-level scrape behind the
  /// METRICS wire frame and --metrics-dump.
  std::string RenderMetricsText() const { return metrics_.RenderText(); }

  const ServiceOptions& options() const { return options_; }

 private:
  struct Job {
    TenantHandle tenant;
    std::vector<Engine::Request> requests;
    uint64_t sequence = 0;
    std::promise<BatchReply> promise;
    /// Empty = future overload (reply goes to `promise`); set = the
    /// callback overload.
    std::function<void(BatchReply)> callback;
    /// Lifecycle stamps for the stage histograms: when the submit call
    /// entered the service, and when admission accepted the batch.
    std::chrono::steady_clock::time_point submit_start{};
    std::chrono::steady_clock::time_point admitted_at{};
    /// Trace context from the submit edge; when sampled, the runner
    /// records the stage spans against it (same stamps as the
    /// histograms).
    obs::TraceContext trace;
  };

  std::string SnapshotPath(const std::string& name) const;
  /// The shared body of OpenCatalog and OpenSpec.
  Result<TenantHandle> Open(const std::string& name, Spec spec,
                            std::vector<std::vector<CFD>> sigmas,
                            std::string spec_text,
                            std::optional<std::string_view> snapshot);
  /// The single definition of the per-tenant budget split (every site —
  /// engine construction, rebalance, the newcomer's recorded budget —
  /// must agree or cache_budget() drifts from real capacity).
  size_t ShareFor(size_t num_tenants) const {
    return std::max<size_t>(
        1, options_.global_cache_budget / std::max<size_t>(1, num_tenants));
  }
  /// The spill primitive behind the policy thread, DropCatalog,
  /// SpillTenant and shutdown. `from_policy` attributes the spill in
  /// the stats; the tenant is skipped (its last spill count returned)
  /// when it has fewer than `min_dirty` cache changes since its last
  /// spill — the policy thread passes its threshold, the drop/shutdown
  /// flushes pass 1, and SpillTenant passes 0 (unconditional).
  Result<uint64_t> Spill(Tenant& tenant, bool from_policy,
                         uint64_t min_dirty);
  /// Applies share = global_budget / num_tenants to every registered
  /// tenant; `num_tenants` may be the prospective count (an open
  /// shrinks existing tenants *before* the new engine fills, so the
  /// global budget holds even mid-open). Caller holds registry_mu_
  /// (shared or exclusive is fine: budgets are atomics and resize is
  /// thread-safe).
  void RebalanceBudgets(size_t num_tenants);
  /// Resolves job.tenant from `tenant`, assigns the sequence and queues
  /// the (fully populated) job.
  Status Enqueue(const std::string& tenant, Job job);
  /// Admission decision + queue insertion; caller holds queue_mu_.
  Status EnqueueLocked(Job job);
  /// The admission SubmitBatches and ServeBatches share: every batch's
  /// decision under one queue_mu_ hold. Wakes no runner.
  std::vector<Result<std::future<BatchReply>>> AdmitBatches(
      const TenantHandle& tenant,
      std::vector<std::vector<Engine::Request>> batches,
      const obs::TraceContext& trace);
  /// The next job to run, round-robin across tenant queues starting
  /// after rr_cursor_, skipping tenants at their running cap; nothing
  /// is eligible while dispatcher_threads jobs already run. Pops it
  /// (updating the gauges, running_total_ and the cursor) or returns
  /// false. Caller holds queue_mu_.
  bool PopEligibleLocked(Job* job);
  /// Runs one popped job on the calling thread: stage stamps and
  /// spans, the engine call, the reply, then the running slot's release
  /// and a notify_all. Dispatchers and ServeBatches callers share it.
  void RunJob(Job job);
  void DispatcherLoop();
  void PolicyLoop();
  /// Resolves the tenant's five stage histograms out of the registry.
  void BindStageTimers(Tenant& tenant);
  /// The render-time collector: one Stats() snapshot expanded into the
  /// full cfdprop_* family set (counters, gauges, engine latency
  /// histograms). Registered at construction.
  std::vector<obs::MetricFamilySamples> CollectFamilies() const;

  ServiceOptions options_;
  /// Declared right after options_ so the ctor can read the enabled
  /// flag (options_.engine.metrics); outlives every service thread.
  obs::MetricsRegistry metrics_;
  size_t metrics_collector_id_ = 0;

  mutable std::shared_mutex registry_mu_;
  std::map<std::string, TenantHandle> tenants_;
  /// Serializes opens and drops against each other so the slow parts
  /// (engine construction, Σ minimization, snapshot I/O) never run
  /// under registry_mu_, and so a same-text reopen racing a drop sees
  /// the tenant either whole or gone.
  std::mutex open_mu_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  /// One FIFO per tenant name; runners drain them round-robin (see
  /// PopEligibleLocked) so a flooding tenant cannot starve the others.
  /// Jobs hold their TenantHandle, so a drop + same-name reopen sharing
  /// one queue entry is benign. Guarded by queue_mu_.
  std::map<std::string, std::deque<Job>> queues_;
  size_t total_queued_ = 0;           // guarded by queue_mu_
  /// Jobs popped and not yet released, on dispatchers and serving
  /// callers alike; held below options_.dispatcher_threads. Guarded by
  /// queue_mu_.
  size_t running_total_ = 0;
  std::string rr_cursor_;             // last tenant served; guarded by queue_mu_
  std::vector<std::thread> dispatchers_;
  bool stopping_ = false;  // guarded by queue_mu_

  std::mutex policy_mu_;
  std::condition_variable policy_cv_;
  std::thread policy_thread_;
  bool policy_stop_ = false;  // guarded by policy_mu_

  std::atomic<uint64_t> batches_submitted_{0};
  std::atomic<uint64_t> batches_completed_{0};
  std::atomic<uint64_t> batches_rejected_{0};
};

}  // namespace cfdprop

#endif  // CFDPROP_SERVICE_CATALOG_SERVICE_H_
