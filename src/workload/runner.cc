#include "src/workload/runner.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/cfd/cfd.h"
#include "src/engine/snapshot.h"
#include "src/net/cover_backend.h"
#include "src/net/cover_router.h"
#include "src/net/cover_server.h"
#include "src/obs/exporter.h"
#include "src/service/catalog_service.h"

namespace cfdprop {
namespace workload {

namespace {

using gen::WorkloadOp;
using gen::WorkloadPlan;

/// Shards behind the router on the routed path.
constexpr size_t kRouterShards = 3;

/// Counters shared by every worker; folded into the report at the end.
struct Totals {
  explicit Totals(size_t tenants) : reopen_seq(tenants) {}

  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> covers{0};
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> unavailable{0};
  std::atomic<uint64_t> churn_ops{0};
  std::atomic<uint64_t> reopens{0};
  std::atomic<uint64_t> restored{0};
  /// Wrapping sum of served cover fingerprints — commutative, so the
  /// aggregate is independent of thread interleaving.
  std::atomic<uint64_t> cover_fp{0};
  /// Per-tenant reopen sequence: bumped when a reopen's drop starts and
  /// again when its open ends, so it is odd while the tenant is
  /// mid-reopen. Each tenant has at most one reopening client.
  std::vector<std::atomic<uint64_t>> reopen_seq;
};

/// Everything the chosen path stands up. One service/server on inproc
/// and tcp; kRouterShards of each plus the router on routed. Members
/// are declared in dependency order (services before the servers that
/// wrap them, router last) so teardown reverses it safely.
struct PathRuntime {
  std::vector<std::unique_ptr<CatalogService>> services;
  std::vector<std::unique_ptr<net::CoverServer>> servers;
  std::unique_ptr<net::InProcBackend> inproc;
  std::unique_ptr<net::CoverRouter> router;
  /// tcp only: the runner's own connection for the end-of-run scrape
  /// (every worker holds another).
  std::unique_ptr<net::RemoteBackend> remote;
  /// The path's backend for whole-run reads: inproc, router or remote.
  net::CoverBackend* backend = nullptr;

  /// The shard owning `tenant`: the router's placement on routed, 0
  /// everywhere else.
  size_t ShardFor(const std::string& tenant) const {
    return router ? router->ShardFor(tenant) : 0;
  }
  CatalogService& ServiceFor(const std::string& tenant) {
    return *services[ShardFor(tenant)];
  }
  net::CoverServer& ServerFor(const std::string& tenant) {
    return *servers[ShardFor(tenant)];
  }
};

/// Spins until `tenant` has no queued or running batches. Admission
/// releases a slot only after the reply is delivered, so a worker that
/// just drained its futures can still observe the decrement a beat
/// late — burst determinism needs in-service == 0 at the admission
/// decision, hence this barrier before every burst-reject burst.
void WaitTenantDrained(CatalogService& service, const std::string& tenant) {
  for (int spin = 0; spin < 200000; ++spin) {
    const ServiceStatsSnapshot stats = service.Stats();
    for (const TenantStatsSnapshot& t : stats.tenants) {
      if (t.name != tenant) continue;
      if (t.queued + t.running == 0) return;
      break;
    }
    if (spin >= 199999) return;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

class Worker {
 public:
  Worker(const WorkloadPlan& plan, const RunnerOptions& options,
         PathRuntime& rt, Totals& totals)
      : plan_(plan),
        options_(options),
        rt_(rt),
        totals_(totals),
        // Pool-independent (wildcards only), so one instance serves
        // every tenant regardless of reopens: R0(A0 A1 -> A2).
        churn_cfd_(CFD::FD(0, {0, 1}, 2).value()) {}

  /// Runs one client script. Serving errors are counted; only transport
  /// setup (connect) is fatal.
  Status Run(size_t client) {
    // The path injection: which CoverBackend this worker talks to. The
    // shared backends (inproc, router) are thread-safe; the tcp path
    // gives every worker its own single-conversation RemoteBackend.
    switch (options_.path) {
      case RunnerPath::kInproc:
        backend_ = rt_.inproc.get();
        break;
      case RunnerPath::kRouted:
        backend_ = rt_.router.get();
        break;
      case RunnerPath::kTcp: {
        net::CoverClientOptions copts;
        copts.port = rt_.servers[0]->port();
        copts.connect_timeout = std::chrono::milliseconds(10000);
        remote_ = std::make_unique<net::RemoteBackend>(copts);
        CFDPROP_RETURN_NOT_OK(remote_->Connect());
        backend_ = remote_.get();
        break;
      }
    }
    for (const WorkloadOp& op : plan_.scripts[client]) {
      const std::string tenant = plan_.TenantName(op.tenant);
      switch (op.type) {
        case WorkloadOp::Type::kBatch:
          RunBatches(op.tenant, tenant, op.batches, nullptr);
          break;
        case WorkloadOp::Type::kBurst: {
          // Drain before deciding: the pattern is then a function of the
          // caps alone. This is a guarantee only for burst-reject, whose
          // pinned scripts mean nobody else touches this tenant; mixed
          // bursts race with other clients' batches by design, so their
          // pattern is reported but not asserted anywhere.
          WaitTenantDrained(rt_.ServiceFor(tenant), tenant);
          RunBatches(op.tenant, tenant, op.batches, &pattern_);
          break;
        }
        case WorkloadOp::Type::kChurnAdd:
        case WorkloadOp::Type::kChurnDrop:
          RunChurn(tenant, op.type == WorkloadOp::Type::kChurnAdd);
          break;
        case WorkloadOp::Type::kSpill: {
          auto spilled = rt_.ServiceFor(tenant).SpillTenant(tenant);
          if (!spilled.ok()) {
            totals_.errors.fetch_add(1, std::memory_order_relaxed);
          }
          break;
        }
        case WorkloadOp::Type::kReopen:
          RunReopen(tenant, op.tenant);
          break;
      }
    }
    return Status::OK();
  }

  const std::string& pattern() const { return pattern_; }

 private:
  /// Submits every batch in one admission decision (a single batch is
  /// just a burst of one) and waits for all replies. With `pattern` set,
  /// appends one 'A'/'R'/'E' per batch. One code path for every
  /// backend — the decode pool only matters on the wire paths.
  void RunBatches(size_t tenant_index, const std::string& tenant,
                  const std::vector<std::vector<std::string>>& batches,
                  std::string* pattern) {
    size_t n = 0;
    for (const auto& b : batches) n += b.size();
    totals_.requests.fetch_add(n, std::memory_order_relaxed);
    totals_.batches.fetch_add(batches.size(), std::memory_order_relaxed);
    std::atomic<uint64_t>& reopen_seq = totals_.reopen_seq[tenant_index];
    const uint64_t seq_before = reopen_seq.load();
    auto replies = backend_->SubmitBatches(tenant, batches, scratch_.pool());
    // Whether a reopen of this tenant overlapped the submit: its
    // sequence was odd before, or moved since.
    const bool reopening =
        seq_before % 2 == 1 || reopen_seq.load() != seq_before;
    if (!replies.ok()) {
      // The whole call failed: every slot fails with its status.
      CountFailed(replies.status(), reopening, batches.size());
      if (pattern) pattern->append(batches.size(), 'E');
    } else {
      // The content hash needs the pool the covers' constants are
      // interned in: the wire paths decoded into this worker's scratch
      // pool, while inproc results live in the tenant's own pool — pin
      // the tenant so that pool outlives the hashing. (A reopen racing
      // us can make the pin miss; those churny scenarios are never
      // fingerprint-compared, so skipping the fold there is fine.)
      const ValuePool* pool = &scratch_.pool();
      TenantHandle pin;
      if (options_.path == RunnerPath::kInproc) {
        auto handle = rt_.ServiceFor(tenant).ResolveCatalog(tenant);
        if (handle.ok()) {
          pin = std::move(handle).value();
          pool = &pin->engine().catalog().pool();
        } else {
          pool = nullptr;
        }
      }
      for (const BatchResult& batch : *replies) {
        CountResult(batch.status, reopening, pattern);
        if (!batch.status.ok()) continue;
        for (const Result<EngineResult>& r : batch.results) {
          if (r.ok()) {
            totals_.covers.fetch_add(1, std::memory_order_relaxed);
            if (pool != nullptr && r->cover != nullptr) {
              totals_.cover_fp.fetch_add(
                  FingerprintSigmaSet(*pool, r->cover->cover),
                  std::memory_order_relaxed);
            }
          } else {
            totals_.errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    }
  }

  void CountResult(const Status& status, bool reopening,
                   std::string* pattern) {
    char letter = 'A';
    if (!status.ok()) {
      letter = status.code() == StatusCode::kResourceExhausted ? 'R' : 'E';
      if (letter == 'E') CountFailed(status, reopening, 1);
    }
    if (pattern) pattern->push_back(letter);
  }

  /// Counts `slots` failed batch slots. A NotFound while the tenant was
  /// mid-reopen is the drop window's typed outcome, unavailable, whether
  /// the whole call carries it or one batch does (the backend and then
  /// the service each resolve the tenant, and the drop can land between
  /// them). Any other failure, a NotFound outside a reopen included, is
  /// an error.
  void CountFailed(const Status& status, bool reopening, size_t slots) {
    std::atomic<uint64_t>& counter =
        status.code() == StatusCode::kNotFound && reopening
            ? totals_.unavailable
            : totals_.errors;
    counter.fetch_add(slots, std::memory_order_relaxed);
  }

  void RunChurn(const std::string& tenant, bool add) {
    auto handle = rt_.ServiceFor(tenant).ResolveCatalog(tenant);
    if (!handle.ok()) {
      totals_.errors.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Status mutated = add
                         ? (*handle)->engine().AddCfd(0, churn_cfd_)
                         : (*handle)->engine().RetractCfd(0, churn_cfd_);
    if (mutated.ok()) {
      totals_.churn_ops.fetch_add(1, std::memory_order_relaxed);
    } else {
      totals_.errors.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Drop + re-open from a regenerated (byte-identical) spec. With a
  /// snapshot_dir configured the drop flushes and the open warm-starts,
  /// so the reopened tenant serves its old covers as hits. The drop
  /// travels through the path under test; the re-open is in-process on
  /// the owning shard's server — generated specs have no text form for
  /// the wire to carry. The tenant's reopen sequence is odd from the
  /// drop's start to the open's end.
  void RunReopen(const std::string& tenant, size_t tenant_index) {
    Spec spec = gen::BuildTenantSpec(plan_, tenant_index);
    std::atomic<uint64_t>& reopen_seq = totals_.reopen_seq[tenant_index];
    reopen_seq.fetch_add(1);
    Status dropped = backend_->DropCatalog(tenant);
    if (!dropped.ok()) {
      totals_.errors.fetch_add(1, std::memory_order_relaxed);
    }
    auto opened =
        options_.path == RunnerPath::kInproc
            ? rt_.inproc->OpenParsedSpec(tenant, std::move(spec))
            : rt_.ServerFor(tenant).OpenParsedSpec(tenant, std::move(spec));
    reopen_seq.fetch_add(1);
    if (!opened.ok()) {
      totals_.errors.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    totals_.reopens.fetch_add(1, std::memory_order_relaxed);
    totals_.restored.fetch_add(opened->restored, std::memory_order_relaxed);
  }

  const WorkloadPlan& plan_;
  const RunnerOptions& options_;
  PathRuntime& rt_;
  Totals& totals_;
  CFD churn_cfd_;
  net::CoverBackend* backend_ = nullptr;
  std::unique_ptr<net::RemoteBackend> remote_;  // tcp path only
  Catalog scratch_;  // wire decode pool
  std::string pattern_;
};

}  // namespace

const char* RunnerPathName(RunnerPath path) {
  switch (path) {
    case RunnerPath::kInproc:
      return "inproc";
    case RunnerPath::kTcp:
      return "tcp";
    case RunnerPath::kRouted:
      return "routed";
  }
  return "unknown";
}

std::string WorkloadReport::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "%s [%s]: %llu covers over %llu batches "
      "admitted=%llu rejected=%llu errors=%llu unavailable=%llu",
      workload.c_str(), path.c_str(),
      static_cast<unsigned long long>(covers_served),
      static_cast<unsigned long long>(batches),
      static_cast<unsigned long long>(admitted),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(unavailable));
  std::string out = buf;
  if (migrations > 0) {
    std::snprintf(buf, sizeof(buf), " migrations=%llu (restored=%llu)",
                  static_cast<unsigned long long>(migrations),
                  static_cast<unsigned long long>(migrated_lines));
    out += buf;
  }
  return out;
}

Result<WorkloadReport> RunWorkload(const gen::WorkloadPlan& plan,
                                   const RunnerOptions& options) {
  if (plan.needs_snapshots && options.snapshot_dir.empty()) {
    return Status::InvalidArgument(
        std::string(gen::WorkloadKindName(plan.options.kind)) +
        " spills snapshots; the runner needs a snapshot_dir");
  }

  const size_t shards =
      options.path == RunnerPath::kRouted ? kRouterShards : 1;

  PathRuntime rt;
  for (size_t s = 0; s < shards; ++s) {
    ServiceOptions sopts;
    sopts.dispatcher_threads = std::max<size_t>(2, plan.options.tenants);
    sopts.admission.max_inflight_batches = plan.max_inflight;
    sopts.admission.max_queued_batches = plan.max_queue;
    sopts.global_cache_budget =
        std::max<size_t>(4096, 1024 * plan.options.tenants);
    sopts.engine.num_threads = 1;
    sopts.snapshot_dir = options.snapshot_dir;
    if (shards > 1 && !options.snapshot_dir.empty()) {
      // Per-shard spill directories: after a migration both the source
      // (pre-drop flush) and the target would otherwise fight over one
      // <tenant>.ccsnap file.
      const std::string dir =
          options.snapshot_dir + "/shard" + std::to_string(s);
      ::mkdir(dir.c_str(), 0755);  // may already exist
      sopts.snapshot_dir = dir;
    }
    rt.services.push_back(std::make_unique<CatalogService>(sopts));
  }

  if (options.path != RunnerPath::kInproc) {
    for (auto& service : rt.services) {
      auto server = std::make_unique<net::CoverServer>(*service);
      CFDPROP_RETURN_NOT_OK(server->Start());
      rt.servers.push_back(std::move(server));
    }
  }
  if (options.path == RunnerPath::kInproc) {
    rt.inproc = std::make_unique<net::InProcBackend>(*rt.services[0]);
    rt.backend = rt.inproc.get();
  }
  if (options.path == RunnerPath::kTcp) {
    net::CoverClientOptions copts;
    copts.port = rt.servers[0]->port();
    copts.connect_timeout = std::chrono::milliseconds(10000);
    rt.remote = std::make_unique<net::RemoteBackend>(copts);
    rt.backend = rt.remote.get();
  }
  if (options.path == RunnerPath::kRouted) {
    net::CoverRouterOptions ropts;
    for (auto& server : rt.servers) {
      net::CoverClientOptions copts;
      copts.port = server->port();
      copts.connect_timeout = std::chrono::milliseconds(10000);
      ropts.shards.push_back(copts);
    }
    rt.router = std::make_unique<net::CoverRouter>(std::move(ropts));
    rt.backend = rt.router.get();
  }

  // Open every tenant on its owning shard (the ring decides on routed;
  // shard 0 otherwise). In process on every path: the specs are
  // generated, so there is no text to ship over the wire.
  for (size_t t = 0; t < plan.options.tenants; ++t) {
    const std::string name = plan.TenantName(t);
    Spec spec = gen::BuildTenantSpec(plan, t);
    auto opened =
        options.path == RunnerPath::kInproc
            ? rt.inproc->OpenParsedSpec(name, std::move(spec))
            : rt.ServerFor(name).OpenParsedSpec(name, std::move(spec));
    CFDPROP_RETURN_NOT_OK(opened.status());
  }

  Totals totals(plan.options.tenants);
  const size_t clients = plan.scripts.size();
  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    workers.push_back(std::make_unique<Worker>(plan, options, rt, totals));
  }

  std::vector<Status> worker_status(clients);
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back(
          [&, c] { worker_status[c] = workers[c]->Run(c); });
    }
    for (auto& t : threads) t.join();
  }
  for (const Status& s : worker_status) CFDPROP_RETURN_NOT_OK(s);

  WorkloadReport report;
  report.workload = gen::WorkloadKindName(plan.options.kind);
  report.path = RunnerPathName(options.path);
  report.seed = plan.options.seed;
  report.stream_fingerprint = gen::FingerprintScripts(plan);
  report.requests = totals.requests.load();
  report.covers_served = totals.covers.load();
  report.batches = totals.batches.load();
  report.errors = totals.errors.load();
  report.unavailable = totals.unavailable.load();
  report.churn_ops = totals.churn_ops.load();
  report.reopens = totals.reopens.load();
  report.restored_lines = totals.restored.load();
  report.cover_fingerprint = totals.cover_fp.load();
  for (const auto& w : workers) report.admit_pattern += w->pattern();

  // Admission totals through the path under test: one METRICS scrape
  // of its backend (merged across shards on routed), summed over every
  // tenant and shard label — so the determinism suite compares what a
  // real remote client would see.
  {
    CFDPROP_ASSIGN_OR_RETURN(std::string text, rt.backend->Metrics());
    CFDPROP_ASSIGN_OR_RETURN(obs::ParsedMetrics scrape,
                             obs::ParseMetricsText(text));
    report.admitted =
        static_cast<uint64_t>(scrape.Sum("cfdprop_admitted_total"));
    report.rejected =
        static_cast<uint64_t>(scrape.Sum("cfdprop_admission_rejected_total"));
  }

  // Routed epilogue, after every counter above is read (a migration
  // drops the source copy, which would erase its admission history):
  // live-migrate every tenant one shard clockwise through the router's
  // machinery — drain + snapshot fetch over the wire, in-process
  // warm-start on the target (generated specs have no text), route
  // flip, source drop — and count the lines that crossed warm.
  if (options.path == RunnerPath::kRouted) {
    for (size_t t = 0; t < plan.options.tenants; ++t) {
      const std::string name = plan.TenantName(t);
      const size_t src = rt.router->ShardFor(name);
      const size_t dst = (src + 1) % shards;
      if (!rt.router->BeginMigration(name).ok()) continue;
      auto snapshot = rt.router->FetchSnapshotFrom(src, name);
      if (!snapshot.ok()) {
        rt.router->AbortMigration(name);
        continue;
      }
      Spec spec = gen::BuildTenantSpec(plan, t);
      auto opened = rt.servers[dst]->OpenParsedSpecFromSnapshot(
          name, std::move(spec), *snapshot);
      if (!opened.ok()) {
        rt.router->AbortMigration(name);
        continue;
      }
      CFDPROP_RETURN_NOT_OK(rt.router->CompleteMigration(name, dst));
      (void)rt.router->DropCatalogOn(src, name);  // route is flipped
      report.migrations++;
      report.migrated_lines += opened->restored;
    }
  }

  for (auto& server : rt.servers) server->Stop();
  return report;
}

}  // namespace workload
}  // namespace cfdprop
