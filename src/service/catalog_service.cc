#include "src/service/catalog_service.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <utility>

namespace cfdprop {

namespace {

double MicrosBetween(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Reads a whole snapshot file; NotFound when there is none.
Result<std::string> ReadSnapshotFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::NotFound("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
  if (!f.eof() && !f) {
    return Status::InvalidArgument("cover snapshot rejected: read error on " +
                                   path);
  }
  return bytes;
}

/// Publishes `bytes` at `path` atomically: write a *writer-unique*
/// sibling temp file, fsync it, then rename over the target — a reader
/// never observes a half-written snapshot, a crash can't publish
/// unsynced bytes (the rename is ordered after the data reaches disk),
/// and concurrent writers to one path (a policy spill racing a
/// DropCatalog flush, or two services sharing a directory) each own
/// their temp file instead of clobbering or remove()-ing each other's
/// in-flight write. Last rename wins, and every published file is a
/// complete, checksummed snapshot.
Status WriteSnapshotFile(const std::string& path, std::string_view bytes) {
  static std::atomic<uint64_t> write_seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(write_seq.fetch_add(1));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return Status::InvalidArgument("cannot open " + tmp);
  auto fail = [&](const std::string& what) {
    ::close(fd);
    std::remove(tmp.c_str());
    return Status::InvalidArgument(what + tmp);
  };
  for (size_t written = 0; written < bytes.size();) {
    const ssize_t w =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (w < 0 && errno != EINTR) return fail("short write to ");
    if (w > 0) written += static_cast<size_t>(w);
  }
  if (::fsync(fd) != 0) return fail("fsync failed on ");
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::InvalidArgument("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

/// Tenant names become snapshot file names, so the alphabet is locked
/// down: [A-Za-z0-9_.-], first character alphanumeric or '_'. This
/// rules out path separators, ".." prefixes and empty names without any
/// escaping scheme to maintain.
Status ValidateTenantName(const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("tenant name must not be empty");
  }
  // Names become "<name>.ccsnap.tmp" files: far below NAME_MAX (255),
  // or every spill would fail with ENAMETOOLONG — and since a failed
  // flush fails DropCatalog, an unspillable tenant could never close.
  constexpr size_t kMaxTenantNameLen = 100;
  if (name.size() > kMaxTenantNameLen) {
    return Status::InvalidArgument("tenant name longer than 100 characters");
  }
  char first = name.front();
  if (!std::isalnum(static_cast<unsigned char>(first)) && first != '_') {
    return Status::InvalidArgument(
        "tenant name must start with a letter, digit or '_': '" + name + "'");
  }
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return Status::InvalidArgument(
          "tenant name may only contain [A-Za-z0-9_.-]: '" + name + "'");
    }
  }
  return Status::OK();
}

/// Case-folded name for duplicate detection: tenant names become
/// snapshot file names, and on a case-insensitive filesystem
/// (macOS/Windows) "EU" and "eu" would silently share one .ccsnap file,
/// each spill overwriting the other's. The registry itself stays
/// case-preserving.
std::string FoldTenantName(const std::string& name) {
  std::string folded = name;
  for (char& c : folded) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return folded;
}

/// Monotone count of cache content changes: anything that adds or
/// removes a line. The delta against a tenant's spill_marker is its
/// dirtiness (restored lines count via `insertions`).
uint64_t CacheChangeCounter(const CacheStats& c) {
  return c.insertions + c.evictions + c.invalidations;
}

}  // namespace

CatalogService::CatalogService(ServiceOptions options)
    : options_(std::move(options)), metrics_(options_.engine.metrics) {
  // Same guard as the engine's worker pool: a dispatcher count past any
  // plausible hardware just burns thread stacks.
  constexpr size_t kMaxDispatchers = 256;
  options_.dispatcher_threads =
      std::clamp<size_t>(options_.dispatcher_threads, 1, kMaxDispatchers);
  // Threshold 0 would re-spill every clean tenant each interval (0
  // dirty lines >= 0); the meaningful minimum is "any change at all".
  options_.policy.dirty_line_threshold =
      std::max<uint64_t>(1, options_.policy.dirty_line_threshold);
  dispatchers_.reserve(options_.dispatcher_threads);
  for (size_t i = 0; i < options_.dispatcher_threads; ++i) {
    dispatchers_.emplace_back([this] { DispatcherLoop(); });
  }
  if (!options_.snapshot_dir.empty() &&
      options_.policy.interval.count() > 0) {
    policy_thread_ = std::thread([this] { PolicyLoop(); });
  }
  metrics_collector_id_ =
      metrics_.AddCollector([this] { return CollectFamilies(); });
}

CatalogService::~CatalogService() {
  // Unhook the collector before anything starts dying: a render racing
  // shutdown must not walk a half-destroyed service. (Renders come from
  // CoverServer frames or the embedding — both are contractually done
  // before the service destructs; this is belt and braces.)
  metrics_.RemoveCollector(metrics_collector_id_);
  // Stop serving first (dispatchers drain the queue before exiting, so
  // every submitted future still resolves), then the policy thread, and
  // only then take the final flush — its snapshots see the last batch's
  // insertions.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : dispatchers_) t.join();
  if (policy_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(policy_mu_);
      policy_stop_ = true;
    }
    policy_cv_.notify_all();
    policy_thread_.join();
  }
  if (!options_.snapshot_dir.empty()) {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    for (auto& [name, tenant] : tenants_) {
      // Any dirtiness flushes — the policy threshold only gates the
      // background thread, never whether a computed cover survives. A
      // destructor cannot return the error, so at least say what was
      // lost.
      auto spilled = Spill(*tenant, /*from_policy=*/false, /*min_dirty=*/1);
      if (!spilled.ok()) {
        std::fprintf(stderr,
                     "cfdprop: shutdown flush of tenant '%s' failed: %s\n",
                     name.c_str(), spilled.status().ToString().c_str());
      }
    }
  }
}

std::string CatalogService::SnapshotPath(const std::string& name) const {
  return options_.snapshot_dir + "/" + name + ".ccsnap";
}

void CatalogService::RebalanceBudgets(size_t num_tenants) {
  if (num_tenants == 0) return;
  const size_t share = ShareFor(num_tenants);
  for (auto& [name, tenant] : tenants_) {
    tenant->engine_->SetCacheBudget(share);
    // Record what the cache actually honors (shares round down to shard
    // multiples), so budget= in stats never overstates real capacity.
    tenant->cache_budget_.store(tenant->engine_->cache_capacity(),
                                std::memory_order_relaxed);
  }
}

Result<TenantHandle> CatalogService::OpenCatalog(
    const std::string& name, Catalog catalog,
    std::vector<std::vector<CFD>> sigmas) {
  Spec spec;
  spec.catalog = std::move(catalog);
  return Open(name, std::move(spec), std::move(sigmas), {}, std::nullopt);
}

Result<TenantHandle> CatalogService::OpenSpec(
    const std::string& name, Spec spec, std::string spec_text,
    std::optional<std::string_view> snapshot) {
  // Σ 0 is the spec's source CFDs — the id every view-name request
  // serves against. Copied before the catalog moves: Value ids are
  // indices into the pool, stable across the move.
  std::vector<std::vector<CFD>> sigmas = {spec.source_cfds};
  return Open(name, std::move(spec), std::move(sigmas), std::move(spec_text),
              snapshot);
}

Result<TenantHandle> CatalogService::Open(
    const std::string& name, Spec spec, std::vector<std::vector<CFD>> sigmas,
    std::string spec_text, std::optional<std::string_view> snapshot) {
  CFDPROP_RETURN_NOT_OK(ValidateTenantName(name));
  // open_mu_ serializes the slow path (engine build, Σ minimization,
  // snapshot I/O) outside registry_mu_, and makes the duplicate check
  // race-free against a concurrent open or drop of the same name.
  std::lock_guard<std::mutex> open_lock(open_mu_);
  size_t tenants_after;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    if (auto it = tenants_.find(name); it != tenants_.end()) {
      // Matching is byte-exact: a different spec on a live tenant is a
      // real conflict.
      if (!spec_text.empty() && it->second->spec_text_ == spec_text) {
        return it->second;
      }
      return Status::InvalidArgument(
          "tenant '" + name + "' is already open" +
          (spec_text.empty() ? "" : " with a different spec"));
    }
    const std::string folded = FoldTenantName(name);
    for (const auto& [existing, tenant] : tenants_) {
      if (FoldTenantName(existing) == folded) {
        return Status::InvalidArgument(
            "tenant '" + name + "' collides with open tenant '" + existing +
            "' (names are case-folded: snapshot files must stay distinct "
            "on case-insensitive filesystems)");
      }
    }
    tenants_after = tenants_.size() + 1;
  }

  EngineOptions engine_options = options_.engine;
  engine_options.cache_capacity = ShareFor(tenants_after);
  auto engine = std::make_unique<Engine>(std::move(spec.catalog),
                                         std::move(engine_options));
  for (auto& sigma : sigmas) {
    auto id = engine->RegisterSigma(std::move(sigma));
    if (!id.ok()) return id.status();
  }

  // The open is now certain to succeed (warm-start failures are
  // non-fatal), so shrink the existing tenants to the post-open share
  // BEFORE the snapshot load fills the new cache: the fresh engine
  // holds zero entries, so total live capacity never exceeds the
  // global budget — and a failed open above never evicted anything.
  {
    std::unique_lock<std::shared_mutex> lock(registry_mu_);
    RebalanceBudgets(tenants_after);
  }

  TenantHandle tenant(new Tenant(name, std::move(engine), std::move(spec),
                                 std::move(spec_text)));
  BindStageTimers(*tenant);
  // Warm start, before the tenant is published, so the pool-interning
  // load never races serving. A migration's shipped bytes win over any
  // stale local file. Any failure — no file yet, version bump, changed
  // Σ, corruption — just means a cold cache: a rejected snapshot
  // restores nothing.
  const bool from_file = !snapshot && !options_.snapshot_dir.empty();
  std::string file;
  if (from_file) {
    auto read = ReadSnapshotFile(SnapshotPath(name));
    if (read.ok()) {
      file = std::move(read).value();
      snapshot = file;
    } else if (read.status().code() != StatusCode::kNotFound) {
      tenant->snapshot_rejection_ = read.status();
    }
  }
  if (snapshot) {
    tenant->snapshot_rejection_ =
        tenant->engine_->LoadSnapshotBytes(*snapshot).status();
  }
  if (from_file) {
    // A cache restored from the file is not dirty: its content IS the
    // file. Migration bytes are not this service's file, so their
    // restored lines stay dirty and the next spill persists them.
    tenant->spill_marker.store(
        CacheChangeCounter(tenant->engine_->Stats().cache),
        std::memory_order_relaxed);
  }

  std::unique_lock<std::shared_mutex> lock(registry_mu_);
  tenants_.emplace(name, tenant);
  // The existing tenants were already resized to this share before the
  // build; only the newcomer's budget field needs recording (its engine
  // was constructed at exactly the share).
  tenant->cache_budget_.store(tenant->engine_->cache_capacity(),
                              std::memory_order_relaxed);
  return tenant;
}

Status CatalogService::DropCatalog(const std::string& name) {
  std::lock_guard<std::mutex> open_lock(open_mu_);
  TenantHandle tenant;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    auto it = tenants_.find(name);
    if (it == tenants_.end()) {
      return Status::NotFound("unknown tenant '" + name + "'");
    }
    tenant = it->second;
  }
  if (!options_.snapshot_dir.empty()) {
    // Final flush (any dirtiness, regardless of the policy threshold)
    // so a reopen warm-starts from everything this tenant computed —
    // BEFORE the registry erase, so a failed spill fails the drop and
    // the tenant stays open for a retry instead of losing its covers.
    // Batches still in flight hold the handle and complete, but lines
    // they insert after this point are not re-spilled.
    auto spilled = Spill(*tenant, /*from_policy=*/false, /*min_dirty=*/1);
    if (!spilled.ok()) return spilled.status();
  }
  {
    // Under spill_mu so it cannot interleave with an in-flight policy
    // spill: from here on, late batch insertions on this (now stale)
    // handle must never rewrite the snapshot file — a same-name tenant
    // may re-open and own it.
    std::lock_guard<std::mutex> spill_lock(tenant->spill_mu);
    tenant->dropped.store(true, std::memory_order_relaxed);
  }
  // The survivors are about to be raised to global/(N-1), so release
  // this tenant's share: shrink its capacity to the floor (bounding
  // what in-flight batches can re-insert) and drop the just-spilled
  // entries. Handed-out covers and the handle's engine stay valid.
  tenant->engine_->SetCacheBudget(0);
  tenant->engine_->ClearCache();
  std::unique_lock<std::shared_mutex> lock(registry_mu_);
  tenants_.erase(name);
  RebalanceBudgets(tenants_.size());
  return Status::OK();
}

Result<TenantHandle> CatalogService::ResolveCatalog(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    return Status::NotFound("unknown tenant '" + name + "'");
  }
  return it->second;
}

size_t CatalogService::num_tenants() const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  return tenants_.size();
}

std::vector<std::string> CatalogService::TenantNames() const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) names.push_back(name);
  return names;  // std::map iterates sorted
}

Status CatalogService::EnqueueLocked(Job job) {
  if (stopping_) {
    return Status::Unsupported("service is shutting down");
  }
  Tenant& tenant = *job.tenant;
  const AdmissionOptions& adm = options_.admission;
  if (adm.max_inflight_batches > 0) {
    // In-service count = running + queued; both gauges only move under
    // queue_mu_, so this comparison — and therefore the admit/reject
    // pattern of a SubmitBatches burst — is deterministic.
    const uint64_t in_service =
        tenant.admission_running.load(std::memory_order_relaxed) +
        tenant.admission_queued.load(std::memory_order_relaxed);
    if (in_service >= adm.max_inflight_batches + adm.max_queued_batches) {
      tenant.admission_rejected.fetch_add(1, std::memory_order_relaxed);
      batches_rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "admission: tenant '" + tenant.name() + "' is over its in-flight "
          "cap (" + std::to_string(adm.max_inflight_batches) + " running + " +
          std::to_string(adm.max_queued_batches) + " queued)");
    }
  }
  // Counters and the per-tenant sequence move only once the batch is
  // definitely accepted (and under queue_mu_, so a rejected submit
  // can never skew them or leave a sequence gap).
  job.sequence =
      tenant.admission_admitted.fetch_add(1, std::memory_order_relaxed);
  tenant.admission_queued.fetch_add(1, std::memory_order_relaxed);
  // Lifecycle stamp: queue-wait is measured from here, and the submit
  // entry -> admitted span is the "admission" stage.
  job.admitted_at = std::chrono::steady_clock::now();
  if (tenant.stages_.admission) {
    tenant.stages_.admission->Record(
        MicrosBetween(job.submit_start, job.admitted_at));
  }
  if (job.trace.sampled) {
    if (obs::Tracer* tracer = obs::ProcessTracer()) {
      tracer->Record(job.trace, tracer->NewSpanId(), job.trace.parent_span_id,
                     "admission", obs::Tracer::ToUs(job.submit_start),
                     static_cast<uint64_t>(
                         MicrosBetween(job.submit_start, job.admitted_at)),
                     tenant.name());
    }
  }
  queues_[tenant.name()].push_back(std::move(job));
  ++total_queued_;
  batches_submitted_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status CatalogService::Enqueue(const std::string& tenant_name, Job job) {
  job.submit_start = std::chrono::steady_clock::now();
  CFDPROP_ASSIGN_OR_RETURN(job.tenant, ResolveCatalog(tenant_name));
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    CFDPROP_RETURN_NOT_OK(EnqueueLocked(std::move(job)));
  }
  queue_cv_.notify_one();
  return Status::OK();
}

Result<std::future<BatchReply>> CatalogService::SubmitBatch(
    const std::string& tenant, std::vector<Engine::Request> requests) {
  Job job;
  job.requests = std::move(requests);
  std::future<BatchReply> future = job.promise.get_future();
  CFDPROP_RETURN_NOT_OK(Enqueue(tenant, std::move(job)));
  return future;
}

std::vector<Result<std::future<BatchReply>>> CatalogService::AdmitBatches(
    const TenantHandle& tenant,
    std::vector<std::vector<Engine::Request>> batches,
    const obs::TraceContext& trace) {
  std::vector<Result<std::future<BatchReply>>> out;
  out.reserve(batches.size());
  // One lock hold across every decision: no runner can pop or complete a
  // batch (both need queue_mu_) between the first and the last admission
  // check, so a burst's outcome depends only on the caps and the
  // in-service count at entry.
  std::lock_guard<std::mutex> lock(queue_mu_);
  for (auto& requests : batches) {
    Job job;
    job.submit_start = std::chrono::steady_clock::now();
    job.tenant = tenant;
    job.trace = trace;
    job.requests = std::move(requests);
    std::future<BatchReply> future = job.promise.get_future();
    Status enq = EnqueueLocked(std::move(job));
    if (enq.ok()) {
      out.push_back(std::move(future));
    } else {
      out.push_back(std::move(enq));
    }
  }
  return out;
}

std::vector<Result<std::future<BatchReply>>> CatalogService::SubmitBatches(
    const std::string& tenant,
    std::vector<std::vector<Engine::Request>> batches,
    const obs::TraceContext& trace) {
  auto resolved = ResolveCatalog(tenant);
  if (!resolved.ok()) {
    std::vector<Result<std::future<BatchReply>>> out;
    for (size_t i = 0; i < batches.size(); ++i) out.push_back(resolved.status());
    return out;
  }
  auto out = AdmitBatches(*resolved, std::move(batches), trace);
  for (const auto& slot : out) {
    if (slot.ok()) queue_cv_.notify_one();
  }
  return out;
}

std::vector<BatchResult> CatalogService::ServeViewBatches(
    const TenantHandle& tenant,
    const std::vector<std::vector<std::string>>& views,
    const obs::TraceContext& trace) {
  const std::map<std::string, SPCUView>& known = tenant->spec_.views;
  std::vector<BatchResult> out(views.size());
  std::vector<std::vector<Engine::Request>> to_serve;
  std::vector<size_t> slot_of;
  for (size_t i = 0; i < views.size(); ++i) {
    std::vector<Engine::Request> requests;
    requests.reserve(views[i].size());
    for (const std::string& view : views[i]) {
      auto it = known.find(view);
      if (it == known.end()) {
        out[i].status = Status::NotFound("unknown view '" + view +
                                         "' in tenant '" + tenant->name() +
                                         "'");
        break;
      }
      requests.emplace_back(it->second, /*sigma_id=*/0);
    }
    if (!out[i].status.ok()) continue;
    slot_of.push_back(i);
    to_serve.push_back(std::move(requests));
  }
  // One ServeBatches call for the whole frame: admission for every
  // batch is decided under one lock, which is what makes a pipelined
  // burst's admit/reject pattern deterministic.
  std::vector<BatchReply> served =
      ServeBatches(tenant, std::move(to_serve), trace);
  for (size_t k = 0; k < served.size(); ++k) {
    out[slot_of[k]] = std::move(served[k]);
  }
  return out;
}

std::vector<BatchReply> CatalogService::ServeBatches(
    const TenantHandle& tenant,
    std::vector<std::vector<Engine::Request>> batches,
    const obs::TraceContext& trace) {
  auto submitted = AdmitBatches(tenant, std::move(batches), trace);
  // This thread runs one batch itself; dispatchers are woken only for
  // the rest.
  const auto admitted =
      std::count_if(submitted.begin(), submitted.end(),
                    [](const auto& slot) { return slot.ok(); });
  for (auto i = admitted; i > 1; --i) queue_cv_.notify_one();
  {
    // Run queued jobs until each of ours has resolved. A job that
    // resolves ours releases its slot under queue_mu_ and then notifies
    // (RunJob), so checking the future and waiting under the lock loses
    // no wake-up.
    std::unique_lock<std::mutex> lock(queue_mu_);
    for (auto& slot : submitted) {
      if (!slot.ok()) continue;
      while (slot->wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
        Job job;
        if (PopEligibleLocked(&job)) {
          lock.unlock();
          RunJob(std::move(job));
          lock.lock();
        } else {
          queue_cv_.wait(lock);
        }
      }
    }
  }
  std::vector<BatchReply> out(submitted.size());
  for (size_t i = 0; i < submitted.size(); ++i) {
    if (submitted[i].ok()) {
      out[i] = submitted[i]->get();
    } else {
      out[i].tenant = tenant->name();
      out[i].status = submitted[i].status();
    }
  }
  return out;
}

Status CatalogService::SubmitBatch(const std::string& tenant,
                                   std::vector<Engine::Request> requests,
                                   std::function<void(BatchReply)> done) {
  if (!done) {
    return Status::InvalidArgument("SubmitBatch callback must be set");
  }
  Job job;
  job.requests = std::move(requests);
  job.callback = std::move(done);
  return Enqueue(tenant, std::move(job));
}

bool CatalogService::PopEligibleLocked(Job* job) {
  if (queues_.empty() || running_total_ >= options_.dispatcher_threads) {
    return false;
  }
  const uint64_t running_cap = options_.admission.max_inflight_batches;
  // Round-robin: scan tenant queues starting just past the last tenant
  // served, wrapping — under saturation every tenant with queued work
  // gets a runner in name order, regardless of who floods the queue.
  auto start = queues_.upper_bound(rr_cursor_);
  if (start == queues_.end()) start = queues_.begin();
  auto it = start;
  do {
    std::deque<Job>& q = it->second;
    if (!q.empty()) {
      Tenant& tenant = *q.front().tenant;
      // A tenant at its running cap keeps its queue until a completion
      // frees a slot (the completing runner notifies).
      if (running_cap == 0 ||
          tenant.admission_running.load(std::memory_order_relaxed) <
              running_cap) {
        *job = std::move(q.front());
        q.pop_front();
        --total_queued_;
        tenant.admission_queued.fetch_sub(1, std::memory_order_relaxed);
        tenant.admission_running.fetch_add(1, std::memory_order_relaxed);
        ++running_total_;
        rr_cursor_ = it->first;
        if (q.empty()) queues_.erase(it);
        return true;
      }
    }
    ++it;
    if (it == queues_.end()) it = queues_.begin();
  } while (it != start);
  return false;
}

void CatalogService::DispatcherLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      for (;;) {
        if (PopEligibleLocked(&job)) break;
        // Drained means *empty queues*, not just "none eligible": a
        // queued batch behind a running cap waits for the completion
        // notify in RunJob, even during shutdown, so no future ever
        // breaks.
        if (stopping_ && total_queued_ == 0) return;
        queue_cv_.wait(lock);
      }
    }
    RunJob(std::move(job));
  }
}

void CatalogService::RunJob(Job job) {
  // Lifecycle stamps: queue-wait ended at the caller's pop; the engine
  // call is the propagate stage; delivering the reply is its own
  // stage (a slow future consumer or callback shows up here, not in
  // propagate).
  const auto popped_at = std::chrono::steady_clock::now();
  const Tenant::StageTimers& stages = job.tenant->stages_;
  if (stages.queue_wait) {
    stages.queue_wait->Record(MicrosBetween(job.admitted_at, popped_at));
  }
  // Stage spans ride the exact stamps the histograms read — a sampled
  // job adds span-ring appends and one clock call (the reply hand-off).
  obs::Tracer* tracer = job.trace.sampled ? obs::ProcessTracer() : nullptr;
  auto span = [&](const char* name,
                  std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
    if (tracer == nullptr) return;
    tracer->Record(job.trace, tracer->NewSpanId(), job.trace.parent_span_id,
                   name, obs::Tracer::ToUs(from),
                   static_cast<uint64_t>(MicrosBetween(from, to)),
                   job.tenant->name());
  };
  span("queue_wait", job.admitted_at, popped_at);
  BatchReply reply;
  reply.tenant = job.tenant->name();
  reply.sequence = job.sequence;
  const auto propagate_start = std::chrono::steady_clock::now();
  if (stages.dispatch) {
    stages.dispatch->Record(MicrosBetween(popped_at, propagate_start));
  }
  span("dispatch", popped_at, propagate_start);
  // PropagateBatch already converts per-request exceptions to Status;
  // this guard is for anything outside that contract — one tenant's
  // failure must never std::terminate the whole service.
  try {
    reply.results =
        job.tenant->engine_->PropagateBatch(job.requests, job.trace);
  } catch (...) {
    reply.results.clear();
    for (size_t i = 0; i < job.requests.size(); ++i) {
      reply.results.emplace_back(
          Status::Internal("batch dispatch exception"));
    }
  }
  const auto propagate_end = std::chrono::steady_clock::now();
  if (stages.propagate) {
    stages.propagate->Record(MicrosBetween(propagate_start, propagate_end));
  }
  span("propagate", propagate_start, propagate_end);
  batches_completed_.fetch_add(1, std::memory_order_relaxed);
  // The reply span closes at the hand-off, before delivery: the caller
  // may ask for this trace (TRACE_DUMP) as soon as it holds the reply,
  // and the span must be in the ring by then. The reply stage histogram
  // below still times the delivery itself.
  if (tracer != nullptr) {
    span("reply", propagate_end, std::chrono::steady_clock::now());
  }
  if (!job.callback) {
    job.promise.set_value(std::move(reply));
  } else {
    // A throwing callback would std::terminate the runner; the
    // contract says "must not throw", the catch makes a violation
    // lose one reply instead of the whole service.
    try {
      job.callback(std::move(reply));
    } catch (...) {
    }
  }
  if (stages.reply) {
    stages.reply->Record(
        MicrosBetween(propagate_end, std::chrono::steady_clock::now()));
  }
  // Release the running slot only after the reply is delivered (a
  // batch "in flight" admission-wise is one whose caller hasn't heard
  // back yet), and notify: a queued batch may have been waiting on a
  // cap, a ServeBatches caller on this reply, and the shutdown drain
  // waits on exactly this. It stays unconditional: skipping it when no
  // one waited made zipf-open's batch_p95_us 11% worse on a 4-vCPU VM
  // (presumably the idle dispatchers it wakes keep CPUs out of deep
  // idle).
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    job.tenant->admission_running.fetch_sub(1, std::memory_order_relaxed);
    --running_total_;
  }
  queue_cv_.notify_all();
}

Result<uint64_t> CatalogService::Spill(Tenant& tenant, bool from_policy,
                                       uint64_t min_dirty) {
  std::lock_guard<std::mutex> lock(tenant.spill_mu);
  if (tenant.dropped.load(std::memory_order_relaxed)) {
    // A stale handle (the policy thread snapshots the registry before a
    // concurrent DropCatalog): the drop already took the final flush,
    // and the file may belong to a re-opened same-name tenant now.
    return tenant.last_spill_lines.load(std::memory_order_relaxed);
  }
  // The marker is read before the save: lines inserted while the save
  // runs miss the file but keep the tenant dirty, so the next pass
  // picks them up.
  const uint64_t changes =
      CacheChangeCounter(tenant.engine_->Stats().cache);
  const uint64_t dirty =
      changes - tenant.spill_marker.load(std::memory_order_relaxed);
  if (dirty < min_dirty) {
    return tenant.last_spill_lines.load(std::memory_order_relaxed);
  }
  const SerializedSnapshot snapshot = tenant.engine_->SerializeSnapshot();
  CFDPROP_RETURN_NOT_OK(
      WriteSnapshotFile(SnapshotPath(tenant.name_), snapshot.bytes));
  const uint64_t lines = snapshot.lines;
  // Counters first, marker last with release ordering: a Stats() reader
  // that observes the new marker (dirty == 0, "settled") is then
  // guaranteed to also see the spill counters this spill bumped — so
  // "settled with policy_spills=0" can never be reported for a spill
  // that actually ran.
  tenant.last_spill_lines.store(lines, std::memory_order_relaxed);
  tenant.spills.fetch_add(1, std::memory_order_relaxed);
  if (from_policy) {
    tenant.policy_spills.fetch_add(1, std::memory_order_relaxed);
  }
  tenant.spill_marker.store(changes, std::memory_order_release);
  return lines;
}

Result<uint64_t> CatalogService::SpillTenant(const std::string& name) {
  if (options_.snapshot_dir.empty()) {
    return Status::Unsupported("service has no snapshot directory");
  }
  CFDPROP_ASSIGN_OR_RETURN(TenantHandle tenant, ResolveCatalog(name));
  return Spill(*tenant, /*from_policy=*/false, /*min_dirty=*/0);
}

Status CatalogService::DrainTenant(const std::string& name,
                                   std::chrono::milliseconds deadline) {
  CFDPROP_ASSIGN_OR_RETURN(TenantHandle tenant, ResolveCatalog(name));
  // Both gauges only move under queue_mu_, and RunJob releases
  // the running slot (then notifies) only after the reply is delivered —
  // so "queued + running == 0" here means every submitted batch has
  // answered its caller, not merely left the queue.
  auto drained = [&] {
    return tenant->admission_queued.load(std::memory_order_relaxed) +
               tenant->admission_running.load(std::memory_order_relaxed) ==
           0;
  };
  std::unique_lock<std::mutex> lock(queue_mu_);
  if (deadline.count() <= 0) {
    queue_cv_.wait(lock, drained);
    return Status::OK();
  }
  if (!queue_cv_.wait_for(lock, deadline, drained)) {
    return Status::DeadlineExceeded("tenant '" + name +
                                    "' still has batches in service after " +
                                    std::to_string(deadline.count()) + "ms");
  }
  return Status::OK();
}

Result<SerializedSnapshot> CatalogService::ExportTenantSnapshot(
    const std::string& name) {
  CFDPROP_ASSIGN_OR_RETURN(TenantHandle tenant, ResolveCatalog(name));
  return tenant->engine_->SerializeSnapshot();
}

void CatalogService::PolicyLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(policy_mu_);
      policy_cv_.wait_for(lock, options_.policy.interval,
                          [&] { return policy_stop_; });
      if (policy_stop_) return;
    }
    // Snapshot the handles first: spilling under registry_mu_ would
    // block OpenCatalog on snapshot I/O.
    std::vector<TenantHandle> tenants;
    {
      std::shared_lock<std::shared_mutex> lock(registry_mu_);
      tenants.reserve(tenants_.size());
      for (const auto& [name, tenant] : tenants_) {
        tenants.push_back(tenant);
      }
    }
    for (const TenantHandle& tenant : tenants) {
      // Best effort: an unwritable directory surfaces on the explicit
      // SpillTenant/DropCatalog paths; the background thread just keeps
      // trying (the tenant stays dirty).
      (void)Spill(*tenant, /*from_policy=*/true,
                  options_.policy.dirty_line_threshold);
    }
  }
}

void CatalogService::BindStageTimers(Tenant& tenant) {
  constexpr std::string_view kName = "cfdprop_stage_latency_us";
  constexpr std::string_view kHelp =
      "Per-stage batch lifecycle latency in microseconds";
  auto stage = [&](const char* stage_name) {
    return metrics_.GetHistogram(
        kName, kHelp,
        {{"tenant", tenant.name_}, {"stage", stage_name}});
  };
  tenant.stages_.admission = stage("admission");
  tenant.stages_.queue_wait = stage("queue_wait");
  tenant.stages_.dispatch = stage("dispatch");
  tenant.stages_.propagate = stage("propagate");
  tenant.stages_.reply = stage("reply");
}

std::vector<obs::MetricFamilySamples> CatalogService::CollectFamilies() const {
  // ONE Stats() snapshot feeds every family below — per-tenant values
  // across families come from the same read, and counters are monotone,
  // so consecutive scrapes never see a series move backwards.
  const ServiceStatsSnapshot s = Stats();

  std::vector<obs::MetricFamilySamples> out;
  auto family = [&out](std::string_view name, obs::MetricType type,
                       std::string_view help) -> obs::MetricFamilySamples& {
    out.push_back({std::string(name), type, std::string(help), {}});
    return out.back();
  };
  auto per_tenant = [&s, &family](
                        std::string_view name, obs::MetricType type,
                        std::string_view help,
                        double (*get)(const TenantStatsSnapshot&)) {
    auto& f = family(name, type, help);
    f.samples.reserve(s.tenants.size());
    for (const TenantStatsSnapshot& t : s.tenants) {
      f.samples.push_back({{{"tenant", t.name}}, get(t), std::nullopt});
    }
  };
  auto per_tenant_hist =
      [&s, &family](std::string_view name, std::string_view help,
                    const obs::HistogramSnapshot& (*get)(
                        const TenantStatsSnapshot&)) {
        auto& f = family(name, obs::MetricType::kHistogram, help);
        f.samples.reserve(s.tenants.size());
        for (const TenantStatsSnapshot& t : s.tenants) {
          f.samples.push_back({{{"tenant", t.name}}, 0.0, get(t)});
        }
      };
  auto u64 = [](uint64_t v) { return static_cast<double>(v); };

  using TS = TenantStatsSnapshot;
  using obs::MetricType;
  // Cache.
  per_tenant("cfdprop_cache_hits_total", MetricType::kCounter,
             "Cover-cache hits", +[](const TS& t) {
               return static_cast<double>(t.engine.cache.hits);
             });
  per_tenant("cfdprop_cache_misses_total", MetricType::kCounter,
             "Cover-cache misses", +[](const TS& t) {
               return static_cast<double>(t.engine.cache.misses);
             });
  per_tenant("cfdprop_cache_insertions_total", MetricType::kCounter,
             "Cover-cache insertions", +[](const TS& t) {
               return static_cast<double>(t.engine.cache.insertions);
             });
  per_tenant("cfdprop_cache_evictions_total", MetricType::kCounter,
             "Cover-cache LRU evictions", +[](const TS& t) {
               return static_cast<double>(t.engine.cache.evictions);
             });
  per_tenant("cfdprop_cache_invalidations_total", MetricType::kCounter,
             "Cover-cache lines dropped by sigma mutation",
             +[](const TS& t) {
               return static_cast<double>(t.engine.cache.invalidations);
             });
  per_tenant("cfdprop_cache_restored_total", MetricType::kCounter,
             "Cover-cache lines warm-started from snapshots",
             +[](const TS& t) {
               return static_cast<double>(t.engine.cache.restored);
             });
  per_tenant("cfdprop_cache_rejected_total", MetricType::kCounter,
             "Snapshot lines rejected at warm start", +[](const TS& t) {
               return static_cast<double>(t.engine.cache.rejected);
             });
  per_tenant("cfdprop_snapshot_rejected_total", MetricType::kCounter,
             "Warm-start snapshots rejected wholesale", +[](const TS& t) {
               return static_cast<double>(t.snapshot_rejected);
             });
  per_tenant("cfdprop_cache_entries", MetricType::kGauge,
             "Live cover-cache entries", +[](const TS& t) {
               return static_cast<double>(t.engine.cache.entries);
             });
  per_tenant("cfdprop_cache_budget", MetricType::kGauge,
             "Cover-cache capacity after the global split",
             +[](const TS& t) { return static_cast<double>(t.cache_budget); });
  // Engine serving.
  per_tenant("cfdprop_requests_total", MetricType::kCounter,
             "Propagation requests served", +[](const TS& t) {
               return static_cast<double>(t.engine.requests);
             });
  per_tenant("cfdprop_request_errors_total", MetricType::kCounter,
             "Requests that returned an error", +[](const TS& t) {
               return static_cast<double>(t.engine.errors);
             });
  per_tenant("cfdprop_engine_batches_total", MetricType::kCounter,
             "PropagateBatch calls run by the engine", +[](const TS& t) {
               return static_cast<double>(t.engine.batches);
             });
  per_tenant("cfdprop_union_requests_total", MetricType::kCounter,
             "SPCU (union) requests", +[](const TS& t) {
               return static_cast<double>(t.engine.union_requests);
             });
  per_tenant("cfdprop_disjunct_hits_total", MetricType::kCounter,
             "Union disjuncts served from per-SPC cache lines",
             +[](const TS& t) {
               return static_cast<double>(t.engine.disjunct_hits);
             });
  per_tenant("cfdprop_disjunct_misses_total", MetricType::kCounter,
             "Union disjuncts that had to be computed", +[](const TS& t) {
               return static_cast<double>(t.engine.disjunct_misses);
             });
  per_tenant("cfdprop_sigma_mutations_total", MetricType::kCounter,
             "AddCfd/RetractCfd mutations applied", +[](const TS& t) {
               return static_cast<double>(t.engine.sigma_mutations);
             });
  per_tenant("cfdprop_sigma_memo_hits_total", MetricType::kCounter,
             "Mutations whose MinCover came from the memo", +[](const TS& t) {
               return static_cast<double>(t.engine.sigma_memo_hits);
             });
  per_tenant("cfdprop_sigma_memo_lines", MetricType::kGauge,
             "MinCover memo lines held", +[](const TS& t) {
               return static_cast<double>(t.engine.sigma_memo_lines);
             });
  per_tenant("cfdprop_sigma_memo_capacity", MetricType::kGauge,
             "MinCover memo line limit", +[](const TS&) {
               return static_cast<double>(Engine::kSigmaMemoCapacity);
             });
  per_tenant("cfdprop_batch_parallel_efficiency", MetricType::kGauge,
             "PropagateBatch busy/wall ratio (par_eff)",
             +[](const TS& t) { return t.engine.BatchParallelism(); });
  // Admission + spill policy.
  per_tenant("cfdprop_admitted_total", MetricType::kCounter,
             "Batches admitted",
             +[](const TS& t) { return static_cast<double>(t.admitted); });
  per_tenant("cfdprop_admission_rejected_total", MetricType::kCounter,
             "Batches refused by admission control", +[](const TS& t) {
               return static_cast<double>(t.admission_rejected);
             });
  per_tenant("cfdprop_queued_batches", MetricType::kGauge,
             "Batches waiting in the tenant queue",
             +[](const TS& t) { return static_cast<double>(t.queued); });
  per_tenant("cfdprop_running_batches", MetricType::kGauge,
             "Batches running on a dispatcher or a serving caller",
             +[](const TS& t) { return static_cast<double>(t.running); });
  per_tenant("cfdprop_spills_total", MetricType::kCounter,
             "Cover-cache snapshot spills (policy + flush)",
             +[](const TS& t) { return static_cast<double>(t.spills); });
  per_tenant("cfdprop_policy_spills_total", MetricType::kCounter,
             "Spills initiated by the background policy thread",
             +[](const TS& t) { return static_cast<double>(t.policy_spills); });
  per_tenant("cfdprop_dirty_lines", MetricType::kGauge,
             "Cache changes since the tenant's last spill",
             +[](const TS& t) { return static_cast<double>(t.dirty_lines); });
  // Engine latency distributions.
  per_tenant_hist("cfdprop_request_latency_us",
                  "Per-request serve latency in microseconds",
                  +[](const TS& t) -> const obs::HistogramSnapshot& {
                    return t.engine.total_latency;
                  });
  per_tenant_hist("cfdprop_fingerprint_latency_us",
                  "Canonicalization + hashing latency in microseconds",
                  +[](const TS& t) -> const obs::HistogramSnapshot& {
                    return t.engine.fingerprint_latency;
                  });
  per_tenant_hist("cfdprop_compute_latency_us",
                  "PropagationCoverSPC compute latency in microseconds",
                  +[](const TS& t) -> const obs::HistogramSnapshot& {
                    return t.engine.compute_latency;
                  });
  // Service-level scalars.
  family("cfdprop_batches_submitted_total", MetricType::kCounter,
         "Batches admitted service-wide")
      .samples.push_back({{}, u64(s.batches_submitted), std::nullopt});
  family("cfdprop_batches_completed_total", MetricType::kCounter,
         "Batches completed service-wide")
      .samples.push_back({{}, u64(s.batches_completed), std::nullopt});
  family("cfdprop_batches_rejected_total", MetricType::kCounter,
         "Batches refused by admission control service-wide")
      .samples.push_back({{}, u64(s.batches_rejected), std::nullopt});
  family("cfdprop_tenants", MetricType::kGauge, "Open tenants")
      .samples.push_back(
          {{}, static_cast<double>(s.tenants.size()), std::nullopt});
  family("cfdprop_global_cache_budget", MetricType::kGauge,
         "Global cover-cache entry budget")
      .samples.push_back(
          {{}, static_cast<double>(s.global_cache_budget), std::nullopt});
  // Tracing health (span/drop/slow counters) joins the same scrape when
  // a process tracer is installed, so one METRICS fetch answers "is the
  // ring overflowing" without a TRACE_DUMP.
  if (obs::Tracer* tracer = obs::ProcessTracer()) {
    for (auto& f : tracer->CollectFamilies()) out.push_back(std::move(f));
  }
  return out;
}

ServiceStatsSnapshot CatalogService::Stats() const {
  ServiceStatsSnapshot s;
  s.global_cache_budget = options_.global_cache_budget;
  s.batches_submitted = batches_submitted_.load(std::memory_order_relaxed);
  s.batches_completed = batches_completed_.load(std::memory_order_relaxed);
  s.batches_rejected = batches_rejected_.load(std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  s.tenants.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) {
    TenantStatsSnapshot t;
    t.name = name;
    // Lock-free reads: the spill thread may be mid-write holding
    // spill_mu, and stats must not wait out the disk write. The marker
    // loads FIRST (acquire, pairing with Spill's release store): seeing
    // a spill's marker implies seeing its counter bumps below.
    const uint64_t marker =
        tenant->spill_marker.load(std::memory_order_acquire);
    t.cache_budget = tenant->cache_budget();
    t.spills = tenant->spills.load(std::memory_order_relaxed);
    t.policy_spills = tenant->policy_spills.load(std::memory_order_relaxed);
    t.last_spill_lines =
        tenant->last_spill_lines.load(std::memory_order_relaxed);
    t.admitted = tenant->admission_admitted.load(std::memory_order_relaxed);
    t.admission_rejected =
        tenant->admission_rejected.load(std::memory_order_relaxed);
    t.queued = tenant->admission_queued.load(std::memory_order_relaxed);
    t.running = tenant->admission_running.load(std::memory_order_relaxed);
    t.engine = tenant->engine_->Stats();
    const uint64_t changes = CacheChangeCounter(t.engine.cache);
    t.dirty_lines = changes > marker ? changes - marker : 0;
    t.snapshot_rejected = tenant->snapshot_rejection_.ok() ? 0 : 1;
    s.tenants.push_back(std::move(t));
  }
  return s;
}

}  // namespace cfdprop
