#include "src/engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "src/cfd/mincover.h"

namespace cfdprop {

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

}  // namespace

Engine::Engine(Catalog catalog, EngineOptions options)
    : catalog_(std::move(catalog)),
      options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_shards),
      stats_(options_.metrics) {
  // Pre-intern the only constants the propagation pipeline interns (the
  // ComputeEQ/Lemma 4.5 pair): with these present, concurrent requests
  // hit ValuePool::Intern's read-only path and never mutate the pool.
  catalog_.pool().Intern("0");
  catalog_.pool().Intern("1");
  if (options_.num_threads > 1) StartWorkers();
}

Engine::~Engine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

Status Engine::ValidateSigma(const std::vector<CFD>& sigma) const {
  for (const CFD& c : sigma) {
    if (c.relation >= catalog_.num_relations()) {
      return Status::InvalidArgument("source CFD with unknown relation");
    }
    CFDPROP_RETURN_NOT_OK(c.Validate(catalog_.relation(c.relation).arity()));
  }
  return Status::OK();
}

Result<SigmaId> Engine::RegisterSigma(std::vector<CFD> sigma) {
  CFDPROP_RETURN_NOT_OK(ValidateSigma(sigma));
  // Fig. 2 line 1, hoisted: minimize once per registration instead of
  // once per request (MinCoverSigma is the same step the one-shot
  // pipeline runs, so cached and direct results agree byte-for-byte).
  CFDPROP_ASSIGN_OR_RETURN(
      std::vector<CFD> minimized,
      MinCoverSigma(catalog_, sigma, options_.cover.mincover));
  const SigmaVersion version = SigmaVersionOf(catalog_.pool(), minimized);
  std::unique_lock<std::shared_mutex> lock(sigma_mu_);
  sigmas_.push_back(SigmaEntry{
      std::move(sigma),
      std::make_shared<const std::vector<CFD>>(std::move(minimized)),
      version});
  return static_cast<SigmaId>(sigmas_.size() - 1);
}

Status Engine::MutateSigma(
    SigmaId id, RelationId relation,
    const std::function<Status(std::vector<CFD>&)>& edit) {
  // Serializing mutators keeps (raw, prev) a consistent pair across the
  // unlocked compute below: prev is MinCoverSigma(raw) until the swap.
  std::lock_guard<std::mutex> mutation_lock(mutation_mu_);
  std::vector<CFD> raw;
  std::shared_ptr<const std::vector<CFD>> prev;
  {
    std::shared_lock<std::shared_mutex> lock(sigma_mu_);
    if (id >= sigmas_.size()) {
      return Status::InvalidArgument("unknown sigma id");
    }
    raw = sigmas_[id].raw;
    prev = sigmas_[id].minimized;
  }
  CFDPROP_RETURN_NOT_OK(edit(raw));  // sigma unchanged on error
  // Re-minimize OUTSIDE sigma_mu_ — MinCover is the expensive step, and
  // serving must only ever block on the O(1) snapshot swap below — and
  // only `relation`'s group: every other group is kept from `prev`.
  auto minimized = MinCoverSigmaRelation(catalog_, *prev, raw, relation,
                                         options_.cover.mincover);
  if (!minimized.ok()) return minimized.status();  // sigma unchanged
  const SigmaVersion version = SigmaVersionOf(catalog_.pool(), *minimized);
  auto next = std::make_shared<const std::vector<CFD>>(
      std::move(minimized).value());
  SigmaVersion old;
  {
    // Re-index instead of holding a reference across the compute:
    // RegisterSigma may have grown (reallocated) the vector meanwhile.
    std::unique_lock<std::shared_mutex> lock(sigma_mu_);
    SigmaEntry& entry = sigmas_[id];
    old = entry.version;
    // Swap, not assign: `raw` and `next` take the superseded list and
    // snapshot, which are freed when they go out of scope, after the
    // lock is released.
    entry.raw.swap(raw);
    entry.minimized.swap(next);
    entry.version = version;
  }
  // Lookups for this set now ask for the new version, so dropping the
  // old version's lines outside the lock only reclaims capacity — and
  // touches no line of any other version. Unchanged content keeps its
  // lines.
  if (old != version) cache_.EraseVersion(old);
  stats_.RecordMutation();
  return Status::OK();
}

Status Engine::AddCfd(SigmaId id, CFD cfd) {
  if (cfd.relation >= catalog_.num_relations()) {
    return Status::InvalidArgument("source CFD with unknown relation");
  }
  CFDPROP_RETURN_NOT_OK(
      cfd.Validate(catalog_.relation(cfd.relation).arity()));
  const RelationId relation = cfd.relation;
  return MutateSigma(id, relation, [&cfd](std::vector<CFD>& raw) {
    raw.push_back(std::move(cfd));
    return Status::OK();
  });
}

Status Engine::RetractCfd(SigmaId id, const CFD& cfd) {
  return MutateSigma(id, cfd.relation, [&cfd](std::vector<CFD>& raw) {
    auto it = std::find(raw.begin(), raw.end(), cfd);
    if (it == raw.end()) {
      return Status::NotFound("CFD is not registered in this sigma set");
    }
    raw.erase(it);
    return Status::OK();
  });
}

size_t Engine::num_sigmas() const {
  std::shared_lock<std::shared_mutex> lock(sigma_mu_);
  return sigmas_.size();
}

std::shared_ptr<const std::vector<CFD>> Engine::sigma(SigmaId id) const {
  std::shared_lock<std::shared_mutex> lock(sigma_mu_);
  return sigmas_[id].minimized;
}

std::vector<CFD> Engine::sigma_raw(SigmaId id) const {
  std::shared_lock<std::shared_mutex> lock(sigma_mu_);
  return sigmas_[id].raw;
}

SigmaVersion Engine::sigma_version(SigmaId id) const {
  std::shared_lock<std::shared_mutex> lock(sigma_mu_);
  return sigmas_[id].version;
}

Result<std::pair<std::shared_ptr<const std::vector<CFD>>, SigmaVersion>>
Engine::SnapshotSigma(SigmaId sigma_id) const {
  std::shared_lock<std::shared_mutex> lock(sigma_mu_);
  if (sigma_id >= sigmas_.size()) {
    return Status::InvalidArgument("unknown sigma id");
  }
  return std::make_pair(sigmas_[sigma_id].minimized,
                        sigmas_[sigma_id].version);
}

Result<EngineResult> Engine::Serve(const SPCView& view, SigmaId sigma_id) {
  CFDPROP_ASSIGN_OR_RETURN(auto snapshot, SnapshotSigma(sigma_id));
  const auto& [sigma, version] = snapshot;

  const auto start = Clock::now();
  EngineResult result;
  RequestFingerprint fp = FingerprintRequestPair(catalog_, view, version.key);
  result.fingerprint = fp.key;
  result.timing.fingerprint_us = MicrosSince(start);

  if (options_.use_cache) {
    if (auto cached = cache_.Lookup(fp.key, fp.check, version)) {
      result.cover = std::move(cached);
      result.cache_hit = true;
      result.timing.total_us = MicrosSince(start);
      stats_.Record(result.timing, /*error=*/false);
      return result;
    }
  }

  const auto compute_start = Clock::now();
  PropCoverOptions cover_options = options_.cover;
  cover_options.input_mincover = false;  // minimized at registration
  auto computed = PropagationCoverSPC(catalog_, view, *sigma, cover_options);
  result.timing.compute_us = MicrosSince(compute_start);
  result.timing.total_us = MicrosSince(start);
  if (!computed.ok()) {
    stats_.Record(result.timing, /*error=*/true);
    return computed.status();
  }

  auto cached = std::make_shared<CachedCover>();
  cached->cover = std::move(computed->cover);
  cached->always_empty = computed->always_empty;
  cached->truncated = computed->truncated;
  if (options_.use_cache && !cached->truncated) {
    // Truncated covers are budget artifacts, not the request's answer;
    // don't let them shadow a future full computation. The version
    // recorded here is the one the compute used: if Σ mutated
    // mid-compute, the line still answers that content (and ages out
    // by LRU unless the content comes back).
    cache_.Insert(fp.key, fp.check, cached, version);
  }
  result.cover = std::move(cached);
  stats_.Record(result.timing, /*error=*/false);
  return result;
}

Result<EngineResult> Engine::ServeUnion(const SPCUView& view,
                                        SigmaId sigma_id) {
  if (view.disjuncts.size() == 1) {
    return Serve(view.disjuncts.front(), sigma_id);
  }
  CFDPROP_ASSIGN_OR_RETURN(auto snapshot, SnapshotSigma(sigma_id));
  const auto& [sigma, version] = snapshot;

  const auto start = Clock::now();
  EngineResult result;
  result.disjunct_count = view.disjuncts.size();
  UnionFingerprint ufp =
      FingerprintUnionRequestPair(catalog_, view, version.key);
  result.fingerprint = ufp.fused.key;
  result.timing.fingerprint_us = MicrosSince(start);

  if (options_.use_cache) {
    if (auto cached = cache_.Lookup(ufp.fused.key, ufp.fused.check,
                                    version)) {
      result.cover = std::move(cached);
      result.cache_hit = true;
      result.disjunct_hits = result.disjunct_count;
      result.timing.total_us = MicrosSince(start);
      stats_.Record(result.timing, /*error=*/false);
      stats_.RecordUnion(result.disjunct_count, 0);
      return result;
    }
  }

  // Union-level miss: validate the union (cross-disjunct compatibility —
  // deliberately after the fused lookup: a check-hash hit implies an
  // identical multiset of disjuncts already assembled successfully, so
  // hot repeats skip the walk), then serve each disjunct from the
  // per-SPC cache lines (the partial hits), computing and inserting the
  // missing ones, and run the cross-disjunct assembly — the same
  // AssembleUnionCover the one-shot path runs, on the same inputs.
  CFDPROP_RETURN_NOT_OK(view.Validate(catalog_));
  const auto compute_start = Clock::now();
  PropCoverOptions cover_options = options_.cover;
  cover_options.input_mincover = false;  // minimized at registration
  std::vector<PropCoverResult> per_disjunct;
  per_disjunct.reserve(view.disjuncts.size());
  for (size_t j = 0; j < view.disjuncts.size(); ++j) {
    const RequestFingerprint& dfp = ufp.disjuncts[j];
    if (options_.use_cache) {
      if (auto hit = cache_.Lookup(dfp.key, dfp.check, version)) {
        ++result.disjunct_hits;
        PropCoverResult r;
        r.cover = hit->cover;  // copy: the assembly consumes its inputs
        r.always_empty = hit->always_empty;
        r.truncated = hit->truncated;
        per_disjunct.push_back(std::move(r));
        continue;
      }
    }
    auto computed = PropagationCoverSPC(catalog_, view.disjuncts[j], *sigma,
                                        cover_options);
    if (!computed.ok()) {
      result.timing.compute_us = MicrosSince(compute_start);
      result.timing.total_us = MicrosSince(start);
      stats_.Record(result.timing, /*error=*/true);
      stats_.RecordUnion(result.disjunct_hits,
                         view.disjuncts.size() - result.disjunct_hits);
      return computed.status();
    }
    if (options_.use_cache && !computed->truncated) {
      auto line = std::make_shared<CachedCover>();
      line->cover = computed->cover;  // copy: the original feeds assembly
      line->always_empty = computed->always_empty;
      line->truncated = computed->truncated;
      cache_.Insert(dfp.key, dfp.check, std::move(line), version);
    }
    per_disjunct.push_back(std::move(computed).value());
  }
  stats_.RecordUnion(result.disjunct_hits,
                     view.disjuncts.size() - result.disjunct_hits);

  auto assembled = AssembleUnionCover(catalog_, view, *sigma,
                                      std::move(per_disjunct), cover_options);
  result.timing.compute_us = MicrosSince(compute_start);
  result.timing.total_us = MicrosSince(start);
  if (!assembled.ok()) {
    stats_.Record(result.timing, /*error=*/true);
    return assembled.status();
  }

  auto cached = std::make_shared<CachedCover>();
  cached->cover = std::move(assembled->cover);
  cached->always_empty = assembled->always_empty;
  cached->truncated = assembled->truncated;
  if (options_.use_cache && !cached->truncated) {
    cache_.Insert(ufp.fused.key, ufp.fused.check, cached, version);
  }
  result.cover = std::move(cached);
  stats_.Record(result.timing, /*error=*/false);
  return result;
}

Result<EngineResult> Engine::ServeRequest(const Request& request) {
  if (request.view.disjuncts.size() == 1) {
    return Serve(request.view.disjuncts.front(), request.sigma_id);
  }
  return ServeUnion(request.view, request.sigma_id);
}

Result<EngineResult> Engine::ServeRequestNoThrow(const Request& request) {
  // An exception escaping a worker task would std::terminate the worker
  // thread and leave the batch waiting forever; escaping the inline
  // loop it would tear down whatever serving thread (e.g. a service
  // dispatcher) called PropagateBatch. Surface it as a Status either
  // way.
  try {
    return ServeRequest(request);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("worker exception: ") + e.what());
  } catch (...) {
    return Status::Internal("worker exception");
  }
}

Result<EngineResult> Engine::Propagate(const SPCView& view,
                                       SigmaId sigma_id) {
  return Serve(view, sigma_id);
}

Result<EngineResult> Engine::PropagateUnion(const SPCUView& view,
                                            SigmaId sigma_id) {
  if (view.disjuncts.empty()) {
    return Status::InvalidArgument("union view with no disjuncts");
  }
  return ServeUnion(view, sigma_id);
}

std::vector<Result<EngineResult>> Engine::PropagateBatch(
    const std::vector<Request>& requests) {
  stats_.RecordBatch();
  const auto wall_start = Clock::now();
  // Result slots are indexed by request position: output order is the
  // request order no matter which worker finishes first.
  std::vector<std::optional<Result<EngineResult>>> slots(requests.size());

  if (options_.num_threads <= 1 || workers_.empty() || requests.size() <= 1) {
    for (size_t i = 0; i < requests.size(); ++i) {
      slots[i] = ServeRequestNoThrow(requests[i]);
    }
  } else {
    struct BatchState {
      std::mutex mu;
      std::condition_variable done_cv;
      size_t remaining;
    };
    // Chunked fan-out: queue one task per contiguous index range rather
    // than one per request, cutting queue-mutex traffic by the chunk
    // length while the position-indexed slots keep output order exact.
    // ~4 chunks per worker leaves enough pieces to rebalance when
    // request costs are skewed.
    const size_t target_chunks =
        std::min(requests.size(), options_.num_threads * 4);
    const size_t chunk_len =
        (requests.size() + target_chunks - 1) / target_chunks;
    const size_t num_chunks = (requests.size() + chunk_len - 1) / chunk_len;
    auto state = std::make_shared<BatchState>();
    state->remaining = num_chunks;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t begin = 0; begin < requests.size(); begin += chunk_len) {
        const size_t end = std::min(begin + chunk_len, requests.size());
        queue_.push_back([this, &requests, &slots, state, begin, end] {
          for (size_t i = begin; i < end; ++i) {
            slots[i] = ServeRequestNoThrow(requests[i]);
          }
          std::lock_guard<std::mutex> done_lock(state->mu);
          if (--state->remaining == 0) state->done_cv.notify_one();
        });
      }
    }
    work_cv_.notify_all();
    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock, [&] { return state->remaining == 0; });
  }

  // Wall vs. summed per-request time = the parallelism this batch
  // actually achieved (par_eff in the stats line).
  double busy_us = 0;
  for (const auto& slot : slots) {
    if (slot->ok()) busy_us += (*slot)->timing.total_us;
  }
  stats_.RecordBatchTiming(MicrosSince(wall_start), busy_us);

  std::vector<Result<EngineResult>> results;
  results.reserve(requests.size());
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

std::vector<Result<EngineResult>> Engine::PropagateBatch(
    const std::vector<Request>& requests, const obs::TraceContext& trace) {
  obs::Tracer* tracer =
      trace.sampled ? obs::ProcessTracer() : nullptr;
  if (tracer == nullptr) return PropagateBatch(requests);
  const uint64_t start_us = tracer->NowUs();
  std::vector<Result<EngineResult>> results = PropagateBatch(requests);
  const uint64_t dur_us = tracer->NowUs() - start_us;
  uint64_t hits = 0;
  uint64_t misses = 0;
  for (const auto& r : results) {
    if (!r.ok()) continue;
    if (r->cache_hit) {
      ++hits;
    } else {
      ++misses;
    }
  }
  char annot[32];
  std::snprintf(annot, sizeof(annot), "hits=%llu misses=%llu",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses));
  tracer->Record(trace, tracer->NewSpanId(), trace.parent_span_id, "compute",
                 start_us, dur_us, /*tenant=*/"", /*shard=*/-1, annot);
  return results;
}

std::vector<SigmaVersion> Engine::LiveVersions() const {
  std::shared_lock<std::shared_mutex> lock(sigma_mu_);
  std::vector<SigmaVersion> live;
  for (const SigmaEntry& e : sigmas_) live.push_back(e.version);
  return live;
}

Result<uint64_t> Engine::SaveSnapshot(const std::string& path) const {
  return cache_.SaveSnapshot(path, catalog_.pool());
}

Result<SnapshotLoadStats> Engine::LoadSnapshot(const std::string& path) {
  return cache_.LoadSnapshot(path, catalog_.pool(), LiveVersions());
}

SerializedSnapshot Engine::SerializeSnapshot() const {
  return cache_.SerializeSnapshot(catalog_.pool());
}

Result<SnapshotLoadStats> Engine::LoadSnapshotBytes(std::string_view bytes) {
  return cache_.LoadSnapshotBytes(bytes, catalog_.pool(), LiveVersions());
}

EngineStatsSnapshot Engine::Stats() const {
  EngineStatsSnapshot s = stats_.Snapshot();
  s.cache = cache_.Stats();
  return s;
}

void Engine::ClearCache() { cache_.Clear(); }

size_t Engine::SetCacheBudget(size_t entries) {
  return cache_.SetBudget(entries);
}

size_t Engine::cache_capacity() const { return cache_.capacity(); }

void Engine::StartWorkers() {
  // Guard against pathological configs: more workers than can do useful
  // work just burns memory on stacks (and std::thread creation throws
  // past OS limits).
  constexpr size_t kMaxWorkers = 256;
  options_.num_threads = std::min(options_.num_threads, kMaxWorkers);
  workers_.reserve(options_.num_threads);
  for (size_t i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void Engine::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace cfdprop
