#include "src/engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <utility>

#include "src/base/hash.h"
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

std::shared_ptr<const Engine::SigmaState> Engine::MakeState(
    std::vector<std::shared_ptr<const Group>> groups,
    const std::vector<RelationId>& order) {
  std::vector<std::span<const CFD>> parts;
  SigmaVersionFold fold;
  for (RelationId r : order) {
    if (groups[r] == nullptr || groups[r]->cfds.empty()) continue;
    parts.push_back(groups[r]->cfds);
    fold.Add(groups[r]->version);
  }
  // No catalog: a group's CFDs were validated on the way in, where
  // RegisterSigma grouped the registered list or AddCfd took the CFD.
  return std::make_shared<const SigmaState>(
      std::move(groups), fold.digest(), *SigmaGroups::Make(nullptr, parts));
}

Result<std::shared_ptr<const Engine::Group>> Engine::MinimizeGroup(
    RelationId relation, std::vector<CFD> raw) const {
  CFDPROP_ASSIGN_OR_RETURN(
      std::vector<CFD> cfds,
      MinCover(std::move(raw), catalog_.relation(relation).arity(),
               /*domains=*/{}, options_.cover.mincover));
  const SigmaVersion version = SigmaGroupVersion(catalog_.pool(), cfds);
  return std::make_shared<const Group>(Group{std::move(cfds), version});
}

Result<SigmaId> Engine::RegisterSigma(std::vector<CFD> sigma) {
  // Fig. 2 line 1, hoisted: minimize once per registration instead of
  // once per request — each relation's group, as MinCoverSigma does, so
  // cached and direct results agree byte-for-byte.
  CFDPROP_ASSIGN_OR_RETURN(SigmaGroups raw,
                           SigmaGroups::Make(&catalog_, sigma));
  std::vector<std::shared_ptr<const Group>> groups(catalog_.num_relations());
  for (RelationId r : raw.order()) {
    const std::span<const CFD> group = raw.group(r);
    CFDPROP_ASSIGN_OR_RETURN(groups[r],
                             MinimizeGroup(r, {group.begin(), group.end()}));
  }
  std::shared_ptr<const SigmaState> state =
      MakeState(std::move(groups), raw.order());
  std::unique_lock<std::shared_mutex> lock(sigma_mu_);
  sigmas_.push_back(SigmaEntry{std::move(sigma), std::move(state)});
  return static_cast<SigmaId>(sigmas_.size() - 1);
}

/// A raw list with one AddCfd/RetractCfd applied, read in place.
struct Engine::EditedList {
  const std::vector<CFD>& raw;
  size_t erase;       // the retracted CFD's index, SIZE_MAX when adding
  const CFD* added;   // the added CFD, nullptr when retracting

  /// Visits the edited list's CFDs of `relation` in order while `visit`
  /// returns true; false if it stopped early.
  template <typename Visit>
  bool ForEachOf(RelationId relation, Visit&& visit) const {
    for (size_t i = 0; i < raw.size(); ++i) {
      if (i != erase && raw[i].relation == relation && !visit(raw[i])) {
        return false;
      }
    }
    return added == nullptr || added->relation != relation || visit(*added);
  }
};

const Engine::MemoLine* Engine::FindMemoLine(RelationId relation,
                                             uint64_t hash, size_t size,
                                             const EditedList& list) {
  for (MemoLine& line : memo_) {
    if (line.hash != hash || line.relation != relation ||
        line.raw.size() != size) {
      continue;
    }
    size_t k = 0;
    if (list.ForEachOf(relation,
                       [&](const CFD& c) { return c == line.raw[k++]; })) {
      line.last_use = ++memo_clock_;
      return &line;
    }
  }
  return nullptr;
}

void Engine::InsertMemoLine(MemoLine line) {
  line.last_use = ++memo_clock_;
  if (memo_.size() < kSigmaMemoCapacity) {
    memo_.push_back(std::move(line));
    return;
  }
  auto lru = std::min_element(memo_.begin(), memo_.end(),
                              [](const MemoLine& a, const MemoLine& b) {
                                return a.last_use < b.last_use;
                              });
  *lru = std::move(line);
}

Status Engine::MutateSigma(SigmaId id, CFD cfd, bool add) {
  // Serializing mutators keeps (raw, prev) a consistent pair across the
  // unlocked compute below, and owns the memo.
  std::lock_guard<std::mutex> mutation_lock(mutation_mu_);
  const RelationId relation = cfd.relation;
  std::shared_ptr<const SigmaState> prev;
  std::vector<RelationId> order;  // groups of the edited list, first-seen
  size_t erase = SIZE_MAX;
  const MemoLine* line = nullptr;
  MemoLine fresh;  // the memo line to compute on a miss
  {
    // Shared, not exclusive: the edit reaches the raw list only at the
    // swap below. The lock keeps RegisterSigma from moving the entry.
    std::shared_lock<std::shared_mutex> lock(sigma_mu_);
    if (id >= sigmas_.size()) {
      return Status::InvalidArgument("unknown sigma id");
    }
    const SigmaEntry& entry = sigmas_[id];
    if (!add) {
      auto it = std::find(entry.raw.begin(), entry.raw.end(), cfd);
      if (it == entry.raw.end()) {  // sigma unchanged
        return Status::NotFound("CFD is not registered in this sigma set");
      }
      erase = static_cast<size_t>(it - entry.raw.begin());
    }
    prev = entry.state;
    const EditedList list{entry.raw, erase, add ? &cfd : nullptr};

    std::vector<bool> seen(catalog_.num_relations(), false);
    for (size_t i = 0; i < entry.raw.size(); ++i) {
      const RelationId r = entry.raw[i].relation;
      if (i != erase && !seen[r]) {
        seen[r] = true;
        order.push_back(r);
      }
    }
    if (add && !seen[relation]) order.push_back(relation);
    // The memo key is the edited relation's group, in order.
    uint64_t hash = SplitMix64(relation);
    size_t size = 0;
    list.ForEachOf(relation, [&](const CFD& c) {
      hash = SplitMix64(hash ^ CFDHash{}(c));
      ++size;
      return true;
    });
    line = FindMemoLine(relation, hash, size, list);
    if (line == nullptr && size > 0) {
      fresh.relation = relation;
      fresh.hash = hash;
      fresh.raw.reserve(size);
      list.ForEachOf(relation, [&](const CFD& c) {
        fresh.raw.push_back(c);
        return true;
      });
    }
  }
  // The new state shares every group but `relation`'s with `prev`;
  // that one is the memo's, a fresh one, or none when it was emptied.
  std::vector<std::shared_ptr<const Group>> groups = prev->groups;
  groups[relation] = nullptr;
  if (line != nullptr) {
    stats_.RecordSigmaMemoHit();
    groups[relation] = line->group;
  } else if (!fresh.raw.empty()) {
    // Re-minimize OUTSIDE sigma_mu_ — MinCover is the expensive step, and
    // serving must only ever block on the O(1) state swap below. A
    // failure leaves sigma unchanged.
    CFDPROP_ASSIGN_OR_RETURN(fresh.group, MinimizeGroup(relation, fresh.raw));
    groups[relation] = fresh.group;
    InsertMemoLine(std::move(fresh));
  }
  stats_.SetSigmaMemoLines(memo_.size());
  std::shared_ptr<const SigmaState> state =
      MakeState(std::move(groups), order);

  const SigmaVersion old = prev->version;
  bool old_live = false;
  CFD retracted;
  {
    // Re-index instead of holding a reference across the compute:
    // RegisterSigma may have grown (reallocated) the vector meanwhile.
    std::unique_lock<std::shared_mutex> lock(sigma_mu_);
    SigmaEntry& entry = sigmas_[id];
    // The edit lands in place; the superseded state and the retracted
    // CFD are freed when they go out of scope, after the lock.
    if (add) {
      entry.raw.push_back(std::move(cfd));
    } else {
      retracted = std::move(entry.raw[erase]);
      entry.raw.erase(entry.raw.begin() + static_cast<ptrdiff_t>(erase));
    }
    entry.state.swap(state);
    for (const SigmaEntry& e : sigmas_) old_live |= e.state->version == old;
  }
  // Lookups for this set now ask for the new version, so dropping the
  // old version's lines outside the lock only reclaims capacity — and
  // touches no line of any other version. Unchanged content keeps its
  // lines, and so does content another registered set still serves.
  if (!old_live) cache_.EraseVersion(old);
  stats_.RecordMutation();
  return Status::OK();
}

Status Engine::AddCfd(SigmaId id, CFD cfd) {
  if (cfd.relation >= catalog_.num_relations()) {
    return Status::InvalidArgument("source CFD with unknown relation");
  }
  CFDPROP_RETURN_NOT_OK(
      cfd.Validate(catalog_.relation(cfd.relation).arity()));
  return MutateSigma(id, std::move(cfd), /*add=*/true);
}

Status Engine::RetractCfd(SigmaId id, const CFD& cfd) {
  return MutateSigma(id, cfd, /*add=*/false);
}

size_t Engine::num_sigmas() const {
  std::shared_lock<std::shared_mutex> lock(sigma_mu_);
  return sigmas_.size();
}

std::shared_ptr<const Engine::SigmaState> Engine::sigma_state(
    SigmaId id) const {
  std::shared_lock<std::shared_mutex> lock(sigma_mu_);
  return id < sigmas_.size() ? sigmas_[id].state : nullptr;
}

std::shared_ptr<const std::vector<CFD>> Engine::sigma(SigmaId id) const {
  const std::shared_ptr<const SigmaState> state = sigma_state(id);
  std::call_once(state->flat_once, [&] {
    for (RelationId r : state->view.order()) {
      const std::span<const CFD> group = state->view.group(r);
      state->flat.insert(state->flat.end(), group.begin(), group.end());
    }
  });
  return {state, &state->flat};
}

std::vector<CFD> Engine::sigma_raw(SigmaId id) const {
  std::shared_lock<std::shared_mutex> lock(sigma_mu_);
  return sigmas_[id].raw;
}

SigmaVersion Engine::sigma_version(SigmaId id) const {
  return sigma_state(id)->version;
}

Result<EngineResult> Engine::Serve(const SPCView& view, SigmaId sigma_id) {
  const std::shared_ptr<const SigmaState> sigma = sigma_state(sigma_id);
  if (sigma == nullptr) return Status::InvalidArgument("unknown sigma id");
  const SigmaVersion& version = sigma->version;

  const auto start = Clock::now();
  EngineResult result;
  RequestFingerprint fp = FingerprintRequestPair(catalog_, view, version.key);
  result.fingerprint = fp.key;
  result.timing.fingerprint_us = MicrosSince(start);

  if (auto cached = cache_.Lookup(fp.key, fp.check, version)) {
    result.cover = std::move(cached);
    result.cache_hit = true;
    result.timing.total_us = MicrosSince(start);
    stats_.Record(result.timing, /*error=*/false);
    return result;
  }

  const auto compute_start = Clock::now();
  auto computed =
      PropagationCoverSPC(catalog_, view, sigma->view, options_.cover);
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
  if (!cached->truncated) {
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
  const std::shared_ptr<const SigmaState> sigma = sigma_state(sigma_id);
  if (sigma == nullptr) return Status::InvalidArgument("unknown sigma id");
  const SigmaVersion& version = sigma->version;

  const auto start = Clock::now();
  EngineResult result;
  result.disjunct_count = view.disjuncts.size();
  UnionFingerprint ufp =
      FingerprintUnionRequestPair(catalog_, view, version.key);
  result.fingerprint = ufp.fused.key;
  result.timing.fingerprint_us = MicrosSince(start);

  if (auto cached = cache_.Lookup(ufp.fused.key, ufp.fused.check, version)) {
    result.cover = std::move(cached);
    result.cache_hit = true;
    result.disjunct_hits = result.disjunct_count;
    result.timing.total_us = MicrosSince(start);
    stats_.Record(result.timing, /*error=*/false);
    stats_.RecordUnion(result.disjunct_count, 0);
    return result;
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
  std::vector<PropCoverResult> per_disjunct;
  per_disjunct.reserve(view.disjuncts.size());
  for (size_t j = 0; j < view.disjuncts.size(); ++j) {
    const RequestFingerprint& dfp = ufp.disjuncts[j];
    if (auto hit = cache_.Lookup(dfp.key, dfp.check, version)) {
      ++result.disjunct_hits;
      PropCoverResult r;
      r.cover = hit->cover;  // copy: the assembly consumes its inputs
      r.always_empty = hit->always_empty;
      r.truncated = hit->truncated;
      per_disjunct.push_back(std::move(r));
      continue;
    }
    auto computed = PropagationCoverSPC(catalog_, view.disjuncts[j],
                                        sigma->view, options_.cover);
    if (!computed.ok()) {
      result.timing.compute_us = MicrosSince(compute_start);
      result.timing.total_us = MicrosSince(start);
      stats_.Record(result.timing, /*error=*/true);
      stats_.RecordUnion(result.disjunct_hits,
                         view.disjuncts.size() - result.disjunct_hits);
      return computed.status();
    }
    if (!computed->truncated) {
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

  auto assembled = AssembleUnionCover(catalog_, view, sigma->view,
                                      std::move(per_disjunct), options_.cover);
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
  if (!cached->truncated) {
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
  // actually achieved (cfdprop_batch_parallel_efficiency).
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
  for (const SigmaEntry& e : sigmas_) live.push_back(e.state->version);
  return live;
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
