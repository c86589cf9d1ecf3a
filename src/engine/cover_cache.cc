#include "src/engine/cover_cache.h"

#include <algorithm>

namespace cfdprop {

CoverCache::CoverCache(size_t capacity, size_t num_shards) {
  // At most one shard per requested entry (so capacities below the
  // shard count are honored, not rounded up to one slot per shard), at
  // least one shard, and at most 256 — ShardFor selects by the key's
  // top byte, so shards past 256 could never be addressed.
  num_shards = std::clamp<size_t>(std::min(num_shards, capacity), 1, 256);
  // Round DOWN to a shard multiple (min 1 per shard): `capacity` is a
  // budget, i.e. an upper bound — a multi-tenant split that rounded up
  // would overshoot its global budget by up to shards-1 per tenant.
  per_shard_capacity_ = std::max<size_t>(1, capacity / num_shards);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::shared_ptr<const CachedCover> CoverCache::Lookup(uint64_t fingerprint,
                                                      uint64_t check,
                                                      SigmaVersion version) {
  Shard& shard = ShardFor(fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(fingerprint);
  if (it == shard.index.end() || it->second->check != check ||
      it->second->version != version) {
    // Absent, a key collision between non-equivalent requests, or a
    // cover computed against other Σ content: miss.
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->cover;
}

void CoverCache::Insert(uint64_t fingerprint, uint64_t check,
                        std::shared_ptr<const CachedCover> cover,
                        SigmaVersion version) {
  Shard& shard = ShardFor(fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(fingerprint);
  if (it != shard.index.end()) {
    // Concurrent compute of the same request keeps the first result
    // (the computation is deterministic, so both are equal). A key
    // collision or another Σ version: latest wins, so colliding
    // requests keep recomputing rather than one permanently shadowing
    // the other. Either way the cover is correct for its own version.
    if (it->second->check != check || it->second->version != version) {
      it->second->check = check;
      it->second->version = version;
      it->second->cover = std::move(cover);
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{fingerprint, check, version, std::move(cover)});
  shard.index.emplace(fingerprint, shard.lru.begin());
  ++shard.insertions;
  if (shard.lru.size() > per_shard_capacity_.load(std::memory_order_relaxed)) {
    shard.index.erase(shard.lru.back().fingerprint);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

size_t CoverCache::SetBudget(size_t capacity) {
  const size_t num_shards = shards_.size();
  // Same floor-to-shard-multiple policy as the constructor: a budget is
  // an upper bound, so never round it up.
  const size_t per_shard = std::max<size_t>(1, capacity / num_shards);
  per_shard_capacity_.store(per_shard, std::memory_order_relaxed);
  // Trim each shard to the bound just computed (not a re-load: racing
  // SetBudget calls each stay internally consistent), oldest first. A
  // concurrent Insert that lands between the store above and a shard's
  // trim enforces the new bound itself, so the cache can only
  // transiently exceed it.
  size_t evicted = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    while (shard->lru.size() > per_shard) {
      shard->index.erase(shard->lru.back().fingerprint);
      shard->lru.pop_back();
      ++shard->evictions;
      ++evicted;
    }
  }
  return evicted;
}

size_t CoverCache::EraseVersion(SigmaVersion version) {
  size_t erased = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (it->version != version) {
        ++it;
        continue;
      }
      shard->index.erase(it->fingerprint);
      it = shard->lru.erase(it);
      ++shard->invalidations;
      ++erased;
    }
  }
  return erased;
}

void CoverCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    // Counted as invalidations so content-change tracking (e.g. the
    // service's snapshot dirtiness) sees an explicit clear — otherwise
    // a stale snapshot of the cleared entries would look up to date.
    shard->invalidations += shard->lru.size();
    shard->lru.clear();
    shard->index.clear();
  }
}

CacheStats CoverCache::Stats() const {
  CacheStats out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.hits += shard->hits;
    out.misses += shard->misses;
    out.insertions += shard->insertions;
    out.evictions += shard->evictions;
    out.invalidations += shard->invalidations;
    out.entries += shard->lru.size();
  }
  out.restored = restored_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace cfdprop
