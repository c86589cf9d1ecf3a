// Sharded LRU cache mapping request fingerprints to propagation covers.
//
// The cache stores covers behind shared_ptr<const CachedCover>, so a hit
// hands out a reference that stays valid after the entry is evicted —
// readers never copy the cover and eviction never invalidates a result a
// request is still holding. Shards are locked independently (a
// fingerprint's shard is derived from its high bits), keeping the worker
// pool's lookups from serializing on one mutex.
//
// Entries additionally carry the SigmaVersion — the content version of
// the minimized Σ — the cover was computed against. Lookup compares it,
// so a cover is served only for the Σ content it answers: a stale
// in-flight insert that lands after Σ mutated is a miss for the new
// content (and ages out by LRU), and Σ sets with equal content share
// lines. EraseVersion drops every line of one version — the
// selective-invalidation primitive behind AddCfd/RetractCfd, which
// never needs a global Clear().

#ifndef CFDPROP_ENGINE_COVER_CACHE_H_
#define CFDPROP_ENGINE_COVER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/cfd/cfd.h"
#include "src/engine/snapshot.h"

namespace cfdprop {

/// A cached propagation cover: the PropCoverResult fields a repeated
/// request needs back.
struct CachedCover {
  std::vector<CFD> cover;
  bool always_empty = false;
  bool truncated = false;
};

/// Aggregated counters across all shards.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Entries dropped by EraseVersion (Σ mutation), not by LRU pressure.
  uint64_t invalidations = 0;
  /// Lines restored from / rejected by LoadSnapshotBytes (warm starts).
  uint64_t restored = 0;
  uint64_t rejected = 0;
  size_t entries = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

class CoverCache {
 public:
  /// `capacity` = total budget of cached covers, split evenly across
  /// `num_shards` shards (rounded down to a shard multiple — a budget
  /// is an upper bound — but each shard gets at least one slot).
  explicit CoverCache(size_t capacity, size_t num_shards = 8);

  CoverCache(const CoverCache&) = delete;
  CoverCache& operator=(const CoverCache&) = delete;

  /// Returns the cached cover and refreshes its LRU position, or nullptr
  /// on a miss. An entry whose stored check hash differs from `check`
  /// is a key collision between non-equivalent requests; an entry whose
  /// Σ version differs was computed against other Σ content. Both are
  /// treated as misses, so collisions and stale covers recompute
  /// instead of serving a wrong cover. Thread-safe.
  std::shared_ptr<const CachedCover> Lookup(uint64_t fingerprint,
                                            uint64_t check,
                                            SigmaVersion version = {});

  /// Inserts (or refreshes) an entry, evicting the shard's least
  /// recently used cover when the shard is full. An existing entry with
  /// a different check hash or Σ version is replaced (latest wins).
  /// Thread-safe.
  void Insert(uint64_t fingerprint, uint64_t check,
              std::shared_ptr<const CachedCover> cover,
              SigmaVersion version = {});

  /// Drops every entry computed against `version` (handed-out covers
  /// stay valid); returns how many were dropped. Lines of every other
  /// version are untouched: this is the selective invalidation used
  /// when one Σ mutates. Thread-safe.
  size_t EraseVersion(SigmaVersion version);

  /// Resizes the cache to `capacity` total entries (the shard count is
  /// fixed at construction; each shard keeps at least one slot, so the
  /// effective floor is num_shards() entries — a budget below that
  /// over-delivers, see capacity() for the honored value). A shrink
  /// evicts deterministically — shard 0..N-1 in order, each shard's
  /// least recently used entries first — so rebalancing tenant budgets
  /// at runtime always drops the same lines for the same access
  /// history. Handed-out covers stay valid. Returns how many entries
  /// were evicted (counted in `evictions`). Thread-safe.
  size_t SetBudget(size_t capacity);

  /// Drops every entry; hit/miss counters are preserved and the dropped
  /// entries count as `invalidations` (so dirtiness tracking built on
  /// the change counters registers an explicit clear).
  void Clear();

  /// Serializes every live line to snapshot bytes (src/engine/
  /// snapshot.h, checksum trailer included), with pattern constants
  /// exported as `pool` texts and each line carrying its Σ version.
  /// Thread-safe against concurrent serving. Implemented in snapshot.cc.
  SerializedSnapshot SerializeSnapshot(const ValuePool& pool) const;

  /// Restores snapshot bytes: validates magic, version and checksum (any
  /// failure rejects the whole snapshot), and inserts every line whose Σ
  /// version is in `live` (the versions the loading engine serves).
  /// Restored covers' constants are interned into `pool` lazily
  /// (remapping process-local Value ids); rejected lines never intern,
  /// so a mismatched snapshot leaves the pool untouched. Mismatched
  /// lines count as `rejected` and are dropped; they can never serve a
  /// stale cover. NOT thread-safe against serving (it interns into the
  /// shared pool); call before traffic. Implemented in snapshot.cc.
  Result<SnapshotLoadStats> LoadSnapshotBytes(
      std::string_view bytes, ValuePool& pool,
      const std::vector<SigmaVersion>& live);

  CacheStats Stats() const;

  size_t capacity() const {
    return per_shard_capacity_.load(std::memory_order_relaxed) *
           shards_.size();
  }
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    uint64_t fingerprint;
    uint64_t check;
    SigmaVersion version;
    std::shared_ptr<const CachedCover> cover;
  };
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<uint64_t, decltype(lru)::iterator> index;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
  };

  Shard& ShardFor(uint64_t fingerprint) {
    // High bits pick the shard; the map key keeps the full fingerprint.
    return *shards_[(fingerprint >> 56) % shards_.size()];
  }

  /// Atomic: Insert reads it under its own shard's lock only, while
  /// SetBudget rewrites it without holding every shard lock at once.
  std::atomic<size_t> per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// LoadSnapshotBytes outcomes; cache-global (not per shard) because a
  /// load happens once per process, not per lookup.
  std::atomic<uint64_t> restored_{0};
  std::atomic<uint64_t> rejected_{0};
};

}  // namespace cfdprop

#endif  // CFDPROP_ENGINE_COVER_CACHE_H_
