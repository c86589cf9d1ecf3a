// CoverRouter: the sharded routing tier — one CoverBackend in front of
// N CoverServer shards.
//
// Placement is a consistent-hash ring: every shard contributes
// `virtual_nodes` points (FNV-1a over "shard#replica"), a tenant lands
// on the first ring point clockwise of the hash of its name. Adding a
// shard therefore moves ~1/N of the tenants instead of rehashing the
// world, and the placement is a pure function of the shard list — every
// router over the same shards routes identically, no coordination.
//
// On top of the ring sits a per-tenant override map, which is what
// makes tenants *movable*: a live migration drains the tenant on its
// source shard, ships its cover cache as .ccsnap snapshot bytes over
// the wire, warm-starts the tenant on the target, then flips the
// override atomically. During the move the tenant is marked migrating
// and its submits fail fast with typed kUnavailable ("retry"), so a
// caller that retries sees zero failed submits — covers served before
// the flip come from the source shard's cache, after it from the target's
// warm-started cache, and nothing in between is lost or doubled.
//
// The full MigrateTenant orchestration needs the tenant's spec text
// (recorded at OpenCatalog) to re-open it on the target; tenants opened
// behind the router's back have none and get typed Unsupported. Callers
// whose specs exist only programmatically (the workload runner) use the
// decomposed steps — Begin/FetchSnapshotFrom/Complete/Abort — and
// warm-start the target themselves through the target shard's
// CatalogService::OpenSpec with the fetched snapshot bytes.
//
// Thread-safety: unlike the single-conversation backends, the router IS
// safe for concurrent callers — route state lives under one mutex and
// each shard's RemoteBackend (one conversation) is serialized by its
// own lock. Metrics() merges every shard's scrape.

#ifndef CFDPROP_NET_COVER_ROUTER_H_
#define CFDPROP_NET_COVER_ROUTER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/net/cover_backend.h"

namespace cfdprop {
namespace net {

struct CoverRouterOptions {
  /// One client config per shard; shard index = position in this list.
  std::vector<CoverClientOptions> shards;

  /// Ring points per shard. More points = smoother balance, slower ring
  /// build; 64 keeps the spread within a few percent for small N.
  size_t virtual_nodes = 64;
};

/// What a completed live migration did.
struct MigrationReport {
  size_t from = 0;
  size_t to = 0;
  /// The target's warm-start outcome: snapshot lines restored into its
  /// cache vs. rejected (a Σ version the target does not serve).
  uint64_t restored = 0;
  uint64_t rejected = 0;
  /// Size of the .ccsnap byte image that crossed the wire.
  uint64_t snapshot_bytes = 0;
};

class CoverRouter : public CoverBackend {
 public:
  explicit CoverRouter(CoverRouterOptions options);

  /// Routes to the tenant's shard and records the spec text so a later
  /// MigrateTenant can re-open the tenant on its target.
  Result<OpenCatalogReplyInfo> OpenCatalog(
      const std::string& tenant, const std::string& spec_text) override;

  /// Forwards to the tenant's shard. While the tenant is migrating the
  /// call fails fast with typed kUnavailable — retry after the flip.
  Result<std::vector<BatchResult>> SubmitBatches(
      const std::string& tenant,
      const std::vector<std::vector<std::string>>& batches,
      ValuePool& pool) override;

  /// One merged exposition: every shard's families are folded into a
  /// single family set with a `shard="N"` label injected as each
  /// series' first label (family help/type text comes from the first
  /// shard that exposes it; per-shard series order is preserved, shards
  /// in index order), followed by the router's own registry
  /// (cfdprop_router_* counters, no shard label — they belong to this
  /// tier). The output parses with obs::ParseMetricsText like any
  /// single server's scrape.
  Result<std::string> Metrics() override;

  /// One shard's span rings (see RemoteBackend::TraceDump), each record
  /// stamped with the shard index it came from — the raw material the
  /// client CLI stitches into cross-shard trees.
  Result<std::vector<obs::SpanRecord>> TraceDumpFrom(size_t shard);

  Status DropCatalog(const std::string& tenant) override;

  /// The whole migration in one call: mark migrating -> drain + fetch
  /// the snapshot from the source -> warm-start on `target_shard` ->
  /// flip the route -> drop the source copy. On any failure the
  /// migrating mark is cleared and the old route kept (the tenant keeps
  /// serving from the source). Unsupported when the router has no spec
  /// text for the tenant; InvalidArgument when `target_shard` is out of
  /// range or already the tenant's shard.
  Result<MigrationReport> MigrateTenant(const std::string& tenant,
                                        size_t target_shard);

  // Decomposed migration steps, for callers that must warm-start the
  // target themselves (specs with no text form).

  /// Marks the tenant migrating: its submits fail with kUnavailable
  /// until Complete/AbortMigration. Fails if already migrating.
  Status BeginMigration(const std::string& tenant);
  /// Flips the tenant's route to `shard` and clears the migrating mark.
  Status CompleteMigration(const std::string& tenant, size_t shard);
  /// Clears the migrating mark, keeping the old route.
  void AbortMigration(const std::string& tenant);

  /// Wire steps against an explicit shard (the shard's server drains
  /// the tenant before serializing).
  Result<std::string> FetchSnapshotFrom(size_t shard,
                                        const std::string& tenant);
  Status DropCatalogOn(size_t shard, const std::string& tenant);

  /// The shard currently serving `tenant` (override if one exists, ring
  /// placement otherwise).
  size_t ShardFor(const std::string& tenant) const;

  size_t num_shards() const { return shards_.size(); }

  /// Asks every shard's server to wind down; the first failure wins but
  /// every shard is still asked.
  Status ShutdownAll();

 private:
  /// Ring placement only (ignores overrides). Requires a built ring.
  size_t RingShardFor(const std::string& tenant) const;

  /// MigrateTenant's warm start: opens the tenant on `shard` (in range)
  /// from spec text plus the fetched snapshot bytes.
  Result<OpenCatalogReplyInfo> OpenFromSnapshotOn(size_t shard,
                                                  const std::string& tenant,
                                                  const std::string& spec_text,
                                                  std::string_view snapshot);

  /// Serialized access to one shard's single-conversation backend.
  template <typename Fn>
  auto WithShard(size_t shard, Fn&& fn) {
    std::lock_guard<std::mutex> lock(shards_[shard]->mu);
    return fn(shards_[shard]->backend);
  }

  struct Shard {
    explicit Shard(CoverClientOptions options)
        : backend(std::move(options)) {}
    std::mutex mu;
    RemoteBackend backend;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  /// (point, shard), sorted by point. Immutable after construction.
  std::vector<std::pair<uint64_t, size_t>> ring_;

  /// The router tier's own counters, rendered after the merged shard
  /// families in Metrics().
  obs::MetricsRegistry metrics_;
  obs::Counter* migrations_total_ = nullptr;   // completed MigrateTenant calls
  obs::Counter* batches_routed_ = nullptr;     // batches forwarded to a shard
  obs::Counter* submits_bounced_ = nullptr;    // submits refused mid-migration

  mutable std::mutex route_mu_;
  /// Tenants moved off their ring placement. Guarded by route_mu_.
  std::map<std::string, size_t> overrides_;
  /// Tenants mid-migration (submits bounce with kUnavailable).
  std::set<std::string> migrating_;
  /// Tenant -> spec text recorded at OpenCatalog, what MigrateTenant
  /// re-opens the tenant with on its target shard.
  std::map<std::string, std::string> spec_texts_;
};

}  // namespace net
}  // namespace cfdprop

#endif  // CFDPROP_NET_COVER_ROUTER_H_
