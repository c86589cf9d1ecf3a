// Router-tier suite: the CoverRouter's consistent-hash placement, the
// RemoteBackend reconnect-and-reopen fix, and live tenant migration —
// byte-identical covers across the move, and only covers of a legal Σ
// content under churn.

#include "src/net/cover_router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/cfd/cfd.h"
#include "src/engine/snapshot.h"
#include "src/net/cover_backend.h"
#include "src/obs/exporter.h"
#include "src/net/cover_server.h"
#include "src/parser/parser.h"
#include "src/service/catalog_service.h"

namespace cfdprop {
namespace net {
namespace {

/// The loopback suite's demo spec (tests embed their inputs).
constexpr char kDemoSpec[] = R"(
relation T(region, cust, tier, rep)
relation P(sku, region, price)

cfd T: [region] -> rep
cfd T: [tier] -> rep
cfd P: [sku, region] -> price

view ByRegion = pi("r" as tag, 0.region as region, 0.rep as rep) from(T)
view GoldReps = pi("g" as tag, 0.cust as cust, 0.rep as rep) sigma(0.tier = "gold") from(T)
view Pricing  = pi(0.sku as sku, 0.region as region, 0.price as price) sigma(0.region = "emea") from(P)

union AllReps = ByRegion, GoldReps

serve ByRegion, GoldReps, Pricing, AllReps, ByRegion
)";

ServiceOptions DeterministicOptions() {
  ServiceOptions options;
  options.engine.num_threads = 1;
  return options;
}

/// One shard: a service and its loopback server.
struct ShardFixture {
  ShardFixture() : service(DeterministicOptions()), server(service) {
    EXPECT_TRUE(server.Start().ok());
  }
  ~ShardFixture() { server.Stop(); }
  CatalogService service;
  CoverServer server;
};

/// A router over `n` fresh loopback shards.
struct ClusterFixture {
  explicit ClusterFixture(size_t n) {
    CoverRouterOptions ropts;
    for (size_t i = 0; i < n; ++i) {
      shards.push_back(std::make_unique<ShardFixture>());
      CoverClientOptions copts;
      copts.port = shards.back()->server.port();
      ropts.shards.push_back(copts);
    }
    router = std::make_unique<CoverRouter>(std::move(ropts));
  }
  std::vector<std::unique_ptr<ShardFixture>> shards;
  std::unique_ptr<CoverRouter> router;
};

TEST(CoverRouterTest, RingPlacementIsDeterministicAndCoversEveryShard) {
  // Placement is a pure function of the shard count — two routers over
  // equal shard lists agree on every tenant, connections never made.
  CoverRouterOptions a_opts, b_opts;
  a_opts.shards.resize(3);
  b_opts.shards.resize(3);
  CoverRouter a(a_opts), b(b_opts);
  std::set<size_t> used;
  for (int i = 0; i < 200; ++i) {
    const std::string tenant = "tenant" + std::to_string(i);
    const size_t shard = a.ShardFor(tenant);
    EXPECT_EQ(shard, b.ShardFor(tenant)) << tenant;
    ASSERT_LT(shard, 3u);
    used.insert(shard);
  }
  EXPECT_EQ(used.size(), 3u) << "200 tenants should touch every shard";
}

TEST(CoverRouterTest, MigrationMarkBouncesSubmitsAndOverridesFlipRoutes) {
  CoverRouterOptions opts;
  opts.shards.resize(3);
  CoverRouter router(opts);
  Catalog scratch;

  const std::string tenant = "eu";
  const size_t home = router.ShardFor(tenant);
  ASSERT_TRUE(router.BeginMigration(tenant).ok());
  // Second begin is refused — one move at a time.
  EXPECT_EQ(router.BeginMigration(tenant).code(), StatusCode::kUnavailable);
  // Mid-flight submits fail fast with the typed retry signal, before
  // any socket is touched.
  auto bounced = router.SubmitBatches(tenant, {{"ByRegion"}}, scratch.pool());
  ASSERT_FALSE(bounced.ok());
  EXPECT_EQ(bounced.status().code(), StatusCode::kUnavailable);
  // The route itself is unchanged until the flip.
  EXPECT_EQ(router.ShardFor(tenant), home);

  const size_t target = (home + 1) % 3;
  ASSERT_TRUE(router.CompleteMigration(tenant, target).ok());
  EXPECT_EQ(router.ShardFor(tenant), target);

  // An abort keeps the (now overridden) route and clears the mark.
  ASSERT_TRUE(router.BeginMigration(tenant).ok());
  router.AbortMigration(tenant);
  EXPECT_EQ(router.ShardFor(tenant), target);

  // Flipping back to the ring placement erases the override.
  ASSERT_TRUE(router.CompleteMigration(tenant, home).ok());
  EXPECT_EQ(router.ShardFor(tenant), home);

  EXPECT_EQ(router.CompleteMigration(tenant, 99).code(),
            StatusCode::kInvalidArgument);
}

TEST(RemoteBackendTest, ReconnectReopensCatalogsAfterServerRestart) {
  auto shard = std::make_unique<ShardFixture>();
  const uint16_t port = shard->server.port();

  CoverClientOptions copts;
  copts.port = port;
  copts.connect_timeout = std::chrono::milliseconds(10000);
  RemoteBackend backend(copts);
  ASSERT_TRUE(backend.OpenCatalog("eu", kDemoSpec).ok());

  auto client_spec = ParseSpec(kDemoSpec);
  ASSERT_TRUE(client_spec.ok());
  ValuePool& pool = client_spec->catalog.pool();
  const std::vector<std::string> round = client_spec->ServingRound();

  auto first = backend.SubmitBatch("eu", round, pool);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->status.ok());

  // A plain dropped connection (socket deadline, flaky link): the next
  // call reconnects and still serves.
  backend.CloseConnection();
  ASSERT_FALSE(backend.connected());
  auto after_drop = backend.SubmitBatch("eu", round, pool);
  ASSERT_TRUE(after_drop.ok()) << after_drop.status();
  ASSERT_TRUE(after_drop->status.ok());

  // The hard case — the historical bug: the server process restarts
  // (fresh service, no catalogs) on the same port. A backend that never
  // opened the tenant gets NotFound on every submit, because the
  // open-catalog state died with the old server.
  shard.reset();
  CatalogService fresh_service(DeterministicOptions());
  CoverServerOptions sopts;
  sopts.port = port;
  CoverServer fresh_server(fresh_service, sopts);
  ASSERT_TRUE(fresh_server.Start().ok());

  RemoteBackend raw(copts);
  ASSERT_TRUE(raw.Connect().ok());
  Catalog raw_scratch;
  auto lost = raw.SubmitBatch("eu", round, raw_scratch.pool());
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kNotFound)
      << "fresh server has no catalogs";

  // RemoteBackend replays its catalog opens on reconnect, so the same
  // round keeps serving across the restart.
  backend.CloseConnection();
  auto after_restart = backend.SubmitBatch("eu", round, pool);
  ASSERT_TRUE(after_restart.ok()) << after_restart.status();
  ASSERT_TRUE(after_restart->status.ok());
  for (const auto& r : after_restart->results) ASSERT_TRUE(r.ok());

  fresh_server.Stop();
}

/// After a server restart another client opens `t` with other text
/// before this backend reconnects. The refused replay of `t` must fail
/// only the calls that name `t`, with the server's refusal: `u` keeps
/// serving on the same connection, and a successful explicit open of
/// `t` clears the refusal.
TEST(RemoteBackendTest, RefusedReplayFailsOnlyItsTenant) {
  auto shard = std::make_unique<ShardFixture>();
  const uint16_t port = shard->server.port();
  CoverClientOptions copts;
  copts.port = port;
  RemoteBackend a(copts);
  ASSERT_TRUE(a.OpenCatalog("t", kDemoSpec).ok());
  ASSERT_TRUE(a.OpenCatalog("u", kDemoSpec).ok());

  auto client_spec = ParseSpec(kDemoSpec);
  ASSERT_TRUE(client_spec.ok());
  ValuePool& pool = client_spec->catalog.pool();
  const std::vector<std::string> round = client_spec->ServingRound();

  shard.reset();
  CatalogService fresh_service(DeterministicOptions());
  CoverServerOptions sopts;
  sopts.port = port;
  CoverServer fresh_server(fresh_service, sopts);
  ASSERT_TRUE(fresh_server.Start().ok());
  RemoteBackend b(copts);
  ASSERT_TRUE(b.OpenCatalog("t", std::string(kDemoSpec) + "\n# b\n").ok());

  a.CloseConnection();
  auto u = a.SubmitBatch("u", round, pool);
  ASSERT_TRUE(u.ok()) << u.status();
  EXPECT_TRUE(u->status.ok());
  auto t = a.SubmitBatch("t", round, pool);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("already open with a different spec"),
            std::string::npos)
      << t.status();
  EXPECT_TRUE(a.connected());
  auto u_again = a.SubmitBatch("u", round, pool);
  ASSERT_TRUE(u_again.ok()) << u_again.status();
  EXPECT_TRUE(u_again->status.ok());

  // An open the server refuses again keeps the refusal; once `b` drops
  // `t`, the explicit open succeeds and clears it.
  EXPECT_EQ(a.OpenCatalog("t", kDemoSpec).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(a.SubmitBatch("t", round, pool).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(b.DropCatalog("t").ok());
  ASSERT_TRUE(a.OpenCatalog("t", kDemoSpec).ok());
  auto t_again = a.SubmitBatch("t", round, pool);
  ASSERT_TRUE(t_again.ok()) << t_again.status();
  EXPECT_TRUE(t_again->status.ok());
  fresh_server.Stop();
}

TEST(CoverRouterTest, LiveMigrationKeepsCoversByteIdenticalAndWarm) {
  ClusterFixture cluster(3);
  CoverRouter& router = *cluster.router;

  ASSERT_TRUE(router.OpenCatalog("eu", kDemoSpec).ok());
  const size_t src = router.ShardFor("eu");

  auto client_spec = ParseSpec(kDemoSpec);
  ASSERT_TRUE(client_spec.ok());
  ValuePool& pool = client_spec->catalog.pool();
  const std::vector<std::string> round = client_spec->ServingRound();

  // Serve twice: the cold round fills the source cache, the second is
  // the all-hits reference. (cache_hit travels in the reply encoding,
  // and the migrated round is all-hits too — warm compares to warm.)
  auto cold = router.SubmitBatches("eu", {round}, pool);
  ASSERT_TRUE(cold.ok()) << cold.status();
  ASSERT_TRUE(cold->front().status.ok());
  auto before = router.SubmitBatches("eu", {round}, pool);
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_TRUE(before->front().status.ok());

  // Misuse is typed before any bytes move.
  EXPECT_EQ(router.MigrateTenant("eu", src).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(router.MigrateTenant("eu", 99).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(router.MigrateTenant("ghost", (src + 1) % 3).status().code(),
            StatusCode::kUnsupported)
      << "no spec text recorded for a tenant the router never opened";

  const size_t dst = (src + 1) % 3;
  auto report = router.MigrateTenant("eu", dst);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->from, src);
  EXPECT_EQ(report->to, dst);
  EXPECT_GT(report->snapshot_bytes, 0u);
  EXPECT_GT(report->restored, 0u)
      << "the served covers should cross inside the snapshot";
  EXPECT_EQ(router.ShardFor("eu"), dst);

  // The source copy is retired...
  EXPECT_EQ(cluster.shards[src]->service.ResolveCatalog("eu").status().code(),
            StatusCode::kNotFound);
  // ...and the target serves the same round byte-identically — *warm*:
  // every request hits the migrated cache lines.
  auto after = router.SubmitBatches("eu", {round}, pool);
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_TRUE(after->front().status.ok());
  EXPECT_EQ(EncodeSubmitBatchReply(Status::OK(), {after->front()}, pool),
            EncodeSubmitBatchReply(Status::OK(), {before->front()}, pool));
  for (size_t i = 0; i < after->front().results.size(); ++i) {
    const auto& r = after->front().results[i];
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->cache_hit) << "request " << i << " should be warm";
  }

  // Metrics merge every shard's families into one scrape: a shard's
  // series are distinguished by the injected shard="N" label, family
  // headers appear once, and the whole output round-trips through the
  // exposition parser like any single server's scrape.
  auto metrics = router.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->find("# --- shard"), std::string::npos);
  auto parsed = obs::ParseMetricsText(*metrics);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // The cluster sees the tenant exactly once, and its serving counters
  // live on its new shard.
  EXPECT_DOUBLE_EQ(parsed->Sum("cfdprop_tenants"), 1.0);
  const std::string to_str = std::to_string(dst);
  EXPECT_TRUE(parsed->Has("cfdprop_requests_total{shard=\"" + to_str +
                          "\",tenant=\"eu\"}"));
  // Every shard exposes the service-level scalar exactly once, shard-
  // labeled; the family header is not repeated per shard.
  for (size_t shard = 0; shard < router.num_shards(); ++shard) {
    EXPECT_TRUE(parsed->Has("cfdprop_tenants{shard=\"" +
                            std::to_string(shard) + "\"}"));
  }
  const std::string type_header = "# TYPE cfdprop_tenants gauge";
  const size_t first = metrics->find(type_header);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(metrics->find(type_header, first + 1), std::string::npos);
  // The router's own tier counters close the scrape, unlabeled.
  EXPECT_EQ(parsed->Value("cfdprop_router_migrations_total"), 1.0);
  EXPECT_GE(parsed->Value("cfdprop_router_batches_routed_total"), 1.0);
}

TEST(CoverRouterTest, MigrationUnderChurnServesOnlyLegalGenerations) {
  ClusterFixture cluster(2);
  CoverRouter& router = *cluster.router;

  ASSERT_TRUE(router.OpenCatalog("eu", kDemoSpec).ok());
  const size_t src = router.ShardFor("eu");
  const size_t dst = 1 - src;

  auto client_spec = ParseSpec(kDemoSpec);
  ASSERT_TRUE(client_spec.ok());

  // Serves one GoldReps request and hashes the served cover's *content*
  // (pool-independent), not its request fingerprint — which only says
  // which Σ version the cover answers, not what the cover is.
  auto serve_one = [&](ValuePool& pool) -> Result<uint64_t> {
    auto batch = router.SubmitBatches("eu", {{"GoldReps"}}, pool);
    if (!batch.ok()) return batch.status();
    if (!batch->front().status.ok()) return batch->front().status;
    if (!batch->front().results.front().ok()) {
      return batch->front().results.front().status();
    }
    return FingerprintSigmaSet(pool,
                               batch->front().results.front()->cover->cover);
  };

  // The two legal covers: the base cover (spec's Σ0), and the
  // churned cover after [rep] -> cust joins Σ0 on the source. (The FD
  // must not be implied by the base cover: sigma(tier = "gold") turns
  // [tier] -> rep into a constant-LHS FD on rep, which would subsume
  // anything with rep on the right.) The churn is NOT in the spec text,
  // so the migrated target — re-opened from text — is back on the base
  // Σ version and the churned snapshot lines are rejected at warm
  // start.
  auto fp_base = serve_one(client_spec->catalog.pool());
  ASSERT_TRUE(fp_base.ok()) << fp_base.status();
  auto handle = cluster.shards[src]->service.ResolveCatalog("eu");
  ASSERT_TRUE(handle.ok());
  const CFD churn = CFD::FD(0, {3}, 1).value();  // T: [rep] -> cust
  ASSERT_TRUE((*handle)->engine().AddCfd(0, churn).ok());
  auto fp_churned = serve_one(client_spec->catalog.pool());
  ASSERT_TRUE(fp_churned.ok());
  ASSERT_NE(*fp_base, *fp_churned)
      << "[rep] -> cust must propagate into GoldReps(cust, rep)";

  // A client hammering the tenant while it migrates: typed kUnavailable
  // is the only acceptable hiccup (and is retried); anything else is a
  // failed submit. Every served cover must be one of the two legal
  // covers.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0}, unavailable_retries{0}, failures{0};
  std::atomic<uint64_t> illegal{0};
  std::thread hammer([&] {
    auto worker_spec = ParseSpec(kDemoSpec);
    if (!worker_spec.ok()) {  // no gtest fatals off the main thread
      failures.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    while (!stop.load(std::memory_order_relaxed)) {
      auto fp = serve_one(worker_spec->catalog.pool());
      if (fp.ok()) {
        served.fetch_add(1, std::memory_order_relaxed);
        if (*fp != *fp_base && *fp != *fp_churned) {
          illegal.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (fp.status().code() == StatusCode::kUnavailable) {
        unavailable_retries.fetch_add(1, std::memory_order_relaxed);
      } else {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto report = router.MigrateTenant("eu", dst);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  stop.store(true);
  hammer.join();
  ASSERT_TRUE(report.ok()) << report.status();

  EXPECT_EQ(failures.load(), 0u)
      << "a migration must not fail submits (kUnavailable + retry only)";
  EXPECT_EQ(illegal.load(), 0u)
      << "every served cover is one of the two legal covers";
  EXPECT_GT(served.load(), 0u);

  // After the flip: the target re-opened from spec text serves the base
  // Σ version, and the churned snapshot lines were rejected.
  auto fp_after = serve_one(client_spec->catalog.pool());
  ASSERT_TRUE(fp_after.ok()) << fp_after.status();
  EXPECT_EQ(*fp_after, *fp_base);
  EXPECT_GT(report->rejected, 0u)
      << "churned-Σ lines cannot warm-start a base-Σ tenant";
}

}  // namespace
}  // namespace net
}  // namespace cfdprop
