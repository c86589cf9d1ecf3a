// CatalogService unit tests: tenant registry lifecycle (spec opens and
// view-name serving included), global-budget splitting, async
// submission (futures + callbacks), and the snapshot policy (warm
// starts, background spills, drop/shutdown flushes). The
// cross-checking of service results against direct per-engine serving
// lives in service_differential_test.cc.

#include "src/service/catalog_service.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <latch>
#include <thread>

#include "src/cfd/cfd.h"
#include "src/obs/exporter.h"
#include "src/parser/parser.h"

namespace cfdprop {
namespace {

Catalog MakeCatalog() {
  Catalog cat;
  EXPECT_TRUE(cat.AddRelation("R", {"A", "B", "C", "D"}).ok());
  return cat;
}

std::vector<CFD> MakeSigma() {
  return {CFD::FD(0, {0}, 1).value(),   // R: A -> B
          CFD::FD(0, {1}, 2).value()};  // R: B -> C
}

/// pi(A, C) from R, optionally selecting D = d_const.
SPCView MakeView(Catalog& cat, const char* d_const = nullptr) {
  SPCViewBuilder b(cat);
  size_t r = b.AddAtom(0);
  if (d_const != nullptr) EXPECT_TRUE(b.SelectConst(r, "D", d_const).ok());
  EXPECT_TRUE(b.Project(r, "A").ok());
  EXPECT_TRUE(b.Project(r, "C").ok());
  auto v = b.Build();
  EXPECT_TRUE(v.ok());
  return *v;
}

/// A fresh per-test snapshot directory.
std::string MakeSnapshotDir(const char* name) {
  std::string dir = ::testing::TempDir() + "cfdprop_service_" + name + "_" +
                    std::to_string(::getpid());
  // An earlier process with the same pid may have left snapshots here;
  // they would warm-start the tenant and turn the expected misses into
  // hits.
  std::filesystem::remove_all(dir);
  mkdir(dir.c_str(), 0755);
  return dir;
}

TEST(ServiceTest, OpenResolveDropLifecycle) {
  CatalogService service{ServiceOptions{}};
  auto t1 = service.OpenCatalog("acme", MakeCatalog(), {MakeSigma()});
  ASSERT_TRUE(t1.ok()) << t1.status();
  auto t2 = service.OpenCatalog("globex", MakeCatalog(), {MakeSigma()});
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(service.num_tenants(), 2u);
  EXPECT_EQ(service.TenantNames(),
            (std::vector<std::string>{"acme", "globex"}));

  auto resolved = service.ResolveCatalog("acme");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->get(), t1->get());
  EXPECT_FALSE(service.ResolveCatalog("nope").ok());

  // Duplicate and malformed names are rejected — including duplicates
  // that only differ by case, which would share one snapshot file on a
  // case-insensitive filesystem.
  EXPECT_FALSE(service.OpenCatalog("acme", MakeCatalog()).ok());
  EXPECT_FALSE(service.OpenCatalog("ACME", MakeCatalog()).ok());
  EXPECT_EQ(service.OpenCatalog("acme", MakeCatalog()).status().message(),
            "tenant 'acme' is already open");
  EXPECT_NE(service.OpenCatalog("ACME", MakeCatalog())
                .status()
                .message()
                .find("collides with open tenant 'acme' (names are "
                      "case-folded"),
            std::string::npos);
  EXPECT_FALSE(service.OpenCatalog("", MakeCatalog()).ok());
  EXPECT_FALSE(service.OpenCatalog(std::string(101, 'x'), MakeCatalog()).ok())
      << "over-long names would exceed NAME_MAX as snapshot files";
  EXPECT_FALSE(service.OpenCatalog("a/b", MakeCatalog()).ok());
  EXPECT_FALSE(service.OpenCatalog(".hidden", MakeCatalog()).ok());
  EXPECT_FALSE(service.OpenCatalog("..", MakeCatalog()).ok());

  EXPECT_TRUE(service.DropCatalog("acme").ok());
  EXPECT_FALSE(service.ResolveCatalog("acme").ok());
  EXPECT_FALSE(service.DropCatalog("acme").ok()) << "double drop";
  EXPECT_EQ(service.num_tenants(), 1u);

  // The held handle (and its engine) outlives the drop.
  SPCView view = MakeView((*t1)->engine().catalog());
  EXPECT_TRUE((*t1)->engine().Propagate(view, 0).ok());
}

TEST(ServiceTest, OpenSpecKeepsTheViewsThatServeByName) {
  constexpr char kText[] = R"(
relation R(A, B, C, D)
cfd R: [A] -> B
cfd R: [B] -> C
view AC = pi(0.A as A, 0.C as C) from(R)
)";
  auto parse = [&] {
    auto spec = ParseSpec(kText);
    EXPECT_TRUE(spec.ok()) << spec.status();
    return std::move(spec).value();
  };
  ServiceOptions options;
  options.engine.num_threads = 1;  // the repeated view hits in order
  CatalogService service(options);
  auto tenant = service.OpenSpec("t", parse(), kText);
  ASSERT_TRUE(tenant.ok()) << tenant.status();
  EXPECT_EQ((*tenant)->spec().view_names, std::vector<std::string>{"AC"});

  // Same text: the live tenant, not a rebuild. Different text, or no
  // text to compare: InvalidArgument.
  auto same = service.OpenSpec("t", parse(), kText);
  ASSERT_TRUE(same.ok()) << same.status();
  EXPECT_EQ(same->get(), tenant->get());
  auto changed = service.OpenSpec("t", parse(), std::string(kText) + "#\n");
  EXPECT_EQ(changed.status().message(),
            "tenant 't' is already open with a different spec");
  EXPECT_EQ(service.OpenSpec("t", parse()).status().code(),
            StatusCode::kInvalidArgument);

  // Names resolve against the spec's views, served on Σ 0 (the spec's
  // source CFDs); an unknown name fails its own batch only.
  auto served = service.ServeViewBatches(*tenant, {{"AC", "AC"}, {"Nope"}});
  ASSERT_EQ(served.size(), 2u);
  ASSERT_TRUE(served[0].status.ok()) << served[0].status;
  ASSERT_EQ(served[0].results.size(), 2u);
  ASSERT_TRUE(served[0].results[0].ok());
  EXPECT_FALSE(served[0].results[0]->cache_hit);
  EXPECT_TRUE(served[0].results[1]->cache_hit);
  EXPECT_EQ(served[1].status.code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Stats().tenants[0].admitted, 1u);

  // A bare catalog has no views: each batch fails with NotFound.
  auto bare = service.OpenCatalog("bare", MakeCatalog(), {MakeSigma()});
  ASSERT_TRUE(bare.ok());
  auto unnamed = service.ServeViewBatches(*bare, {{"AC"}});
  ASSERT_EQ(unnamed.size(), 1u);
  EXPECT_EQ(unnamed[0].status.code(), StatusCode::kNotFound);
}

TEST(ServiceTest, BudgetSplitsAndRebalances) {
  ServiceOptions options;
  options.global_cache_budget = 120;
  options.engine.cache_shards = 1;  // exact budgets: no shard rounding
  CatalogService service(options);

  auto t1 = service.OpenCatalog("a", MakeCatalog(), {MakeSigma()});
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ((*t1)->cache_budget(), 120u);
  EXPECT_EQ((*t1)->engine().cache_capacity(), 120u);

  auto t2 = service.OpenCatalog("b", MakeCatalog(), {MakeSigma()});
  auto t3 = service.OpenCatalog("c", MakeCatalog(), {MakeSigma()});
  ASSERT_TRUE(t2.ok() && t3.ok());
  EXPECT_EQ((*t1)->cache_budget(), 40u);
  EXPECT_EQ((*t2)->cache_budget(), 40u);
  EXPECT_EQ((*t3)->cache_budget(), 40u);
  EXPECT_EQ((*t1)->engine().cache_capacity(), 40u);

  ASSERT_TRUE(service.DropCatalog("b").ok());
  EXPECT_EQ((*t1)->cache_budget(), 60u);
  EXPECT_EQ((*t3)->cache_budget(), 60u);

  ServiceStatsSnapshot stats = service.Stats();
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[0].name, "a");
  EXPECT_EQ(stats.tenants[0].cache_budget, 60u);
  EXPECT_EQ(stats.global_cache_budget, 120u);
}

TEST(ServiceTest, SubmitBatchFutureResolvesInRequestOrder) {
  ServiceOptions options;
  // Inline per-engine serving: within one batch the repeat of request 0
  // is then guaranteed to run after it, making the hit deterministic.
  options.engine.num_threads = 1;
  CatalogService service(options);
  auto tenant = service.OpenCatalog("t", MakeCatalog(), {MakeSigma()});
  ASSERT_TRUE(tenant.ok());
  Catalog& cat = (*tenant)->engine().catalog();
  std::vector<Engine::Request> requests;
  for (const char* d : {"1", "2", "3", "1"}) {
    requests.push_back({MakeView(cat, d), 0});
  }

  auto submitted = service.SubmitBatch("t", requests);
  ASSERT_TRUE(submitted.ok()) << submitted.status();
  BatchReply reply = submitted->get();
  EXPECT_EQ(reply.tenant, "t");
  EXPECT_EQ(reply.sequence, 0u);
  ASSERT_EQ(reply.results.size(), 4u);
  for (const auto& r : reply.results) ASSERT_TRUE(r.ok()) << r.status();
  // requests[3] repeats requests[0]: same fingerprint, a cache hit.
  EXPECT_EQ(reply.results[0]->fingerprint, reply.results[3]->fingerprint);
  EXPECT_NE(reply.results[0]->fingerprint, reply.results[1]->fingerprint);
  EXPECT_TRUE(reply.results[3]->cache_hit);

  auto again = service.SubmitBatch("t", std::move(requests));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get().sequence, 1u);

  EXPECT_FALSE(service.SubmitBatch("unknown", {}).ok());
}

TEST(ServiceTest, SubmitBatchCallbackOverload) {
  CatalogService service{ServiceOptions{}};
  auto tenant = service.OpenCatalog("t", MakeCatalog(), {MakeSigma()});
  ASSERT_TRUE(tenant.ok());
  std::vector<Engine::Request> requests{
      {MakeView((*tenant)->engine().catalog()), 0}};

  std::promise<BatchReply> delivered;
  ASSERT_TRUE(service
                  .SubmitBatch("t", std::move(requests),
                               [&](BatchReply reply) {
                                 delivered.set_value(std::move(reply));
                               })
                  .ok());
  BatchReply reply = delivered.get_future().get();
  EXPECT_EQ(reply.tenant, "t");
  ASSERT_EQ(reply.results.size(), 1u);
  EXPECT_TRUE(reply.results[0].ok());

  EXPECT_FALSE(service.SubmitBatch("t", {}, nullptr).ok());
}

TEST(ServiceTest, OverlappingBatchesAllResolve) {
  ServiceOptions options;
  options.dispatcher_threads = 4;
  CatalogService service(options);
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_TRUE(service.OpenCatalog(name, MakeCatalog(), {MakeSigma()}).ok());
  }
  std::vector<std::future<BatchReply>> futures;
  for (int round = 0; round < 5; ++round) {
    for (const char* name : {"a", "b", "c"}) {
      auto tenant = service.ResolveCatalog(name);
      ASSERT_TRUE(tenant.ok());
      std::vector<Engine::Request> requests{
          {MakeView((*tenant)->engine().catalog(), "7"), 0}};
      auto submitted = service.SubmitBatch(name, std::move(requests));
      ASSERT_TRUE(submitted.ok());
      futures.push_back(std::move(submitted).value());
    }
  }
  for (auto& f : futures) {
    BatchReply reply = f.get();
    ASSERT_EQ(reply.results.size(), 1u);
    EXPECT_TRUE(reply.results[0].ok());
  }
  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.batches_submitted, 15u);
  EXPECT_EQ(stats.batches_completed, 15u);
  // A tenant's 5 identical single-request batches may overlap across
  // dispatchers, so several can miss concurrently — but a batch that
  // starts after any other completed must hit, and every request is
  // accounted for.
  for (const TenantStatsSnapshot& t : stats.tenants) {
    EXPECT_EQ(t.admitted, 5u);
    EXPECT_EQ(t.engine.cache.hits + t.engine.cache.misses, 5u) << t.name;
    EXPECT_GE(t.engine.cache.hits, 1u) << t.name;
    EXPECT_GE(t.engine.cache.misses, 1u) << t.name;
  }
}

TEST(ServiceTest, DropFlushesAndReopenWarmStarts) {
  const std::string dir = MakeSnapshotDir("drop_flush");
  ServiceOptions options;
  options.snapshot_dir = dir;  // policy interval 0: no background thread
  // The background-policy bar must not gate the drop/shutdown flushes:
  // even far below this threshold, a computed cover survives the drop.
  options.policy.dirty_line_threshold = 1000;
  CatalogService service(options);

  auto opened = service.OpenCatalog("t", MakeCatalog(), {MakeSigma()});
  ASSERT_TRUE(opened.ok());
  SPCView view = MakeView((*opened)->engine().catalog(), "9");
  auto cold = (*opened)->engine().Propagate(view, 0);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->cache_hit);
  ASSERT_TRUE(service.DropCatalog("t").ok());

  // Reopen: the drop's flush must warm-start the tenant — the very
  // first request is already a hit, byte-identical to the cold compute.
  auto reopened = service.OpenCatalog("t", MakeCatalog(), {MakeSigma()});
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->engine().Stats().cache.restored, 1u);
  SPCView view2 = MakeView((*reopened)->engine().catalog(), "9");
  auto warm = (*reopened)->engine().Propagate(view2, 0);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->cover->cover, cold->cover->cover);
}

TEST(ServiceTest, CorruptMigrationBytesOpenColdWithTheReason) {
  CatalogService service;
  auto source = service.OpenCatalog("src", MakeCatalog(), {MakeSigma()});
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE((*source)->engine().Propagate(
      MakeView((*source)->engine().catalog()), 0).ok());
  auto exported = service.ExportTenantSnapshot("src");
  ASSERT_TRUE(exported.ok()) << exported.status();
  ASSERT_EQ(exported->lines, 1u);
  EXPECT_TRUE((*source)->snapshot_rejection().ok());

  // A spec over the source's catalog and Σ, opened from shipped bytes.
  auto open_from = [&](const char* name, std::string_view bytes) {
    Spec spec;
    spec.catalog = MakeCatalog();
    spec.source_cfds = MakeSigma();
    return service.OpenSpec(name, std::move(spec), {}, bytes);
  };
  // The intact bytes restore their line and record no rejection.
  auto intact = open_from("intact", exported->bytes);
  ASSERT_TRUE(intact.ok()) << intact.status();
  EXPECT_TRUE((*intact)->snapshot_rejection().ok());
  EXPECT_EQ((*intact)->engine().Stats().cache.restored, 1u);

  // One flipped payload byte fails the checksum: the tenant still
  // opens, cold, and keeps the reason.
  std::string corrupt = exported->bytes;
  corrupt[corrupt.size() / 2] ^= 0x40;
  auto cold = open_from("cold", corrupt);
  ASSERT_TRUE(cold.ok()) << cold.status();
  const Status& rejection = (*cold)->snapshot_rejection();
  EXPECT_EQ(rejection.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejection.message().find("checksum"), std::string::npos)
      << rejection.message();
  EXPECT_EQ((*cold)->engine().Stats().cache.restored, 0u);
  auto miss = (*cold)->engine().Propagate(
      MakeView((*cold)->engine().catalog()), 0);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->cache_hit);

  for (const TenantStatsSnapshot& t : service.Stats().tenants) {
    EXPECT_EQ(t.snapshot_rejected, t.name == "cold" ? 1u : 0u) << t.name;
  }
}

TEST(ServiceTest, ShutdownFlushesDirtyTenants) {
  const std::string dir = MakeSnapshotDir("shutdown_flush");
  std::vector<CFD> cold_cover;
  {
    ServiceOptions options;
    options.snapshot_dir = dir;
    CatalogService service(options);
    auto opened = service.OpenCatalog("t", MakeCatalog(), {MakeSigma()});
    ASSERT_TRUE(opened.ok());
    auto cold = (*opened)->engine().Propagate(
        MakeView((*opened)->engine().catalog()), 0);
    ASSERT_TRUE(cold.ok());
    cold_cover = cold->cover->cover;
  }  // destructor flush
  ServiceOptions options;
  options.snapshot_dir = dir;
  CatalogService service(options);
  auto reopened = service.OpenCatalog("t", MakeCatalog(), {MakeSigma()});
  ASSERT_TRUE(reopened.ok());
  auto warm = (*reopened)->engine().Propagate(
      MakeView((*reopened)->engine().catalog()), 0);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->cover->cover, cold_cover);
}

TEST(ServiceTest, BackgroundPolicySpillsDirtyTenant) {
  const std::string dir = MakeSnapshotDir("policy");
  ServiceOptions options;
  options.snapshot_dir = dir;
  options.policy.interval = std::chrono::milliseconds(5);
  options.policy.dirty_line_threshold = 1;
  CatalogService service(options);
  auto opened = service.OpenCatalog("t", MakeCatalog(), {MakeSigma()});
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE((*opened)
                  ->engine()
                  .Propagate(MakeView((*opened)->engine().catalog()), 0)
                  .ok());

  // The cache changed, so within a few intervals the policy thread must
  // spill — and once clean, it must not keep spilling.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  uint64_t policy_spills = 0;
  while (policy_spills == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    policy_spills = service.Stats().tenants.at(0).policy_spills;
    if (policy_spills == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_GE(policy_spills, 1u);
  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.tenants.at(0).dirty_lines, 0u);
  EXPECT_EQ(stats.tenants.at(0).last_spill_lines, 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_EQ(service.Stats().tenants.at(0).policy_spills, policy_spills)
      << "a clean tenant must not be re-spilled";
}

TEST(ServiceTest, SpillTenantRequiresSnapshotDir) {
  CatalogService service{ServiceOptions{}};
  ASSERT_TRUE(service.OpenCatalog("t", MakeCatalog(), {MakeSigma()}).ok());
  EXPECT_FALSE(service.SpillTenant("t").ok());
}

TEST(ServiceTest, AdmissionRejectsDeterministicallyOverTheCap) {
  ServiceOptions options;
  options.dispatcher_threads = 1;
  options.engine.num_threads = 1;
  options.admission.max_inflight_batches = 1;
  options.admission.max_queued_batches = 2;
  CatalogService service(options);
  auto tenant = service.OpenCatalog("t", MakeCatalog(), {MakeSigma()});
  ASSERT_TRUE(tenant.ok());
  std::vector<Engine::Request> round = {
      {MakeView((*tenant)->engine().catalog()), 0}};

  // Occupy the only dispatcher: the callback holds the running slot (a
  // batch is in flight until its reply is delivered) until released, so
  // every decision below is a pure function of the caps.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> entered;
  ASSERT_TRUE(service
                  .SubmitBatch("t", round,
                               [&, released](BatchReply) {
                                 entered.set_value();
                                 released.wait();
                               })
                  .ok());
  entered.get_future().wait();

  // Running 1 + queued 0..1 stays under 1 + 2; the third queued submit
  // crosses the bound and must be the typed, deterministic rejection.
  auto q1 = service.SubmitBatch("t", round);
  auto q2 = service.SubmitBatch("t", round);
  auto q3 = service.SubmitBatch("t", round);
  EXPECT_TRUE(q1.ok());
  EXPECT_TRUE(q2.ok());
  ASSERT_FALSE(q3.ok());
  EXPECT_EQ(q3.status().code(), StatusCode::kResourceExhausted);

  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.tenants.at(0).admitted, 3u);
  EXPECT_EQ(stats.tenants.at(0).admission_rejected, 1u);
  EXPECT_EQ(stats.tenants.at(0).running, 1u);
  EXPECT_EQ(stats.tenants.at(0).queued, 2u);
  EXPECT_EQ(stats.batches_rejected, 1u);

  release.set_value();
  EXPECT_EQ(q1->get().results.size(), 1u);
  EXPECT_EQ(q2->get().results.size(), 1u);
}

TEST(ServiceTest, BurstAdmissionIsAtomicAndDispatchIsRoundRobin) {
  ServiceOptions options;
  options.dispatcher_threads = 1;
  options.engine.num_threads = 1;
  options.admission.max_inflight_batches = 1;
  options.admission.max_queued_batches = 1;
  CatalogService service(options);
  auto ta = service.OpenCatalog("a", MakeCatalog(), {MakeSigma()});
  auto tb = service.OpenCatalog("b", MakeCatalog(), {MakeSigma()});
  ASSERT_TRUE(ta.ok() && tb.ok());
  std::vector<Engine::Request> round_a = {
      {MakeView((*ta)->engine().catalog()), 0}};
  std::vector<Engine::Request> round_b = {
      {MakeView((*tb)->engine().catalog()), 0}};

  // Park the dispatcher on tenant a, then interleave queued work: the
  // burst below decides all four admissions under one lock, so exactly
  // cap-many (1 running + 1 queued, minus the one already running) are
  // admitted no matter how fast batches would complete.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::promise<void> entered;
  std::mutex order_mu;
  std::vector<std::string> completion_order;
  ASSERT_TRUE(service
                  .SubmitBatch("a", round_a,
                               [&, released](BatchReply) {
                                 entered.set_value();
                                 released.wait();
                               })
                  .ok());
  entered.get_future().wait();

  auto burst = service.SubmitBatches(
      "a", {round_a, round_a, round_a, round_a});
  ASSERT_EQ(burst.size(), 4u);
  EXPECT_TRUE(burst[0].ok()) << "fills the queued slot";
  EXPECT_FALSE(burst[1].ok());
  EXPECT_FALSE(burst[2].ok());
  EXPECT_FALSE(burst[3].ok());
  EXPECT_EQ(burst[1].status().code(), StatusCode::kResourceExhausted);

  // Tenant b is idle, so its submissions are admitted regardless of a's
  // saturation — and the single dispatcher alternates tenants (round
  // robin from the cursor, which rests on "a") once released.
  auto log = [&](const char* name) {
    return [&, name](BatchReply) {
      std::lock_guard<std::mutex> lock(order_mu);
      completion_order.emplace_back(name);
    };
  };
  ASSERT_TRUE(service.SubmitBatch("b", round_b, log("b1")).ok());
  ASSERT_TRUE(service.SubmitBatch("b", round_b, log("b2")).ok());

  release.set_value();
  // Drain: both tenants' queues empty once every callback ran.
  for (;;) {
    ServiceStatsSnapshot stats = service.Stats();
    uint64_t left = 0;
    for (const auto& t : stats.tenants) left += t.queued + t.running;
    if (left == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    std::lock_guard<std::mutex> lock(order_mu);
    // Cursor sat on "a" when the blocker finished: b1 first, then a's
    // queued burst survivor, then b2.
    EXPECT_EQ(completion_order,
              (std::vector<std::string>{"b1", "b2"}));
  }
  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.tenants.at(0).admitted, 2u);            // blocker + burst[0]
  EXPECT_EQ(stats.tenants.at(0).admission_rejected, 3u);
  EXPECT_EQ(stats.tenants.at(1).admitted, 2u);
  EXPECT_EQ(stats.tenants.at(1).admission_rejected, 0u);
}

TEST(ServiceTest, ServeBatchesCallerRespectsTheRunningBound) {
  ServiceOptions options;
  options.dispatcher_threads = 1;
  options.engine.num_threads = 1;
  CatalogService service(options);
  auto ta = service.OpenCatalog("a", MakeCatalog(), {MakeSigma()});
  auto tb = service.OpenCatalog("b", MakeCatalog(), {MakeSigma()});
  ASSERT_TRUE(ta.ok() && tb.ok());
  std::vector<Engine::Request> round_a = {
      {MakeView((*ta)->engine().catalog()), 0}};
  std::vector<Engine::Request> round_b = {
      {MakeView((*tb)->engine().catalog()), 0}};

  // The blocker's callback holds the only running slot until `open`
  // counts down.
  std::latch entered(1);
  std::latch open(1);
  ASSERT_TRUE(service
                  .SubmitBatch("a", round_a,
                               [&](BatchReply) {
                                 entered.count_down();
                                 open.wait();
                               })
                  .ok());
  entered.wait();

  std::atomic<bool> returned{false};
  std::vector<BatchReply> served;
  std::thread caller([&] {
    served = service.ServeBatches(*tb, {round_b, round_b});
    returned.store(true);
  });
  // The gauge every runner moves, read the way a scrape reads it.
  auto running = [&](const char* tenant) {
    auto parsed = obs::ParseMetricsText(service.RenderMetricsText());
    EXPECT_TRUE(parsed.ok()) << parsed.status();
    if (!parsed.ok()) return -1.0;
    return parsed->Value(std::string("cfdprop_running_batches{tenant=\"") +
                         tenant + "\"}");
  };
  // Both of b's batches are admitted in one lock hold; wait for that by
  // polling the counter, not the clock.
  while (service.Stats().tenants.at(1).admitted < 2) {
    EXPECT_LE(running("a") + running("b"), 1.0);
    std::this_thread::yield();
  }
  // With the slot held neither the caller nor the dispatcher may start a
  // batch of b: both stay queued, b's engine serves nothing and the
  // caller stays inside ServeBatches.
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(running("a"), 1.0);
    EXPECT_EQ(running("b"), 0.0);
    ServiceStatsSnapshot stats = service.Stats();
    EXPECT_EQ(stats.tenants.at(1).queued, 2u);
    EXPECT_EQ(stats.tenants.at(1).engine.requests, 0u);
    EXPECT_FALSE(returned.load());
  }

  open.count_down();
  caller.join();
  ASSERT_EQ(served.size(), 2u);
  for (size_t i = 0; i < served.size(); ++i) {
    EXPECT_TRUE(served[i].status.ok()) << served[i].status;
    EXPECT_EQ(served[i].tenant, "b");
    EXPECT_EQ(served[i].sequence, i);
    ASSERT_EQ(served[i].results.size(), 1u);
    EXPECT_TRUE(served[i].results[0].ok());
  }
  ASSERT_TRUE(service.DrainTenant("a", std::chrono::milliseconds(0)).ok());
  EXPECT_EQ(running("a"), 0.0);
  EXPECT_EQ(running("b"), 0.0);
  EXPECT_EQ(service.Stats().batches_completed, 3u);
}

TEST(ServiceTest, MixedSubmittersResolveEveryAdmittedBatchOnce) {
  ServiceOptions options;
  options.dispatcher_threads = 2;
  options.engine.num_threads = 1;
  options.admission.max_inflight_batches = 1;
  options.admission.max_queued_batches = 2;
  CatalogService service(options);
  const std::vector<std::string> names = {"a", "b", "c"};
  std::vector<std::vector<Engine::Request>> rounds;
  std::vector<TenantHandle> handles;
  for (const std::string& name : names) {
    auto tenant = service.OpenCatalog(name, MakeCatalog(), {MakeSigma()});
    ASSERT_TRUE(tenant.ok());
    handles.push_back(*tenant);
    Catalog& cat = (*tenant)->engine().catalog();
    rounds.push_back({{MakeView(cat, "7"), 0}, {MakeView(cat), 0}});
  }

  // Every delivered reply, by tenant: its sequence number.
  std::mutex seen_mu;
  std::vector<std::vector<uint64_t>> seen(names.size());
  auto record = [&](size_t t, const BatchReply& reply) {
    EXPECT_EQ(reply.tenant, names[t]);
    EXPECT_EQ(reply.results.size(), rounds[t].size());
    std::lock_guard<std::mutex> lock(seen_mu);
    seen[t].push_back(reply.sequence);
  };
  auto expect_rejected = [](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << status;
  };

  constexpr size_t kRounds = 40;
  std::vector<std::thread> threads;
  // Synchronous callers, one per tenant, each serving two-batch frames.
  for (size_t t = 0; t < names.size(); ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kRounds; ++i) {
        for (const BatchReply& reply :
             service.ServeBatches(handles[t], {rounds[t], rounds[t]})) {
          if (reply.status.ok()) {
            record(t, reply);
          } else {
            expect_rejected(reply.status);
          }
        }
      }
    });
  }
  // Async bursts across the tenants; their futures are read only after
  // the drain below.
  std::vector<std::pair<size_t, std::future<BatchReply>>> futures;
  threads.emplace_back([&] {
    for (size_t i = 0; i < kRounds; ++i) {
      const size_t t = i % names.size();
      for (auto& slot : service.SubmitBatches(names[t], {rounds[t], rounds[t]})) {
        if (slot.ok()) {
          futures.emplace_back(t, std::move(slot).value());
        } else {
          expect_rejected(slot.status());
        }
      }
    }
  });
  // Callback jobs across the tenants.
  threads.emplace_back([&] {
    for (size_t i = 0; i < kRounds; ++i) {
      const size_t t = (i + 1) % names.size();
      Status submitted = service.SubmitBatch(
          names[t], rounds[t], [&, t](BatchReply reply) { record(t, reply); });
      if (!submitted.ok()) expect_rejected(submitted);
    }
  });
  for (std::thread& thread : threads) thread.join();

  for (const std::string& name : names) {
    EXPECT_TRUE(service.DrainTenant(name, std::chrono::milliseconds(0)).ok());
  }
  for (auto& [t, future] : futures) record(t, future.get());

  ServiceStatsSnapshot stats = service.Stats();
  uint64_t admitted = 0;
  for (size_t t = 0; t < names.size(); ++t) {
    const TenantStatsSnapshot& ts = stats.tenants.at(t);
    EXPECT_EQ(ts.queued + ts.running, 0u) << names[t];
    EXPECT_GT(ts.admitted, 0u) << names[t];
    admitted += ts.admitted;
    // Exactly once, with no gaps: the delivered sequences are 0..n-1.
    std::vector<uint64_t> sequences = seen[t];
    std::sort(sequences.begin(), sequences.end());
    std::vector<uint64_t> expected(ts.admitted);
    for (uint64_t k = 0; k < ts.admitted; ++k) expected[k] = k;
    EXPECT_EQ(sequences, expected) << names[t];
  }
  EXPECT_EQ(stats.batches_submitted, admitted);
  EXPECT_EQ(stats.batches_completed, admitted);
}

}  // namespace
}  // namespace cfdprop
