// Tracer suite: the span ring's drop-on-full invariant under concurrent
// writers, counter-based sampling exactness, deterministic-seed
// byte-identical dumps, slow-request capture semantics, and — the
// acceptance criterion — a routed 3-shard loopback run whose sampled
// requests stitch into complete span trees with verified parent
// linkage at every hop.

#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/net/cover_router.h"
#include "src/net/cover_server.h"
#include "src/schema/schema.h"
#include "src/service/catalog_service.h"

namespace cfdprop {
namespace obs {
namespace {

TEST(SpanRingTest, ConcurrentWritersPreserveTheDropInvariant) {
  // 4 threads x 20k spans into a ring far too small to hold them. The
  // fetch_add slot claim means every append is either retained in a
  // uniquely-owned slot or counted as dropped — never lost, never torn.
  constexpr size_t kCapacity = 1024;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  SpanRing ring(kCapacity);

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ring, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        ring.Append(/*trace_id=*/1, /*span_id=*/2 + i,
                    /*parent_id=*/1, "stress", /*start_us=*/i,
                    /*dur_us=*/7, "tenant", static_cast<int32_t>(t), {});
      }
    });
  }
  for (auto& w : writers) w.join();

  std::vector<SpanRecord> retained;
  ring.Snapshot(&retained, /*slow=*/false);

  EXPECT_EQ(ring.recorded(), kThreads * kPerThread);
  EXPECT_EQ(retained.size(), kCapacity);
  // The invariant, exactly: dropped + retained == recorded.
  EXPECT_EQ(ring.dropped() + retained.size(), ring.recorded());
  // Every retained span is fully published (no torn slot observed).
  for (const SpanRecord& span : retained) {
    EXPECT_EQ(span.trace_id, 1u);
    EXPECT_GE(span.span_id, 2u);
    EXPECT_EQ(span.name, "stress");
    EXPECT_EQ(span.tenant, "tenant");
    EXPECT_EQ(span.dur_us, 7u);
  }
}

TEST(SpanRingTest, SnapshotTruncatesInlineStringsCleanly) {
  SpanRing ring(4);
  const std::string long_name(64, 'n');
  const std::string long_tenant(64, 't');
  const std::string long_annot(64, 'a');
  ASSERT_TRUE(ring.Append(1, 2, 0, long_name, 0, 0, long_tenant, -1,
                          long_annot));
  std::vector<SpanRecord> out;
  ring.Snapshot(&out, false);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].name, long_name.substr(0, SpanRing::kNameBytes - 1));
  EXPECT_EQ(out[0].tenant, long_tenant.substr(0, SpanRing::kTenantBytes - 1));
  EXPECT_EQ(out[0].annot, long_annot.substr(0, SpanRing::kAnnotBytes - 1));

  // Default-constructed views carry a null data(): copying zero bytes
  // from one must still be well defined (UBSan checks memcpy's args).
  ASSERT_TRUE(ring.Append(1, 3, 0, std::string_view{}, 0, 0,
                          std::string_view{}, -1, std::string_view{}));
  std::vector<SpanRecord> both;
  ring.Snapshot(&both, false);
  ASSERT_EQ(both.size(), 2u);
  EXPECT_EQ(both[1].name, "");
  EXPECT_EQ(both[1].tenant, "");
  EXPECT_EQ(both[1].annot, "");
}

TEST(TracerTest, CounterBasedSamplingIsExact) {
  // shift=3 -> exactly 1 in 8, the first trace always included, and
  // every trace id non-zero and distinct.
  ObsOptions options;
  options.trace_sample_shift = 3;
  options.trace_seed = 42;
  Tracer tracer(options);

  int sampled = 0;
  std::set<uint64_t> ids;
  for (int i = 0; i < 80; ++i) {
    TraceContext ctx = tracer.StartTrace();
    EXPECT_NE(ctx.trace_id, 0u);
    ids.insert(ctx.trace_id);
    if (i == 0) EXPECT_TRUE(ctx.sampled);
    if (ctx.sampled) ++sampled;
  }
  EXPECT_EQ(sampled, 10);
  EXPECT_EQ(ids.size(), 80u);

  // shift=0 samples everything; negative shift samples nothing.
  ObsOptions all;
  all.trace_sample_shift = 0;
  Tracer always(all);
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(always.StartTrace().sampled);

  ObsOptions none;
  none.trace_sample_shift = -1;
  Tracer never(none);
  for (int i = 0; i < 16; ++i) EXPECT_FALSE(never.StartTrace().sampled);
}

/// Drives one fixed span sequence through a tracer: a two-trace set
/// with nesting, annotations, and an edge record.
std::string DumpFixedSequence(uint64_t seed) {
  ObsOptions options;
  options.trace_sample_shift = 0;
  options.trace_seed = seed;
  uint64_t fake_now = 1000;
  options.clock = [&fake_now] { return fake_now += 10; };
  Tracer tracer(options);

  for (int t = 0; t < 2; ++t) {
    TraceContext ctx = tracer.StartTrace();
    const uint64_t root = tracer.NewSpanId();
    const uint64_t start = tracer.NowUs();
    const uint64_t child = tracer.NewSpanId();
    tracer.Record(ctx, child, root, "compute", tracer.NowUs(), 5, "eu",
                  /*shard=*/1, "hits=4,misses=1");
    ctx.parent_span_id = 0;
    tracer.RecordEdge(ctx, root, "request", start, tracer.NowUs() - start,
                      "eu");
  }
  return FormatSpanTrees(tracer.Snapshot());
}

TEST(TracerTest, EqualSeedsProduceByteIdenticalDumps) {
  const std::string a = DumpFixedSequence(0xfeedbeef);
  const std::string b = DumpFixedSequence(0xfeedbeef);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("compute"), std::string::npos);
  EXPECT_NE(a.find("annot=hits=4,misses=1"), std::string::npos);

  // A different seed draws from a different id stream.
  EXPECT_NE(a, DumpFixedSequence(0xdeadbeef));
}

TEST(TracerTest, DefaultSeedIsPerProcessNotShared) {
  // Two tracers with the default seed 0 must not hand out the same id
  // streams — they model distinct processes whose dumps get stitched.
  Tracer a, b;
  EXPECT_NE(a.StartTrace().trace_id, b.StartTrace().trace_id);
  EXPECT_NE(a.NewSpanId(), b.NewSpanId());
}

TEST(TracerTest, SlowRingCapturesUnsampledEdges) {
  // Sampling fully off, slow threshold 0: every edge crossing the
  // threshold is force-retained, sampled or not.
  ObsOptions options;
  options.trace_sample_shift = -1;
  options.slow_threshold_us = 0;
  options.trace_seed = 7;
  Tracer tracer(options);
  ASSERT_TRUE(tracer.slow_enabled());

  for (int i = 0; i < 3; ++i) {
    TraceContext ctx = tracer.StartTrace();
    ASSERT_FALSE(ctx.sampled);
    tracer.RecordEdge(ctx, tracer.NewSpanId(), "request", 100, 250,
                      i == 0 ? "eu" : "us");
  }
  EXPECT_EQ(tracer.slow_requests(), 3u);

  std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  for (const SpanRecord& span : spans) {
    EXPECT_TRUE(span.slow);
    EXPECT_EQ(span.name, "request");
    EXPECT_EQ(span.dur_us, 250u);
  }

  // The per-tenant counter surfaces in the metric families.
  bool found = false;
  for (const MetricFamilySamples& family : tracer.CollectFamilies()) {
    if (family.name != "cfdprop_slow_requests_total") continue;
    found = true;
    ASSERT_EQ(family.samples.size(), 2u);  // eu, us
    std::map<std::string, double> by_tenant;
    for (const auto& sample : family.samples) {
      for (const auto& [key, value] : sample.labels) {
        if (key == "tenant") by_tenant[value] = sample.value;
      }
    }
    EXPECT_EQ(by_tenant["eu"], 1.0);
    EXPECT_EQ(by_tenant["us"], 2.0);
  }
  EXPECT_TRUE(found);
}

TEST(TracerTest, BelowThresholdEdgesAreNotCaptured) {
  ObsOptions options;
  options.trace_sample_shift = -1;
  options.slow_threshold_us = 1000;
  Tracer tracer(options);
  TraceContext ctx = tracer.StartTrace();
  tracer.RecordEdge(ctx, tracer.NewSpanId(), "request", 0, 999, "eu");
  EXPECT_EQ(tracer.slow_requests(), 0u);
  EXPECT_TRUE(tracer.Snapshot().empty());
  tracer.RecordEdge(ctx, tracer.NewSpanId(), "request", 0, 1000, "eu");
  EXPECT_EQ(tracer.slow_requests(), 1u);
}

TEST(FormatSpanTreesTest, OrphanSpansRootTheirOwnSubtrees) {
  // A dump missing one process's ring (the parent span) still renders:
  // the orphan roots its own subtree instead of vanishing.
  std::vector<SpanRecord> spans;
  SpanRecord orphan;
  orphan.trace_id = 5;
  orphan.span_id = 9;
  orphan.parent_id = 1234;  // absent from the set
  orphan.name = "decode";
  spans.push_back(orphan);
  const std::string out = FormatSpanTrees(spans);
  EXPECT_NE(out.find("trace 0000000000000005 spans=1"), std::string::npos);
  EXPECT_NE(out.find("  decode id=0000000000000009"), std::string::npos);
}

// --------------------------------------------------------------------
// The acceptance criterion: a routed 3-shard loopback run produces a
// complete stitched span tree per sampled request — client rpc under
// router route, server decode/admission/queue_wait/dispatch/propagate/
// compute/reply/encode/write all linked to the same trace.
// --------------------------------------------------------------------

constexpr char kDemoSpec[] = R"(
relation T(region, cust, tier, rep)

cfd T: [region] -> rep
cfd T: [tier] -> rep

view ByRegion = pi("r" as tag, 0.region as region, 0.rep as rep) from(T)
view GoldReps = pi("g" as tag, 0.cust as cust, 0.rep as rep) sigma(0.tier = "gold") from(T)

serve ByRegion, GoldReps
)";

TEST(RoutedTraceTest, ThreeShardRunStitchesCompleteTrees) {
  // Everything in one process, so one installed tracer catches every
  // hop's spans: the router's edge, the client rpc, and the per-shard
  // server/service/engine stages (exactly what tests/cli/tracing_test.sh greps across
  // process boundaries via TRACE_DUMP).
  ObsOptions topts;
  topts.trace_sample_shift = 0;  // sample every request
  topts.trace_seed = 99;
  Tracer tracer(topts);
  ScopedProcessTracer scoped(&tracer);

  ServiceOptions sopts;
  sopts.engine.num_threads = 1;
  std::vector<std::unique_ptr<CatalogService>> services;
  std::vector<std::unique_ptr<net::CoverServer>> servers;
  net::CoverRouterOptions ropts;
  for (int i = 0; i < 3; ++i) {
    services.push_back(std::make_unique<CatalogService>(sopts));
    servers.push_back(std::make_unique<net::CoverServer>(*services.back()));
    ASSERT_TRUE(servers.back()->Start().ok());
    net::CoverClientOptions copts;
    copts.port = servers.back()->port();
    ropts.shards.push_back(copts);
  }
  net::CoverRouter router(std::move(ropts));

  // Spread tenants until at least two distinct shards serve traffic.
  std::set<size_t> shards_hit;
  std::vector<std::string> tenants;
  for (int i = 0; i < 16 && shards_hit.size() < 2; ++i) {
    const std::string tenant = "tenant" + std::to_string(i);
    shards_hit.insert(router.ShardFor(tenant));
    tenants.push_back(tenant);
  }
  ASSERT_GE(shards_hit.size(), 2u);

  Catalog scratch;
  std::set<uint64_t> trace_ids;
  for (const std::string& tenant : tenants) {
    ASSERT_TRUE(router.OpenCatalog(tenant, kDemoSpec).ok()) << tenant;
    auto results =
        router.SubmitBatches(tenant, {{"ByRegion", "GoldReps"}}, scratch.pool());
    ASSERT_TRUE(results.ok()) << results.status();
  }

  // The TRACE_DUMP wire path reads spans back while shards still serve,
  // stamped with the shard they were fetched from.
  auto dump = router.TraceDumpFrom(0);
  ASSERT_TRUE(dump.ok()) << dump.status();
  ASSERT_FALSE(dump->empty());
  for (const SpanRecord& span : *dump) {
    EXPECT_GE(span.shard, 0);
  }
  EXPECT_FALSE(router.TraceDumpFrom(17).ok());

  for (auto& server : servers) server->Stop();

  const std::vector<SpanRecord> spans = tracer.Snapshot();
  ASSERT_FALSE(spans.empty());

  // Regroup by trace and verify each submit's tree end to end.
  std::map<uint64_t, std::vector<const SpanRecord*>> traces;
  for (const SpanRecord& span : spans) traces[span.trace_id].push_back(&span);

  size_t complete_trees = 0;
  const std::set<std::string> kRequired = {
      "route",     "rpc",      "decode",    "admission", "queue_wait",
      "dispatch",  "propagate", "compute",  "reply",     "encode",
      "write"};
  for (const auto& [trace_id, members] : traces) {
    std::map<uint64_t, const SpanRecord*> by_id;
    std::set<std::string> names;
    for (const SpanRecord* span : members) {
      by_id.emplace(span->span_id, span);
      names.insert(span->name);
    }
    if (names.count("route") == 0) continue;  // an open/stats trace
    ++complete_trees;
    trace_ids.insert(trace_id);
    for (const std::string& name : kRequired) {
      EXPECT_EQ(names.count(name), 1u)
          << "trace " << trace_id << " missing span " << name;
    }
    const SpanRecord* route = nullptr;
    const SpanRecord* rpc = nullptr;
    for (const SpanRecord* span : members) {
      if (span->name == "route") route = span;
      if (span->name == "rpc") rpc = span;
    }
    ASSERT_NE(route, nullptr);
    ASSERT_NE(rpc, nullptr);
    // The route span is the root; the rpc span nests under it; every
    // other span's parent resolves inside the same trace — the full
    // parent linkage the dump stitches on.
    EXPECT_EQ(route->parent_id, 0u);
    EXPECT_EQ(rpc->parent_id, route->span_id);
    for (const SpanRecord* span : members) {
      if (span == route) continue;
      EXPECT_EQ(by_id.count(span->parent_id), 1u)
          << "span " << span->name << " in trace " << trace_id
          << " has an unresolvable parent";
    }
  }
  // One complete tree per submitted batch request.
  EXPECT_EQ(complete_trees, tenants.size());

  // The rendered form shows the same structure: one block per trace,
  // route at the root (depth-0 spans indent 2), rpc nested once under
  // it (depth 1 indents 4).
  const std::string rendered = FormatSpanTrees(spans);
  EXPECT_NE(rendered.find("\n  route id="), std::string::npos);
  EXPECT_NE(rendered.find("\n    rpc id="), std::string::npos);
}

TEST(RoutedTraceTest, MigrationRecordsAnAnnotatedSpan) {
  ObsOptions topts;
  topts.trace_sample_shift = 0;
  topts.trace_seed = 5;
  Tracer tracer(topts);
  ScopedProcessTracer scoped(&tracer);

  ServiceOptions sopts;
  sopts.engine.num_threads = 1;
  std::vector<std::unique_ptr<CatalogService>> services;
  std::vector<std::unique_ptr<net::CoverServer>> servers;
  net::CoverRouterOptions ropts;
  for (int i = 0; i < 2; ++i) {
    services.push_back(std::make_unique<CatalogService>(sopts));
    servers.push_back(std::make_unique<net::CoverServer>(*services.back()));
    ASSERT_TRUE(servers.back()->Start().ok());
    net::CoverClientOptions copts;
    copts.port = servers.back()->port();
    ropts.shards.push_back(copts);
  }
  net::CoverRouter router(std::move(ropts));

  const std::string tenant = "eu";
  ASSERT_TRUE(router.OpenCatalog(tenant, kDemoSpec).ok());
  const size_t home = router.ShardFor(tenant);
  const size_t target = (home + 1) % 2;
  ASSERT_TRUE(router.MigrateTenant(tenant, target).ok());
  for (auto& server : servers) server->Stop();

  bool saw_migrate = false;
  for (const SpanRecord& span : tracer.Snapshot()) {
    if (span.name != "migrate") continue;
    saw_migrate = true;
    EXPECT_EQ(span.tenant, tenant);
    const std::string expect_annot = "from=" + std::to_string(home) +
                                     " to=" + std::to_string(target);
    EXPECT_EQ(span.annot, expect_annot);
  }
  EXPECT_TRUE(saw_migrate);
}

}  // namespace
}  // namespace obs
}  // namespace cfdprop
