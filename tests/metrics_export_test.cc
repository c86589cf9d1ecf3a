// End-to-end metrics export: the in-process CatalogService render must
// agree exactly with the service's own stats snapshot (one registry
// snapshot per render — no torn reads), the METRICS wire frame must
// deliver the same exposition through CoverServer/RemoteBackend with the
// net-layer families added, and the reply codec must survive its own
// corruption checks.

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "src/net/cover_backend.h"
#include "src/net/cover_server.h"
#include "src/obs/exporter.h"
#include "src/parser/parser.h"
#include "src/service/catalog_service.h"

namespace cfdprop {
namespace {

constexpr char kSpecText[] = R"(
relation T(region, cust, tier, rep)

cfd T: [region] -> rep
cfd T: [tier] -> rep

view ByRegion = pi("r" as tag, 0.region as region, 0.rep as rep) from(T)
view GoldReps = pi("g" as tag, 0.cust as cust, 0.rep as rep) sigma(0.tier = "gold") from(T)

union AllReps = ByRegion, GoldReps

serve ByRegion, GoldReps, ByRegion
)";

ServiceOptions DeterministicOptions() {
  ServiceOptions options;
  options.engine.num_threads = 1;
  // One dispatcher: jobs run (and record their stages) strictly in
  // submission order, so stage counts observed after a future resolves
  // are deterministic.
  options.dispatcher_threads = 1;
  return options;
}

std::vector<Engine::Request> Round(const Spec& spec) {
  std::vector<Engine::Request> requests;
  for (const std::string& view : spec.ServingRound()) {
    requests.push_back({spec.views.at(view), 0});
  }
  return requests;
}

TEST(MetricsExportTest, ServiceRenderMatchesStatsSnapshot) {
  CatalogService service(DeterministicOptions());
  auto spec = ParseSpec(kSpecText);
  ASSERT_TRUE(spec.ok()) << spec.status();
  auto handle = service.OpenCatalog("hq", std::move(spec->catalog),
                                    {spec->source_cfds});
  ASSERT_TRUE(handle.ok()) << handle.status();

  // Two rounds: the repeated ByRegion and the warm second pass make
  // hits, misses and batch counts all nonzero and deterministic.
  for (int pass = 0; pass < 2; ++pass) {
    auto submitted = service.SubmitBatch("hq", Round(*spec));
    ASSERT_TRUE(submitted.ok()) << submitted.status();
    BatchReply reply = submitted->get();
    for (const auto& r : reply.results) ASSERT_TRUE(r.ok()) << r.status();
  }
  // One Σ mutation (it drops the old version's lines: invalidations),
  // then a union request (disjunct hits and misses) on the new Σ.
  ASSERT_TRUE((*handle)->engine().RetractCfd(0, spec->source_cfds[1]).ok());
  {
    auto submitted =
        service.SubmitBatch("hq", {{spec->views.at("AllReps"), 0}});
    ASSERT_TRUE(submitted.ok()) << submitted.status();
    BatchReply reply = submitted->get();
    for (const auto& r : reply.results) ASSERT_TRUE(r.ok()) << r.status();
  }

  ServiceStatsSnapshot stats = service.Stats();
  ASSERT_EQ(stats.tenants.size(), 1u);
  const TenantStatsSnapshot& hq = stats.tenants[0];
  ASSERT_EQ(hq.engine.sigma_mutations, 1u);
  ASSERT_EQ(hq.engine.union_requests, 1u);

  auto parsed = obs::ParseMetricsText(service.RenderMetricsText());
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  // Every exported scalar agrees with the stats snapshot it was
  // collected from.
  EXPECT_DOUBLE_EQ(parsed->Value("cfdprop_cache_hits_total{tenant=\"hq\"}"),
                   static_cast<double>(hq.engine.cache.hits));
  EXPECT_DOUBLE_EQ(parsed->Value("cfdprop_cache_misses_total{tenant=\"hq\"}"),
                   static_cast<double>(hq.engine.cache.misses));
  EXPECT_DOUBLE_EQ(parsed->Value("cfdprop_requests_total{tenant=\"hq\"}"),
                   static_cast<double>(hq.engine.requests));
  EXPECT_DOUBLE_EQ(parsed->Value("cfdprop_admitted_total{tenant=\"hq\"}"),
                   static_cast<double>(hq.admitted));
  EXPECT_DOUBLE_EQ(parsed->Value("cfdprop_batches_submitted_total"),
                   static_cast<double>(stats.batches_submitted));
  EXPECT_DOUBLE_EQ(parsed->Value("cfdprop_batches_completed_total"),
                   static_cast<double>(stats.batches_completed));
  EXPECT_DOUBLE_EQ(parsed->Value("cfdprop_tenants"), 1.0);
  // The series the CLI scenario tests read in place of a stats line.
  EXPECT_DOUBLE_EQ(
      parsed->Value("cfdprop_cache_invalidations_total{tenant=\"hq\"}"),
      static_cast<double>(hq.engine.cache.invalidations));
  EXPECT_DOUBLE_EQ(
      parsed->Value("cfdprop_cache_restored_total{tenant=\"hq\"}"),
      static_cast<double>(hq.engine.cache.restored));
  EXPECT_DOUBLE_EQ(
      parsed->Value("cfdprop_cache_rejected_total{tenant=\"hq\"}"),
      static_cast<double>(hq.engine.cache.rejected));
  EXPECT_DOUBLE_EQ(parsed->Value("cfdprop_cache_entries{tenant=\"hq\"}"),
                   static_cast<double>(hq.engine.cache.entries));
  EXPECT_DOUBLE_EQ(
      parsed->Value("cfdprop_sigma_mutations_total{tenant=\"hq\"}"),
      static_cast<double>(hq.engine.sigma_mutations));
  EXPECT_DOUBLE_EQ(
      parsed->Value("cfdprop_union_requests_total{tenant=\"hq\"}"),
      static_cast<double>(hq.engine.union_requests));
  EXPECT_DOUBLE_EQ(
      parsed->Value("cfdprop_disjunct_hits_total{tenant=\"hq\"}"),
      static_cast<double>(hq.engine.disjunct_hits));
  EXPECT_DOUBLE_EQ(
      parsed->Value("cfdprop_disjunct_misses_total{tenant=\"hq\"}"),
      static_cast<double>(hq.engine.disjunct_misses));
  EXPECT_DOUBLE_EQ(
      parsed->Value("cfdprop_batch_parallel_efficiency{tenant=\"hq\"}"),
      hq.engine.BatchParallelism());
  EXPECT_GT(hq.engine.cache.invalidations, 0u);
  EXPECT_GT(hq.engine.disjunct_misses, 0u);
  EXPECT_GT(hq.engine.BatchParallelism(), 0.0);
  EXPECT_GT(parsed->Value("cfdprop_cache_hits_total{tenant=\"hq\"}"), 0.0);
  EXPECT_GT(parsed->Value("cfdprop_cache_misses_total{tenant=\"hq\"}"), 0.0);

  // Request-latency histogram: one sample per request, +Inf bucket ==
  // _count, and the engine's own snapshot agrees.
  EXPECT_DOUBLE_EQ(
      parsed->Value("cfdprop_request_latency_us_count{tenant=\"hq\"}"),
      static_cast<double>(hq.engine.requests));
  EXPECT_DOUBLE_EQ(
      parsed->Value(
          "cfdprop_request_latency_us_bucket{tenant=\"hq\",le=\"+Inf\"}"),
      static_cast<double>(hq.engine.requests));
  EXPECT_EQ(hq.engine.total_latency.count, hq.engine.requests);

  // Stage tracing: each admitted batch passes every lifecycle stage
  // exactly once. The first four stages record before the reply future
  // resolves, so their counts are exact here; the reply stage records
  // *after* delivery (it times delivery itself), so the single
  // dispatcher guarantees only every batch before the last.
  const double batches = static_cast<double>(hq.admitted);
  for (const char* stage :
       {"admission", "queue_wait", "dispatch", "propagate"}) {
    EXPECT_DOUBLE_EQ(
        parsed->Value(std::string("cfdprop_stage_latency_us_count{tenant="
                                  "\"hq\",stage=\"") +
                      stage + "\"}"),
        batches)
        << stage;
  }
  const double reply_count = parsed->Value(
      "cfdprop_stage_latency_us_count{tenant=\"hq\",stage=\"reply\"}");
  EXPECT_GE(reply_count, batches - 1);
  EXPECT_LE(reply_count, batches);
}

TEST(MetricsExportTest, RendersAreMonotoneAndConsistent) {
  CatalogService service(DeterministicOptions());
  auto spec = ParseSpec(kSpecText);
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(service
                  .OpenCatalog("hq", std::move(spec->catalog),
                               {spec->source_cfds})
                  .ok());

  double last_requests = 0;
  for (int pass = 0; pass < 3; ++pass) {
    auto submitted = service.SubmitBatch("hq", Round(*spec));
    ASSERT_TRUE(submitted.ok());
    submitted->get();
    auto parsed = obs::ParseMetricsText(service.RenderMetricsText());
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const double requests =
        parsed->Value("cfdprop_requests_total{tenant=\"hq\"}");
    EXPECT_GE(requests, last_requests) << "counters must be monotone";
    last_requests = requests;
    // Within one render: hits + misses == requests (a torn read across
    // the hit/miss split would break this).
    EXPECT_DOUBLE_EQ(
        parsed->Value("cfdprop_cache_hits_total{tenant=\"hq\"}") +
            parsed->Value("cfdprop_cache_misses_total{tenant=\"hq\"}"),
        requests);
  }
}

TEST(MetricsExportTest, MetricsFrameDeliversTheExposition) {
  CatalogService service(DeterministicOptions());
  net::CoverServer server(service);
  ASSERT_TRUE(server.Start().ok());

  net::CoverClientOptions client_options;
  client_options.port = server.port();
  net::RemoteBackend client(client_options);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.OpenCatalog("eu", kSpecText).ok());

  auto client_spec = ParseSpec(kSpecText);
  ASSERT_TRUE(client_spec.ok());
  auto reply = client.SubmitBatch("eu", client_spec->ServingRound(),
                                  client_spec->catalog.pool());
  ASSERT_TRUE(reply.ok()) << reply.status();

  auto text = client.Metrics();
  ASSERT_TRUE(text.ok()) << text.status();
  auto parsed = obs::ParseMetricsText(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  // The scrape agrees with the server-side ledgers it rode along with.
  ServiceStatsSnapshot stats = service.Stats();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed->Value("cfdprop_requests_total{tenant=\"eu\"}"),
                   static_cast<double>(stats.tenants[0].engine.requests));
  EXPECT_DOUBLE_EQ(parsed->Value("cfdprop_cache_hits_total{tenant=\"eu\"}"),
                   static_cast<double>(stats.tenants[0].engine.cache.hits));

  // Net-layer families ride in the same exposition. The scrape itself
  // is a frame, so frames >= 3 (open + submit + metrics) and the
  // decode/encode/write stage histograms have recorded at least the
  // frames that preceded the render.
  EXPECT_EQ(parsed->types.at("cfdprop_net_frames_total"), "counter");
  EXPECT_GE(parsed->Value("cfdprop_net_frames_total"), 3.0);
  EXPECT_DOUBLE_EQ(parsed->Value("cfdprop_net_connections_total"), 1.0);
  EXPECT_DOUBLE_EQ(parsed->Value("cfdprop_net_decode_errors_total"), 0.0);
  EXPECT_GE(
      parsed->Value("cfdprop_net_stage_latency_us_count{stage=\"decode\"}"),
      2.0);
  EXPECT_GE(
      parsed->Value("cfdprop_net_stage_latency_us_count{stage=\"write\"}"),
      2.0);

  server.Stop();
}

TEST(MetricsExportTest, MetricsReplyCodec) {
  const std::string text = "# TYPE a counter\na 1\n";
  auto decoded =
      net::DecodeBytesReply(net::EncodeBytesReply(Status::OK(), text));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, text);

  // A typed error Status survives the wire.
  auto failed = net::DecodeBytesReply(
      net::EncodeBytesReply(Status::Internal("render failed"), ""));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);

  // Truncation and trailing garbage are both malformed.
  std::string payload = net::EncodeBytesReply(Status::OK(), text);
  EXPECT_FALSE(
      net::DecodeBytesReply(
          std::string_view(payload).substr(0, payload.size() - 3))
          .ok());
  EXPECT_FALSE(net::DecodeBytesReply(payload + "x").ok());
}

}  // namespace
}  // namespace cfdprop
