// Loopback differential suite: covers served through CoverServer /
// RemoteBackend over a real TCP socket must be byte-identical to direct
// CatalogService::SubmitBatch serving of the same spec — cold and warm —
// and per-tenant admission control must reject a pipelined burst's
// over-limit batches deterministically, with the counters visible in
// the METRICS scrape.

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
namespace net {
namespace {

/// examples/specs/multi_tenant_demo.spec minus the churn script (tests
/// embed their inputs; the CLI-level CI diffs the real file): two
/// relations, three SPC views, a union assembling from per-SPC lines,
/// and a serve round with a repeated hot view.
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

/// Single-threaded engines on both sides: the serve round repeats
/// ByRegion, whose hit/miss split must be deterministic for the
/// byte-for-byte comparison (cache_hit travels in the encoding).
ServiceOptions DeterministicOptions() {
  ServiceOptions options;
  options.engine.num_threads = 1;
  return options;
}

/// Scrapes the server through the METRICS frame and parses the
/// exposition — the one stats surface a remote caller has.
obs::ParsedMetrics Scrape(RemoteBackend& client) {
  auto text = client.Metrics();
  EXPECT_TRUE(text.ok()) << text.status();
  auto parsed = obs::ParseMetricsText(text.ok() ? *text : std::string());
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  return parsed.ok() ? std::move(parsed).value() : obs::ParsedMetrics{};
}

/// The direct-serving side of the differential: one SubmitBatch on a
/// plain CatalogService, results wrapped for the wire encoder.
class DirectSide {
 public:
  DirectSide() : service_(DeterministicOptions()) {
    auto spec = ParseSpec(kDemoSpec);
    EXPECT_TRUE(spec.ok()) << spec.status();
    spec_ = std::move(spec).value();
    auto handle = service_.OpenCatalog("eu", std::move(spec_.catalog),
                                       {spec_.source_cfds});
    EXPECT_TRUE(handle.ok()) << handle.status();
    handle_ = std::move(handle).value();
  }

  WireBatchResult ServeRound() {
    std::vector<Engine::Request> requests;
    for (const std::string& view : spec_.ServingRound()) {
      requests.push_back({spec_.views.at(view), 0});
    }
    auto submitted = service_.SubmitBatch("eu", std::move(requests));
    EXPECT_TRUE(submitted.ok()) << submitted.status();
    WireBatchResult out;
    out.results = submitted->get().results;
    return out;
  }

  const ValuePool& pool() const {
    return handle_->engine().catalog().pool();
  }

 private:
  CatalogService service_;
  Spec spec_;
  TenantHandle handle_;
};

TEST(NetLoopbackTest, NetworkCoversAreByteIdenticalToDirectServing) {
  DirectSide direct;

  CatalogService service(DeterministicOptions());
  CoverServer server(service);
  ASSERT_TRUE(server.Start().ok());

  CoverClientOptions client_options;
  client_options.port = server.port();
  RemoteBackend client(client_options);
  ASSERT_TRUE(client.Connect().ok());
  auto opened = client.OpenCatalog("eu", kDemoSpec);
  ASSERT_TRUE(opened.ok()) << opened.status();
  EXPECT_EQ(opened->restored, 0u) << "no snapshot dir: cold start";

  // The client's decode pool: same spec parsed client-side (as the CLI
  // does for rendering), but with its own interning history.
  auto client_spec = ParseSpec(kDemoSpec);
  ASSERT_TRUE(client_spec.ok());
  ValuePool& client_pool = client_spec->catalog.pool();
  const std::vector<std::string> round = client_spec->ServingRound();
  ASSERT_EQ(round.size(), 5u);

  // Cold round, then a warm repeat: every request a hit the second
  // time, and both rounds byte-identical to direct serving — the
  // re-encoding from each side's own pool erases process-local Value
  // ids, so equal bytes mean equal covers, flags, fingerprints and
  // hit patterns.
  for (int pass = 0; pass < 2; ++pass) {
    WireBatchResult direct_result = direct.ServeRound();
    auto net_result = client.SubmitBatch("eu", round, client_pool);
    ASSERT_TRUE(net_result.ok()) << net_result.status();
    ASSERT_TRUE(net_result->status.ok()) << net_result->status;
    ASSERT_EQ(net_result->results.size(), direct_result.results.size());

    EXPECT_EQ(EncodeSubmitBatchReply(Status::OK(), {*net_result},
                                     client_pool),
              EncodeSubmitBatchReply(Status::OK(), {direct_result},
                                     direct.pool()))
        << "pass " << pass;

    for (size_t i = 0; i < net_result->results.size(); ++i) {
      const auto& r = net_result->results[i];
      ASSERT_TRUE(r.ok());
      if (pass == 1) {
        EXPECT_TRUE(r->cache_hit) << "warm request " << i;
      }
    }
    // The union assembled from its two disjuncts' cache lines on the
    // cold pass (they were served earlier in the round).
    EXPECT_EQ(net_result->results[3]->disjunct_count, 2u);
    EXPECT_EQ(net_result->results[3]->disjunct_hits, 2u);
  }

  // Server-side hit pattern equals the in-process one: 5-view round
  // with one repeat and a fused union = 4 misses cold, then 5+5 hits
  // across the two passes (the fused union line hits warm).
  // Per-tenant batches_submitted has no series of its own; with one
  // tenant it equals the service-wide count.
  const obs::ParsedMetrics stats = Scrape(client);
  EXPECT_EQ(stats.Value("cfdprop_tenants"), 1.0);
  EXPECT_EQ(stats.Value("cfdprop_batches_submitted_total"), 2.0);
  EXPECT_EQ(stats.Value("cfdprop_admitted_total{tenant=\"eu\"}"), 2.0);
  ASSERT_TRUE(stats.Has("cfdprop_admission_rejected_total{tenant=\"eu\"}"));
  EXPECT_EQ(stats.Value("cfdprop_admission_rejected_total{tenant=\"eu\"}"),
            0.0);

  server.Stop();
}

TEST(NetLoopbackTest, BurstOverInflightCapIsRejectedDeterministically) {
  ServiceOptions options = DeterministicOptions();
  options.dispatcher_threads = 1;
  options.admission.max_inflight_batches = 1;
  options.admission.max_queued_batches = 1;
  CatalogService service(options);
  CoverServer server(service);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.OpenSpec("eu", kDemoSpec).ok());

  CoverClientOptions client_options;
  client_options.port = server.port();
  RemoteBackend client(client_options);
  ASSERT_TRUE(client.Connect().ok());

  auto client_spec = ParseSpec(kDemoSpec);
  ASSERT_TRUE(client_spec.ok());
  ValuePool& pool = client_spec->catalog.pool();
  const std::vector<std::string> round = client_spec->ServingRound();

  // Four batches in ONE frame: the server decides all four admissions
  // atomically (CatalogService::SubmitBatches), so with a cap of 1
  // running + 1 queued exactly the first two are admitted — regardless
  // of how fast the dispatcher drains. Slots 2 and 3 come back as the
  // typed ResourceExhausted rejection.
  auto burst = client.SubmitBatches("eu", {round, round, round, round}, pool);
  ASSERT_TRUE(burst.ok()) << burst.status();
  ASSERT_EQ(burst->size(), 4u);
  EXPECT_TRUE((*burst)[0].status.ok());
  EXPECT_TRUE((*burst)[1].status.ok());
  for (size_t i : {size_t{2}, size_t{3}}) {
    EXPECT_FALSE((*burst)[i].status.ok()) << "slot " << i;
    EXPECT_EQ((*burst)[i].status.code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE((*burst)[i].results.empty());
  }
  // Admitted slots carry full result sets; the two admitted batches are
  // identical rounds, so the second is all hits.
  ASSERT_EQ((*burst)[0].results.size(), round.size());
  ASSERT_EQ((*burst)[1].results.size(), round.size());
  for (const auto& r : (*burst)[1].results) {
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->cache_hit);
  }

  // A second identical burst: the first one's batches all completed
  // (their replies arrived), so the pattern repeats exactly.
  auto again = client.SubmitBatches("eu", {round, round, round, round}, pool);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE((*again)[0].status.ok());
  EXPECT_TRUE((*again)[1].status.ok());
  EXPECT_EQ((*again)[2].status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ((*again)[3].status.code(), StatusCode::kResourceExhausted);

  // Counters through the wire: 4 admitted, 4 rejected, nothing left in
  // the service (both bursts' replies are back).
  const obs::ParsedMetrics stats = Scrape(client);
  EXPECT_EQ(stats.Value("cfdprop_tenants"), 1.0);
  EXPECT_EQ(stats.Value("cfdprop_admitted_total{tenant=\"eu\"}"), 4.0);
  EXPECT_EQ(stats.Value("cfdprop_admission_rejected_total{tenant=\"eu\"}"),
            4.0);
  ASSERT_TRUE(stats.Has("cfdprop_queued_batches{tenant=\"eu\"}"));
  EXPECT_EQ(stats.Value("cfdprop_queued_batches{tenant=\"eu\"}"), 0.0);
  EXPECT_EQ(stats.Value("cfdprop_batches_rejected_total"), 4.0);
  EXPECT_EQ(stats.Value("cfdprop_batches_submitted_total"), 4.0);
  EXPECT_EQ(stats.Value("cfdprop_batches_completed_total"), 4.0);

  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace cfdprop
