// src/obs unit tests: deterministic histogram bucket mapping and
// quantile interpolation (expected values computed by hand from the
// documented power-of-two bounds), the snapshot invariant "sum of
// buckets == count" under concurrent writers (the TSan target), the
// registry's idempotent-handle contract, and the render -> parse
// round trip of the text exposition.

#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/exporter.h"

namespace cfdprop {
namespace obs {
namespace {

TEST(HistogramTest, BucketMapping) {
  // Everything at or below the first bound (and garbage) lands in
  // bucket 0 (le="1").
  EXPECT_EQ(Histogram::BucketFor(0.0), 0u);
  EXPECT_EQ(Histogram::BucketFor(-5.0), 0u);
  EXPECT_EQ(Histogram::BucketFor(0.5), 0u);
  EXPECT_EQ(Histogram::BucketFor(1.0), 0u);
  EXPECT_EQ(Histogram::BucketFor(std::nan("")), 0u);

  // Exact powers of two sit in their own bucket: 2^i -> le = 2^i.
  for (size_t i = 0; i < kFiniteLatencyBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketFor(std::ldexp(1.0, static_cast<int>(i))), i)
        << "2^" << i;
  }

  // Just past a bound rolls into the next bucket.
  EXPECT_EQ(Histogram::BucketFor(1.5), 1u);   // le="2"
  EXPECT_EQ(Histogram::BucketFor(2.5), 2u);   // le="4"
  EXPECT_EQ(Histogram::BucketFor(100.0), 7u); // 64 < 100 <= 128
  EXPECT_EQ(Histogram::BucketFor(std::ldexp(1.0, 24) + 1.0),
            kLatencyBuckets - 1);  // past the largest finite bound
  EXPECT_EQ(Histogram::BucketFor(1e18), kLatencyBuckets - 1);
}

TEST(HistogramTest, QuantileInterpolationKnownValues) {
  Histogram h;
  for (int i = 0; i < 50; ++i) h.Record(1.0);    // bucket 0: (0, 1]
  for (int i = 0; i < 30; ++i) h.Record(3.0);    // bucket 2: (2, 4]
  for (int i = 0; i < 20; ++i) h.Record(100.0);  // bucket 7: (64, 128]
  HistogramSnapshot s = h.Snapshot();
  ASSERT_EQ(s.count, 100u);

  // p50: target rank 50 falls exactly at the end of bucket 0 -> its
  // upper bound. p95/p99 interpolate inside bucket 7:
  //   p95: (95 - 80) / 20 of the way from 64 to 128 = 112.
  //   p99: (99 - 80) / 20 of the way from 64 to 128 = 124.8.
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.95), 112.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.99), 124.8);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 128.0);

  // Value sum survives as microseconds (accumulated in integer ns).
  EXPECT_NEAR(s.sum_us, 50 * 1.0 + 30 * 3.0 + 20 * 100.0, 1e-6);
}

TEST(HistogramTest, QuantileEdgeCases) {
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.Snapshot().Quantile(0.5), 0.0);

  // Samples past the largest finite bound clamp to it.
  Histogram overflow;
  overflow.Record(1e9);
  HistogramSnapshot s = overflow.Snapshot();
  EXPECT_EQ(s.buckets[kLatencyBuckets - 1], 1u);
  EXPECT_DOUBLE_EQ(s.Quantile(0.99), std::ldexp(1.0, 24));
}

TEST(HistogramTest, SnapshotInvariantUnderConcurrentWriters) {
  // The TSan target: racing Record() against Snapshot() must be clean,
  // and EVERY snapshot taken mid-race must satisfy sum(buckets) ==
  // count (it holds by construction: count is derived from the loaded
  // buckets, never read separately).
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      HistogramSnapshot s = h.Snapshot();
      uint64_t total = 0;
      for (uint64_t b : s.buckets) total += b;
      ASSERT_EQ(total, s.count);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<double>((t * kPerThread + i) % 300));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t total = 0;
  for (uint64_t b : s.buckets) total += b;
  EXPECT_EQ(total, s.count);
}

TEST(HistogramTest, DisabledBucketsKeepTheSum) {
  // The "registry-disabled" path: no bucket increments, but the value
  // sum (which backs EngineStatsSnapshot's total/compute milliseconds)
  // still accumulates.
  Histogram h(/*buckets_enabled=*/false);
  h.Record(250.0);
  h.Record(750.0);
  EXPECT_EQ(h.Snapshot().count, 0u);
  EXPECT_NEAR(h.SumUs(), 1000.0, 1e-6);
}

TEST(MetricsRegistryTest, HandlesAreIdempotentAndTyped) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("req_total", "requests");
  Counter* b = registry.GetCounter("req_total", "requests");
  EXPECT_NE(a, nullptr);
  EXPECT_EQ(a, b) << "same name+labels must return the same handle";

  Counter* hq = registry.GetCounter("hits", "", {{"tenant", "hq"}});
  Counter* eu = registry.GetCounter("hits", "", {{"tenant", "eu"}});
  EXPECT_NE(hq, nullptr);
  EXPECT_NE(eu, nullptr);
  EXPECT_NE(hq, eu) << "different labels are different series";
  EXPECT_EQ(hq, registry.GetCounter("hits", "", {{"tenant", "hq"}}));

  // A name reused with a different type is a registration error.
  EXPECT_EQ(registry.GetGauge("req_total", ""), nullptr);
  EXPECT_EQ(registry.GetHistogram("hits", ""), nullptr);
}

TEST(MetricsRegistryTest, CountersAreMonotoneAcrossRenders) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("cfdprop_demo_total", "demo");
  c->Add(3);
  auto first = ParseMetricsText(registry.RenderText());
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_DOUBLE_EQ(first->Value("cfdprop_demo_total"), 3.0);

  c->Increment();
  auto second = ParseMetricsText(registry.RenderText());
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_DOUBLE_EQ(second->Value("cfdprop_demo_total"), 4.0);
  EXPECT_GE(second->Value("cfdprop_demo_total"),
            first->Value("cfdprop_demo_total"));
}

TEST(MetricsRegistryTest, RenderParseRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("cfdprop_hits_total", "Cache hits",
                      {{"tenant", "hq"}})->Add(21);
  registry.GetGauge("cfdprop_par_eff", "Parallel efficiency")->Set(0.25);
  Histogram* h = registry.GetHistogram("cfdprop_lat_us", "Latency",
                                       {{"tenant", "hq"}});
  h->Record(1.0);
  h->Record(3.0);
  h->Record(1e9);

  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("# TYPE cfdprop_hits_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cfdprop_lat_us histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("cfdprop_hits_total{tenant=\"hq\"} 21\n"),
            std::string::npos)
      << text;

  auto parsed = ParseMetricsText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->types.at("cfdprop_hits_total"), "counter");
  EXPECT_EQ(parsed->types.at("cfdprop_par_eff"), "gauge");
  EXPECT_EQ(parsed->types.at("cfdprop_lat_us"), "histogram");
  EXPECT_DOUBLE_EQ(parsed->Value("cfdprop_hits_total{tenant=\"hq\"}"), 21.0);
  EXPECT_DOUBLE_EQ(parsed->Value("cfdprop_par_eff"), 0.25);

  // Cumulative buckets: le="1" holds one sample, le="4" two, +Inf all
  // three — and the +Inf bucket always equals _count (the exposition-
  // level face of the snapshot invariant).
  EXPECT_DOUBLE_EQ(
      parsed->Value("cfdprop_lat_us_bucket{tenant=\"hq\",le=\"1\"}"), 1.0);
  EXPECT_DOUBLE_EQ(
      parsed->Value("cfdprop_lat_us_bucket{tenant=\"hq\",le=\"4\"}"), 2.0);
  EXPECT_DOUBLE_EQ(
      parsed->Value("cfdprop_lat_us_bucket{tenant=\"hq\",le=\"+Inf\"}"), 3.0);
  EXPECT_DOUBLE_EQ(parsed->Value("cfdprop_lat_us_count{tenant=\"hq\"}"),
                   parsed->Value(
                       "cfdprop_lat_us_bucket{tenant=\"hq\",le=\"+Inf\"}"));
  EXPECT_NEAR(parsed->Value("cfdprop_lat_us_sum{tenant=\"hq\"}"),
              1.0 + 3.0 + 1e9, 1.0);

  // Sum folds a family across its labels and nothing else: the _bucket
  // and _count series are families of their own, and a name that only
  // shares a prefix never joins.
  auto summed = ParseMetricsText(
      "a_total{shard=\"0\",tenant=\"hq\"} 5\n"
      "a_total{shard=\"1\",tenant=\"eu\"} 7\n"
      "a_total 1\n"
      "a_total_extra 100\n"
      "a_totals{tenant=\"hq\"} 1000\n");
  ASSERT_TRUE(summed.ok()) << summed.status();
  EXPECT_DOUBLE_EQ(summed->Sum("a_total"), 13.0);
  EXPECT_DOUBLE_EQ(summed->Sum("a_total_extra"), 100.0);
  EXPECT_DOUBLE_EQ(summed->Sum("missing_total"), 0.0);
  EXPECT_DOUBLE_EQ(parsed->Sum("cfdprop_lat_us_count"), 3.0);

  // Malformed inputs are refused with the offending line named: trailing
  // bytes after a value, and the same series key twice (the second
  // would otherwise silently overwrite the first).
  for (const char* bad : {"ok_total 1\nname 12abc\n",
                          "ok_total 1\nname{t=\"a\"} 3 \n",
                          "ok_total 1\nname{t=\"a\"} 3\nname{t=\"a\"} 4\n"}) {
    auto refused = ParseMetricsText(bad);
    ASSERT_FALSE(refused.ok()) << bad;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(refused.status().message().find("line "), std::string::npos)
        << refused.status();
    EXPECT_NE(refused.status().message().find("name"), std::string::npos)
        << refused.status();
  }
}

TEST(MetricsRegistryTest, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.GetCounter("c_total", "", {{"path", "a\\b\"c\nd"}})->Add(1);
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("c_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos)
      << text;
  auto parsed = ParseMetricsText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
}

TEST(MetricsRegistryTest, CollectorsContributeAndDetach) {
  MetricsRegistry registry;
  size_t id = registry.AddCollector([] {
    MetricFamilySamples f;
    f.name = "cfdprop_collected_total";
    f.type = MetricType::kCounter;
    f.help = "From a collector";
    Sample s;
    s.value = 7;
    f.samples.push_back(std::move(s));
    return std::vector<MetricFamilySamples>{std::move(f)};
  });
  auto with = ParseMetricsText(registry.RenderText());
  ASSERT_TRUE(with.ok());
  EXPECT_DOUBLE_EQ(with->Value("cfdprop_collected_total"), 7.0);

  registry.RemoveCollector(id);
  auto without = ParseMetricsText(registry.RenderText());
  ASSERT_TRUE(without.ok());
  EXPECT_FALSE(without->Has("cfdprop_collected_total"));
}

TEST(MetricsRegistryTest, ConcurrentRecordAndRender) {
  // Registry-level TSan target: handles registered up front, then
  // writers hammer them while a renderer loops. Rendering reads each
  // metric exactly once per pass, so values can only be observed
  // moving up.
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("cfdprop_c_total", "");
  Histogram* hist = registry.GetHistogram("cfdprop_h_us", "");
  std::atomic<bool> stop{false};
  std::thread renderer([&] {
    double last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto parsed = ParseMetricsText(registry.RenderText());
      ASSERT_TRUE(parsed.ok());
      double now = parsed->Value("cfdprop_c_total");
      ASSERT_GE(now, last);
      last = now;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        counter->Increment();
        hist->Record(static_cast<double>(i % 100));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  renderer.join();
  EXPECT_EQ(counter->Value(), 80000u);
  EXPECT_EQ(hist->Snapshot().count, 80000u);
}

}  // namespace
}  // namespace obs
}  // namespace cfdprop
