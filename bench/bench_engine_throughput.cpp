// Throughput of the propagation engine (src/engine/) vs. the uncached
// one-shot pipeline: covers served per second over a fixed request
// stream at cache hit rates 0%, 50% and 95%, with 1/2/4/8 worker
// threads.
//
// The stream has kStreamLen requests drawn from a pool of distinct
// generated views; the hit rate is set by construction (each unique view
// first occurs as a miss, every repeat is a hit), and the cache is
// cleared between benchmark iterations so every iteration replays the
// same miss/hit pattern. Counters report the achieved hit rate so the
// target can be audited in the output.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/engine/engine.h"
#include "src/gen/generators.h"
#include "src/gen/workload.h"
#include "src/net/cover_client.h"
#include "src/net/cover_server.h"
#include "src/obs/trace.h"
#include "src/parser/parser.h"
#include "src/service/catalog_service.h"

namespace cfdprop_bench {

using namespace cfdprop;

namespace {

constexpr size_t kStreamLen = 120;

struct EngineWorkloadParams {
  size_t num_cfds = 160;
  size_t num_views = kStreamLen;  // distinct views available
  uint64_t seed = 42;
};

/// Catalog + sigma + a pool of distinct views, all generated before
/// serving starts (view generation interns constants and must not race
/// with the worker pool).
struct EngineWorkload {
  Catalog catalog;
  std::vector<CFD> sigma;
  std::vector<SPCView> views;
};

EngineWorkload MakeEngineWorkload(const EngineWorkloadParams& p) {
  SchemaGenOptions schema_options;  // 10 relations, 10-20 attributes
  EngineWorkload w{GenerateSchema(schema_options, p.seed), {}, {}};

  CFDGenOptions cfd_options;
  cfd_options.count = p.num_cfds;
  cfd_options.min_lhs = 2;
  cfd_options.max_lhs = 5;
  w.sigma = GenerateCFDs(w.catalog, cfd_options, p.seed + 1);

  ViewGenOptions view_options;
  view_options.num_projection = 10;
  view_options.num_selections = 4;
  view_options.num_atoms = 2;
  w.views.reserve(p.num_views);
  for (size_t i = 0; i < p.num_views; ++i) {
    auto view = GenerateSPCView(w.catalog, view_options, p.seed + 10 + i);
    if (!view.ok()) {
      std::fprintf(stderr, "view generation failed: %s\n",
                   view.status().ToString().c_str());
      std::abort();
    }
    w.views.push_back(std::move(view).value());
  }
  return w;
}

/// A kStreamLen-request stream over `unique` distinct views: view i of
/// the pool is requested at positions i, i+unique, i+2*unique, ... so
/// per (cleared-cache) iteration exactly `unique` requests miss and the
/// rest hit: hit rate = 1 - unique/kStreamLen.
std::vector<Engine::Request> MakeStream(const EngineWorkload& w,
                                        size_t unique) {
  std::vector<Engine::Request> stream;
  stream.reserve(kStreamLen);
  for (size_t i = 0; i < kStreamLen; ++i) {
    stream.push_back({w.views[i % unique], 0});
  }
  return stream;
}

size_t UniqueForHitPct(int64_t hit_pct) {
  // 0% -> 120 unique, 50% -> 60, 95% -> 6.
  return std::max<size_t>(1, kStreamLen * (100 - hit_pct) / 100);
}

/// Engine serving: state.range(0) = target hit %, range(1) = threads.
void BM_EngineServe(benchmark::State& state) {
  EngineWorkload w = MakeEngineWorkload({});
  std::vector<Engine::Request> stream =
      MakeStream(w, UniqueForHitPct(state.range(0)));

  EngineOptions options;
  options.num_threads = static_cast<size_t>(state.range(1));
  options.cache_capacity = 4 * kStreamLen;
  options.cover.rbr.on_budget = RBROptions::OnBudget::kTruncate;
  Engine engine(std::move(w.catalog), options);
  auto sigma_id = engine.RegisterSigma(std::move(w.sigma));
  if (!sigma_id.ok()) {
    state.SkipWithError(sigma_id.status().ToString().c_str());
    return;
  }

  for (auto _ : state) {
    state.PauseTiming();
    engine.ClearCache();
    state.ResumeTiming();
    auto results = engine.PropagateBatch(stream);
    for (auto& r : results) {
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
    }
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kStreamLen));
  EngineStatsSnapshot stats = engine.Stats();
  state.counters["hit_rate_pct"] = 100.0 * stats.cache.HitRate();
  state.counters["covers_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kStreamLen,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineServe)
    ->ArgNames({"hit_pct", "threads"})
    ->Args({0, 1})
    ->Args({0, 2})
    ->Args({0, 4})
    ->Args({0, 8})
    ->Args({50, 1})
    ->Args({50, 2})
    ->Args({50, 4})
    ->Args({50, 8})
    ->Args({95, 1})
    ->Args({95, 2})
    ->Args({95, 4})
    ->Args({95, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Observability tax: the 95%-hit serving stream with the engine's
/// latency histograms on (metrics:1, the default) vs the sum-only
/// registry-disabled path (metrics:0). Both arms pay the clock reads —
/// the sums back EngineStatsSnapshot either way — so the delta is
/// purely the histogram bucket increments (one relaxed fetch_add per
/// stage per request). The ISSUE-6 budget is <2% covers_per_sec.
void BM_MetricsOverhead(benchmark::State& state) {
  EngineWorkload w = MakeEngineWorkload({});
  std::vector<Engine::Request> stream = MakeStream(w, UniqueForHitPct(95));

  EngineOptions options;
  options.num_threads = 1;
  options.cache_capacity = 4 * kStreamLen;
  options.cover.rbr.on_budget = RBROptions::OnBudget::kTruncate;
  options.metrics = state.range(0) != 0;
  Engine engine(std::move(w.catalog), options);
  auto sigma_id = engine.RegisterSigma(std::move(w.sigma));
  if (!sigma_id.ok()) {
    state.SkipWithError(sigma_id.status().ToString().c_str());
    return;
  }

  for (auto _ : state) {
    state.PauseTiming();
    engine.ClearCache();
    state.ResumeTiming();
    auto results = engine.PropagateBatch(stream);
    for (auto& r : results) {
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
    }
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kStreamLen));
  EngineStatsSnapshot stats = engine.Stats();
  state.counters["hit_rate_pct"] = 100.0 * stats.cache.HitRate();
  // Audits which arm ran: the recorded sample count is requests (on)
  // or zero (off).
  state.counters["hist_samples"] =
      static_cast<double>(stats.total_latency.count);
  state.counters["covers_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kStreamLen,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MetricsOverhead)
    ->ArgNames({"metrics"})
    ->Args({0})
    ->Args({1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Tracing tax on the same 95%-hit serving path, three arms: no tracer
/// installed (tracer:0, the baseline), a tracer installed with
/// sampling off (tracer:1 — the "tracing disabled" arm the ISSUE-10
/// <2% covers_per_sec budget gates: one StartTrace fetch_add and a
/// branch per batch, never a clock read), and 1/1 sampling (tracer:2 —
/// every batch reads the clock twice and records its compute span).
void BM_TraceOverhead(benchmark::State& state) {
  EngineWorkload w = MakeEngineWorkload({});
  std::vector<Engine::Request> stream = MakeStream(w, UniqueForHitPct(95));

  const int arm = static_cast<int>(state.range(0));
  obs::ObsOptions topts;
  topts.trace_sample_shift = arm == 2 ? 0 : -1;
  topts.trace_seed = 42;
  obs::Tracer tracer(topts);
  std::unique_ptr<obs::ScopedProcessTracer> scoped;
  if (arm != 0) scoped = std::make_unique<obs::ScopedProcessTracer>(&tracer);

  EngineOptions options;
  options.num_threads = 1;
  options.cache_capacity = 4 * kStreamLen;
  options.cover.rbr.on_budget = RBROptions::OnBudget::kTruncate;
  Engine engine(std::move(w.catalog), options);
  auto sigma_id = engine.RegisterSigma(std::move(w.sigma));
  if (!sigma_id.ok()) {
    state.SkipWithError(sigma_id.status().ToString().c_str());
    return;
  }

  for (auto _ : state) {
    state.PauseTiming();
    engine.ClearCache();
    state.ResumeTiming();
    obs::TraceContext ctx;
    if (arm != 0) ctx = tracer.StartTrace();
    auto results = engine.PropagateBatch(stream, ctx);
    for (auto& r : results) {
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
    }
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kStreamLen));
  EngineStatsSnapshot stats = engine.Stats();
  state.counters["hit_rate_pct"] = 100.0 * stats.cache.HitRate();
  // Audits which arm ran: iterations (sampling on) or zero.
  state.counters["spans"] = static_cast<double>(tracer.spans_recorded());
  state.counters["covers_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kStreamLen,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceOverhead)
    ->ArgNames({"tracer"})
    ->Args({0})
    ->Args({1})
    ->Args({2})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// SPCU serving: streams of 2-disjunct unions whose disjuncts overlap
/// across requests (union i = views {i, i+1} mod `unique`), so even a
/// cold union finds one disjunct already cached by its neighbor — the
/// partial-hit payoff. state.range(0) = distinct unions, range(1) =
/// threads. Counters report the achieved disjunct hit rate.
void BM_EngineServeSPCU(benchmark::State& state) {
  EngineWorkload w = MakeEngineWorkload({});
  const size_t unique = static_cast<size_t>(state.range(0));
  std::vector<Engine::Request> stream;
  stream.reserve(kStreamLen);
  for (size_t i = 0; i < kStreamLen; ++i) {
    SPCUView u;
    u.disjuncts = {w.views[i % unique], w.views[(i + 1) % unique]};
    stream.push_back({std::move(u), 0});
  }

  EngineOptions options;
  options.num_threads = static_cast<size_t>(state.range(1));
  options.cache_capacity = 4 * kStreamLen;
  options.cover.rbr.on_budget = RBROptions::OnBudget::kTruncate;
  Engine engine(std::move(w.catalog), options);
  auto sigma_id = engine.RegisterSigma(std::move(w.sigma));
  if (!sigma_id.ok()) {
    state.SkipWithError(sigma_id.status().ToString().c_str());
    return;
  }

  for (auto _ : state) {
    state.PauseTiming();
    engine.ClearCache();
    state.ResumeTiming();
    auto results = engine.PropagateBatch(stream);
    for (auto& r : results) {
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
    }
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kStreamLen));
  EngineStatsSnapshot stats = engine.Stats();
  uint64_t disjuncts = stats.disjunct_hits + stats.disjunct_misses;
  // Overall cache hit rate: fused-union lookups AND the per-disjunct
  // partial-hit lookups share these counters; disjunct_hit_pct below is
  // the union-assembly reuse metric.
  state.counters["cache_hit_rate_pct"] = 100.0 * stats.cache.HitRate();
  state.counters["disjunct_hit_pct"] =
      disjuncts == 0 ? 0.0 : 100.0 * stats.disjunct_hits / disjuncts;
  state.counters["covers_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kStreamLen,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineServeSPCU)
    ->ArgNames({"unique", "threads"})
    ->Args({6, 1})
    ->Args({6, 4})
    ->Args({60, 1})
    ->Args({60, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Sigma churn: a 95%-repeat stream served while AddCfd/RetractCfd
/// toggles an extra CFD every `range(0)` batches (0 = no churn). Each
/// mutation re-minimizes the touched sigma and selectively invalidates
/// its lines, so the metric shows how much recompute one mutation drags
/// back into the request path.
void BM_EngineChurn(benchmark::State& state) {
  EngineWorkload w = MakeEngineWorkload({});
  std::vector<Engine::Request> stream = MakeStream(w, UniqueForHitPct(95));

  EngineOptions options;
  options.num_threads = 1;
  options.cache_capacity = 4 * kStreamLen;
  options.cover.rbr.on_budget = RBROptions::OnBudget::kTruncate;
  Engine engine(std::move(w.catalog), options);
  auto sigma_id = engine.RegisterSigma(std::move(w.sigma));
  if (!sigma_id.ok()) {
    state.SkipWithError(sigma_id.status().ToString().c_str());
    return;
  }
  // Pre-built churn CFD: an FD over relation 0 (no interning mid-run).
  const CFD churned = CFD::FD(0, {0, 1}, 2).value();

  const int64_t churn_every = state.range(0);
  int64_t batch_no = 0;
  bool added = false;
  for (auto _ : state) {
    if (churn_every > 0 && batch_no++ % churn_every == 0) {
      auto s = added ? engine.RetractCfd(*sigma_id, churned)
                     : engine.AddCfd(*sigma_id, churned);
      if (!s.ok()) {
        state.SkipWithError(s.ToString().c_str());
        return;
      }
      added = !added;
    }
    auto results = engine.PropagateBatch(stream);
    for (auto& r : results) {
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
    }
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kStreamLen));
  EngineStatsSnapshot stats = engine.Stats();
  state.counters["hit_rate_pct"] = 100.0 * stats.cache.HitRate();
  state.counters["invalidations"] =
      static_cast<double>(stats.cache.invalidations);
  state.counters["covers_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kStreamLen,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineChurn)
    ->ArgNames({"churn_every"})
    ->Args({0})
    ->Args({4})
    ->Args({1})
    ->Unit(benchmark::kMillisecond);

/// A churn-write tenant (gen::BuildTenantSpec, |Σ| = 256 over 10
/// relations), and the first `count` FDs R0(Aa, Ab -> Ac) not in its Σ
/// (perfbench's churn FD shape), in (a, b, c) order.
Spec MakeMutationSpec(size_t count, std::vector<CFD>* churn_fds) {
  gen::WorkloadPlan plan;
  plan.options.seed = 1;
  plan.options.tenants = 16;
  plan.options.num_cfds = 256;
  plan.options.num_views = 1;
  Spec spec = gen::BuildTenantSpec(plan, 0);
  const AttrIndex arity =
      static_cast<AttrIndex>(spec.catalog.relation(0).arity());
  for (AttrIndex a = 0; a < arity; ++a) {
    for (AttrIndex b = a + 1; b < arity; ++b) {
      for (AttrIndex c = 0; c < arity && churn_fds->size() < count; ++c) {
        if (c == a || c == b) continue;
        CFD fd = CFD::FD(0, {a, b}, c).value();
        if (std::find(spec.source_cfds.begin(), spec.source_cfds.end(),
                      fd) == spec.source_cfds.end()) {
          churn_fds->push_back(std::move(fd));
        }
      }
    }
  }
  return spec;
}

/// The mutation path alone, no serving: each iteration adds and retracts
/// the first churn FD of MakeMutationSpec (the FD this bench has always
/// churned). After the first iteration
/// both group states are in the engine's MinCover memo, so this prices a
/// memo hit: the edit, the snapshot rebuild and the version refold.
void BM_EngineMutate(benchmark::State& state) {
  std::vector<CFD> churn_fds;
  Spec spec = MakeMutationSpec(1, &churn_fds);
  if (churn_fds.empty()) {
    state.SkipWithError("no churn FD");
    return;
  }
  const CFD churned = churn_fds.front();

  EngineOptions options;
  options.num_threads = 1;
  Engine engine(std::move(spec.catalog), options);
  auto sigma_id = engine.RegisterSigma(std::move(spec.source_cfds));
  if (!sigma_id.ok()) {
    state.SkipWithError(sigma_id.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Status added = engine.AddCfd(*sigma_id, churned);
    Status retracted = engine.RetractCfd(*sigma_id, churned);
    if (!added.ok() || !retracted.ok()) {
      state.SkipWithError("mutation failed");
      return;
    }
  }
  // items_per_second counts mutations: half the iteration time each.
  state.SetItemsProcessed(2 * static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineMutate)->Unit(benchmark::kMicrosecond);

/// BM_EngineMutate with every mutation a memo miss, so MinCover stays
/// priced on the mutation path: a window of two churn FDs slides over
/// more FDs than the memo has lines (iteration i adds F[i+1] and retracts
/// F[i], mod N), so a group state recurs only after 2N > memo capacity
/// other states. `memo_hits` reads 0 when that holds.
void BM_EngineMutateCold(benchmark::State& state) {
  const size_t n = Engine::kSigmaMemoCapacity + 1;
  std::vector<CFD> churn_fds;
  Spec spec = MakeMutationSpec(n, &churn_fds);
  if (churn_fds.size() < n) {
    state.SkipWithError("too few churn FDs");
    return;
  }

  EngineOptions options;
  options.num_threads = 1;
  Engine engine(std::move(spec.catalog), options);
  auto sigma_id = engine.RegisterSigma(std::move(spec.source_cfds));
  if (!sigma_id.ok() || !engine.AddCfd(*sigma_id, churn_fds[0]).ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  size_t i = 0;
  for (auto _ : state) {
    Status added = engine.AddCfd(*sigma_id, churn_fds[(i + 1) % n]);
    Status retracted = engine.RetractCfd(*sigma_id, churn_fds[i % n]);
    if (!added.ok() || !retracted.ok()) {
      state.SkipWithError("mutation failed");
      return;
    }
    ++i;
  }
  state.SetItemsProcessed(2 * static_cast<int64_t>(state.iterations()));
  state.counters["memo_hits"] =
      static_cast<double>(engine.Stats().sigma_memo_hits);
}
BENCHMARK(BM_EngineMutateCold)->Unit(benchmark::kMicrosecond);

/// Multi-tenant serving through CatalogService: range(0) tenants, each
/// its own catalog/engine, one async 95%-repeat batch per tenant per
/// iteration, all in flight together across the dispatcher pool.
/// covers/sec aggregates over every tenant, so compare per-tenant cost
/// against BM_EngineServe/hit_pct:95 for the routing overhead and
/// against the tenant count for scaling (1-CPU container: expect flat
/// wall-clock per request, not per tenant).
void BM_ServiceTenantSweep(benchmark::State& state) {
  const size_t num_tenants = static_cast<size_t>(state.range(0));
  ServiceOptions options;
  options.dispatcher_threads = num_tenants;
  options.engine.num_threads = 1;
  options.global_cache_budget = num_tenants * 4 * kStreamLen;
  options.engine.cover.rbr.on_budget = RBROptions::OnBudget::kTruncate;
  CatalogService service(options);

  std::vector<std::vector<Engine::Request>> streams;
  std::vector<TenantHandle> handles;
  for (size_t t = 0; t < num_tenants; ++t) {
    EngineWorkload w = MakeEngineWorkload({/*num_cfds=*/160,
                                           /*num_views=*/kStreamLen,
                                           /*seed=*/42 + t});
    streams.push_back(MakeStream(w, UniqueForHitPct(95)));
    auto opened = service.OpenCatalog("tenant" + std::to_string(t),
                                      std::move(w.catalog),
                                      {std::move(w.sigma)});
    if (!opened.ok()) {
      state.SkipWithError(opened.status().ToString().c_str());
      return;
    }
    handles.push_back(std::move(opened).value());
  }

  for (auto _ : state) {
    state.PauseTiming();
    for (auto& h : handles) h->engine().ClearCache();
    state.ResumeTiming();
    std::vector<std::future<BatchReply>> futures;
    futures.reserve(num_tenants);
    for (size_t t = 0; t < num_tenants; ++t) {
      auto submitted = service.SubmitBatch("tenant" + std::to_string(t),
                                           streams[t]);
      if (!submitted.ok()) {
        state.SkipWithError(submitted.status().ToString().c_str());
        return;
      }
      futures.push_back(std::move(submitted).value());
    }
    for (auto& f : futures) {
      BatchReply reply = f.get();
      for (auto& r : reply.results) {
        if (!r.ok()) {
          state.SkipWithError(r.status().ToString().c_str());
          return;
        }
      }
      benchmark::DoNotOptimize(reply.results.data());
    }
  }
  const auto total = static_cast<int64_t>(state.iterations()) *
                     static_cast<int64_t>(num_tenants * kStreamLen);
  state.SetItemsProcessed(total);
  state.counters["covers_per_sec"] = benchmark::Counter(
      static_cast<double>(total), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServiceTenantSweep)
    ->ArgNames({"tenants"})
    ->Args({1})
    ->Args({2})
    ->Args({4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Network serving: the BM_ServiceTenantSweep workload driven through
/// CoverServer/CoverClient over loopback TCP — each iteration is one
/// client→server→client round-trip batch per tenant (kStreamLen
/// requests at 95% hits), with one client thread per tenant so batches
/// overlap exactly as the in-process sweep's futures do. The delta
/// against BM_ServiceTenantSweep is the wire tax: framing, checksums,
/// cover encode/decode and the socket round-trip. (1-CPU container
/// caveat: client threads, server connection threads and dispatchers
/// all share one core, so this is protocol overhead, not scaling.)
void BM_NetLoopbackBatch(benchmark::State& state) {
  const size_t num_tenants = static_cast<size_t>(state.range(0));
  ServiceOptions options;
  options.dispatcher_threads = num_tenants;
  options.engine.num_threads = 1;
  options.global_cache_budget = num_tenants * 4 * kStreamLen;
  options.engine.cover.rbr.on_budget = RBROptions::OnBudget::kTruncate;
  CatalogService service(options);
  net::CoverServer server(service);
  if (Status started = server.Start(); !started.ok()) {
    state.SkipWithError(started.ToString().c_str());
    return;
  }

  // Per-tenant spec built programmatically (no parse): generated views
  // under names V0..Vn, requested as a 95%-hit name stream mirroring
  // MakeStream.
  const size_t unique = UniqueForHitPct(95);
  std::vector<std::string> names;
  names.reserve(kStreamLen);
  for (size_t i = 0; i < kStreamLen; ++i) {
    names.push_back("V" + std::to_string(i % unique));
  }
  std::vector<TenantHandle> handles;
  for (size_t t = 0; t < num_tenants; ++t) {
    EngineWorkload w = MakeEngineWorkload({/*num_cfds=*/160,
                                           /*num_views=*/kStreamLen,
                                           /*seed=*/42 + t});
    Spec spec;
    spec.catalog = std::move(w.catalog);
    spec.source_cfds = std::move(w.sigma);
    for (size_t i = 0; i < w.views.size(); ++i) {
      std::string name = "V" + std::to_string(i);
      spec.view_names.push_back(name);
      spec.views.emplace(std::move(name), SPCUView(std::move(w.views[i])));
    }
    const std::string tenant = "tenant" + std::to_string(t);
    auto opened = server.OpenParsedSpec(tenant, std::move(spec));
    if (!opened.ok()) {
      state.SkipWithError(opened.status().ToString().c_str());
      return;
    }
    handles.push_back(std::move(service.ResolveCatalog(tenant)).value());
  }

  // One connected client (with its own decode pool) per tenant, reused
  // across iterations.
  struct ClientCtx {
    std::unique_ptr<net::CoverClient> client;
    Catalog scratch;  // decode pool
  };
  std::vector<ClientCtx> clients(num_tenants);
  for (size_t t = 0; t < num_tenants; ++t) {
    net::CoverClientOptions client_options;
    client_options.port = server.port();
    clients[t].client =
        std::make_unique<net::CoverClient>(client_options);
    if (Status connected = clients[t].client->Connect(); !connected.ok()) {
      state.SkipWithError(connected.ToString().c_str());
      return;
    }
  }

  for (auto _ : state) {
    state.PauseTiming();
    for (auto& h : handles) h->engine().ClearCache();
    state.ResumeTiming();
    std::vector<std::thread> threads;
    std::atomic<bool> failed{false};
    threads.reserve(num_tenants);
    for (size_t t = 0; t < num_tenants; ++t) {
      threads.emplace_back([&, t] {
        auto reply = clients[t].client->SubmitBatch(
            "tenant" + std::to_string(t), names,
            clients[t].scratch.pool());
        if (!reply.ok() || !reply->status.ok() ||
            reply->results.size() != kStreamLen) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        benchmark::DoNotOptimize(reply->results.data());
      });
    }
    for (auto& th : threads) th.join();
    if (failed.load(std::memory_order_relaxed)) {
      state.SkipWithError("network batch failed");
      return;
    }
  }
  const auto total = static_cast<int64_t>(state.iterations()) *
                     static_cast<int64_t>(num_tenants * kStreamLen);
  state.SetItemsProcessed(total);
  state.counters["covers_per_sec"] = benchmark::Counter(
      static_cast<double>(total), benchmark::Counter::kIsRate);
  clients.clear();
  server.Stop();
}
BENCHMARK(BM_NetLoopbackBatch)
    ->ArgNames({"tenants"})
    ->Args({1})
    ->Args({2})
    ->Args({4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Baseline: the uncached one-shot pipeline over the same stream (every
/// request recomputes MinCover/ComputeEQ/RBR). Compare covers_per_sec
/// against BM_EngineServe/hit_pct:95 for the cache payoff.
void BM_UncachedSingleShot(benchmark::State& state) {
  EngineWorkload w = MakeEngineWorkload({});
  std::vector<Engine::Request> stream =
      MakeStream(w, UniqueForHitPct(state.range(0)));

  PropCoverOptions options;
  options.rbr.on_budget = RBROptions::OnBudget::kTruncate;
  for (auto _ : state) {
    for (const Engine::Request& req : stream) {
      // Requests hold (single-disjunct) SPCU views; the SPCU entry point
      // delegates straight to the SPC pipeline.
      auto result =
          PropagationCoverSPCU(w.catalog, req.view, w.sigma, options);
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(result->cover.data());
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kStreamLen));
  state.counters["covers_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kStreamLen,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_UncachedSingleShot)
    ->ArgNames({"hit_pct"})
    ->Args({0})
    ->Args({95})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cfdprop_bench

BENCHMARK_MAIN();
