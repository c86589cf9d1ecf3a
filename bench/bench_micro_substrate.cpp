// Microbenchmarks for the substrates everything else is built on:
// CFD implication (the O(n^2) primitive of [8]), MinCover, consistency,
// PropCFD_SPC on the engine's miss path and its ComputeEQ and RBR
// stages, union assembly, the emptiness test, view evaluation, CFD
// validation on concrete data, and the cover byte codec (a SUBMIT_BATCH
// reply and a snapshot of the same covers).

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/cfd/implication.h"
#include "src/cfd/mincover.h"
#include "src/cover/compute_eq.h"
#include "src/cover/propcfd_spc.h"
#include "src/cover/rbr.h"
#include "src/data/eval.h"
#include "src/data/validate.h"
#include "src/engine/cover_cache.h"
#include "src/engine/engine.h"
#include "src/engine/snapshot.h"
#include "src/gen/generators.h"
#include "src/gen/workload.h"
#include "src/net/wire_protocol.h"
#include "src/propagation/emptiness.h"

namespace cfdprop_bench {
namespace {

using namespace cfdprop;

struct SingleRelation {
  Catalog catalog;
  std::vector<CFD> sigma;
  size_t arity;
};

SingleRelation MakeSingleRelation(size_t num_cfds, uint64_t seed) {
  SchemaGenOptions schema_options;
  schema_options.num_relations = 1;
  schema_options.min_arity = 12;
  schema_options.max_arity = 12;
  SingleRelation out{GenerateSchema(schema_options, seed), {}, 12};

  CFDGenOptions cfd_options;
  cfd_options.count = num_cfds;
  cfd_options.min_lhs = 1;
  cfd_options.max_lhs = 4;
  cfd_options.var_pct = 50;
  out.sigma = GenerateCFDs(out.catalog, cfd_options, seed + 1);
  return out;
}

void BM_Implication(benchmark::State& state) {
  SingleRelation w = MakeSingleRelation(state.range(0), 3);
  CFD phi = CFD::FD(0, {0, 1}, 2).value();
  for (auto _ : state) {
    auto r = Implies(w.sigma, phi, w.arity);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*r);
  }
}
BENCHMARK(BM_Implication)
    ->ArgName("sigma")
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_Consistency(benchmark::State& state) {
  SingleRelation w = MakeSingleRelation(state.range(0), 5);
  for (auto _ : state) {
    auto r = IsSatisfiable(w.sigma, w.arity);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*r);
  }
}
BENCHMARK(BM_Consistency)
    ->ArgName("sigma")
    ->Arg(64)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_MinCover(benchmark::State& state) {
  SingleRelation w = MakeSingleRelation(state.range(0), 7);
  size_t cover = 0;
  for (auto _ : state) {
    auto r = MinCover(w.sigma, w.arity);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    cover = r->size();
    benchmark::DoNotOptimize(r->data());
  }
  state.counters["cover_cfds"] = static_cast<double>(cover);
}
BENCHMARK(BM_MinCover)
    ->ArgName("sigma")
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

// The engine's miss path: PropagationCoverSPC over zipf-open's tenant-0
// spec (|Σ| = 120 minimized once, 96 views), input MinCover off, one
// view per iteration in name order.
void BM_PropagationCoverTenant(benchmark::State& state) {
  gen::WorkloadPlan plan;
  plan.options.seed = 1;
  plan.options.num_cfds = 120;
  plan.options.num_views = 96;
  Spec spec = gen::BuildTenantSpec(plan, 0);
  auto sigma = MinCoverSigma(spec.catalog, spec.source_cfds);
  if (!sigma.ok()) std::abort();
  std::vector<const SPCView*> views;
  for (const std::string& name : spec.view_names) {
    views.push_back(&spec.views.at(name).disjuncts.front());
  }
  PropCoverOptions options;
  options.input_mincover = false;
  size_t next = 0;
  for (auto _ : state) {
    auto r = PropagationCoverSPC(spec.catalog, *views[next], *sigma, options);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->cover.data());
    next = (next + 1) % views.size();
  }
}
BENCHMARK(BM_PropagationCoverTenant)->Unit(benchmark::kMicrosecond);

// churn-write's tenant 0 (seed 1): |Σ| = 256 minimized once (and
// grouped, as the engine serves it), 16 SPC views V0..V15 and the 16
// unions U_i = V_i ∪ V_{i+1}.
struct ChurnTenant {
  Spec spec;
  std::vector<CFD> sigma;
  std::optional<SigmaGroups> groups;  // over `sigma`
  std::vector<const SPCView*> views;
  std::vector<const SPCUView*> unions;
};

ChurnTenant MakeChurnTenant() {
  gen::WorkloadPlan plan;
  plan.options.seed = 1;
  plan.options.num_cfds = 256;
  plan.options.num_views = 16;
  plan.with_unions = true;
  ChurnTenant t{gen::BuildTenantSpec(plan, 0), {}, {}, {}, {}};
  auto sigma = MinCoverSigma(t.spec.catalog, t.spec.source_cfds);
  if (!sigma.ok()) std::abort();
  t.sigma = std::move(sigma).value();
  auto groups = SigmaGroups::Make(&t.spec.catalog, t.sigma);
  if (!groups.ok()) std::abort();
  t.groups.emplace(std::move(groups).value());
  for (const std::string& name : t.spec.view_names) {
    const SPCUView& view = t.spec.views.at(name);
    if (view.disjuncts.size() == 1) {
      t.views.push_back(&view.disjuncts.front());
    } else {
      t.unions.push_back(&view);
    }
  }
  return t;
}

// The Σ version a mutation used to pay and the one it pays on a memo
// miss: SigmaVersionOf over churn-write's minimized Σ (whole:1) against
// SigmaGroupVersion of its first relation's group alone (whole:0).
void BM_SigmaVersion(benchmark::State& state) {
  ChurnTenant t = MakeChurnTenant();
  const ValuePool& pool = t.spec.catalog.pool();
  const bool whole = state.range(0) != 0;
  size_t group = 1;
  while (group < t.sigma.size() &&
         t.sigma[group].relation == t.sigma.front().relation) {
    ++group;
  }
  const std::span<const CFD> first(t.sigma.data(), group);
  for (auto _ : state) {
    SigmaVersion v =
        whole ? SigmaVersionOf(pool, t.sigma) : SigmaGroupVersion(pool, first);
    benchmark::DoNotOptimize(v);
  }
  state.counters["cfds"] =
      static_cast<double>(whole ? t.sigma.size() : group);
}
BENCHMARK(BM_SigmaVersion)
    ->ArgName("whole")
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMicrosecond);

// Fig. 2 line 2 on the churn-write views, one view per iteration.
void BM_ComputeEQ(benchmark::State& state) {
  ChurnTenant t = MakeChurnTenant();
  size_t next = 0;
  for (auto _ : state) {
    auto r = ComputeEQ(t.spec.catalog, *t.views[next], *t.groups);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->rep.data());
    next = (next + 1) % t.views.size();
  }
}
BENCHMARK(BM_ComputeEQ)->Unit(benchmark::kMicrosecond);

// Fig. 2 line 11 on the churn-write views: RBR over each view's Σ_V,
// built once; an iteration copies one Σ_V and eliminates its columns.
void BM_RBR(benchmark::State& state) {
  ChurnTenant t = MakeChurnTenant();
  std::vector<SigmaV> inputs;
  for (const SPCView* view : t.views) {
    auto eq = ComputeEQ(t.spec.catalog, *view, *t.groups);
    if (!eq.ok()) std::abort();
    if (eq->inconsistent) continue;
    auto sv = BuildSigmaV(t.spec.catalog, *view, *t.groups, *eq);
    if (!sv.ok()) std::abort();
    inputs.push_back(std::move(sv).value());
  }
  size_t next = 0;
  for (auto _ : state) {
    const SigmaV& in = inputs[next];
    auto r = RBR(in.cfds, in.drop, in.rep.size());
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->cover.data());
    next = (next + 1) % inputs.size();
  }
}
BENCHMARK(BM_RBR)->Unit(benchmark::kMicrosecond);

// Section 7's union assembly on the churn-write unions, the engine's
// k-partial-hit path: per-disjunct covers computed once, one union per
// iteration (the iteration copies its two covers).
void BM_AssembleUnionCover(benchmark::State& state) {
  ChurnTenant t = MakeChurnTenant();
  PropCoverOptions options;
  options.input_mincover = false;
  std::vector<std::vector<PropCoverResult>> per_union;
  for (const SPCUView* u : t.unions) {
    std::vector<PropCoverResult> per_disjunct;
    for (const SPCView& d : u->disjuncts) {
      auto r = PropagationCoverSPC(t.spec.catalog, d, *t.groups, options);
      if (!r.ok()) std::abort();
      per_disjunct.push_back(std::move(r).value());
    }
    per_union.push_back(std::move(per_disjunct));
  }
  size_t next = 0;
  for (auto _ : state) {
    auto r = AssembleUnionCover(t.spec.catalog, *t.unions[next], *t.groups,
                                per_union[next], options);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->cover.data());
    next = (next + 1) % t.unions.size();
  }
}
BENCHMARK(BM_AssembleUnionCover)->Unit(benchmark::kMicrosecond);

void BM_Emptiness(benchmark::State& state) {
  SchemaGenOptions schema_options;
  Catalog catalog = GenerateSchema(schema_options, 9);
  CFDGenOptions cfd_options;
  cfd_options.count = state.range(0);
  std::vector<CFD> sigma = GenerateCFDs(catalog, cfd_options, 10);
  ViewGenOptions view_options;
  auto view = GenerateSPCView(catalog, view_options, 11);
  if (!view.ok()) std::abort();

  for (auto _ : state) {
    auto r = IsAlwaysEmpty(catalog, *view, sigma);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*r);
  }
}
BENCHMARK(BM_Emptiness)
    ->ArgName("sigma")
    ->Arg(200)
    ->Arg(2000)
    ->Unit(benchmark::kMicrosecond);

void BM_ViewEvaluation(benchmark::State& state) {
  Catalog catalog;
  auto r1 = catalog.AddRelation("R", {"A", "B", "C"});
  auto r2 = catalog.AddRelation("S", {"D", "E"});
  if (!r1.ok() || !r2.ok()) std::abort();
  Database db(catalog);
  Rng rng(13);
  const size_t n = state.range(0);
  for (size_t i = 0; i < n; ++i) {
    (void)db.Insert(*r1, {catalog.pool().InternInt(rng.Below(n)),
                          catalog.pool().InternInt(rng.Below(50)),
                          catalog.pool().InternInt(rng.Below(n / 2 + 1))});
    (void)db.Insert(*r2, {catalog.pool().InternInt(rng.Below(n / 2 + 1)),
                          catalog.pool().InternInt(rng.Below(50))});
  }
  SPCViewBuilder b(catalog);
  size_t ra = b.AddAtom(*r1);
  size_t sa = b.AddAtom(*r2);
  (void)b.SelectEq(ra, "C", sa, "D");
  (void)b.Project(ra, "A");
  (void)b.Project(ra, "B");
  (void)b.Project(sa, "E");
  auto view = b.Build();
  if (!view.ok()) std::abort();

  size_t rows_out = 0;
  for (auto _ : state) {
    EvalOptions options;
    options.max_rows = 1u << 26;
    auto rows = Evaluate(db, *view, options);
    if (!rows.ok()) {
      state.SkipWithError(rows.status().ToString().c_str());
      return;
    }
    rows_out = rows->size();
    benchmark::DoNotOptimize(rows->data());
  }
  state.counters["rows"] = static_cast<double>(rows_out);
}
BENCHMARK(BM_ViewEvaluation)
    ->ArgName("rows")
    ->Arg(100)
    ->Arg(400)
    ->Arg(1600)
    ->Unit(benchmark::kMicrosecond);

void BM_ValidateCFD(benchmark::State& state) {
  Catalog catalog;
  auto rel = catalog.AddRelation("R", {"A", "B", "C", "D"});
  if (!rel.ok()) std::abort();
  Rng rng(17);
  std::vector<Tuple> rows;
  const size_t n = state.range(0);
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({catalog.pool().InternInt(rng.Below(n / 4 + 1)),
                    catalog.pool().InternInt(rng.Below(8)),
                    catalog.pool().InternInt(rng.Below(n)),
                    catalog.pool().InternInt(rng.Below(16))});
  }
  CFD cfd = CFD::Make(0, {0, 1},
                      {PatternValue::Wildcard(),
                       PatternValue::Constant(catalog.pool().InternInt(3))},
                      3, PatternValue::Wildcard())
                .value();
  for (auto _ : state) {
    auto v = FindViolations(rows, cfd, 4);
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(v->data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ValidateCFD)
    ->ArgName("rows")
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// The cover byte codec, one rung of the wire path: hot-read's tenant 0
// (seed 1, |Σ| = 120, 40 views) serves each view once, and the 40 covers
// make one SUBMIT_BATCH reply (a hot-read batch) and one snapshot of the
// same cache lines. Each case runs one direction of one format: the
// encoder from the serving pool, the decoder into a second pool (a
// client's, or a restarted process's cache) that already holds the
// texts after the first iteration, as on a long-lived connection.
void BM_CoverCodec(benchmark::State& state) {
  const bool snapshot = state.range(0) != 0;
  const bool decode = state.range(1) != 0;
  gen::WorkloadPlan plan;
  plan.options.seed = 1;
  plan.options.num_cfds = 120;
  plan.options.num_views = 40;
  Spec spec = gen::BuildTenantSpec(plan, 0);
  EngineOptions options;
  options.num_threads = 1;
  Engine engine(std::move(spec.catalog), options);
  if (!engine.RegisterSigma(spec.source_cfds).ok()) std::abort();
  std::vector<BatchResult> reply(1);
  for (const std::string& name : spec.view_names) {
    const SPCUView& view = spec.views.at(name);
    auto r = view.disjuncts.size() == 1
                 ? engine.Propagate(view.disjuncts.front(), 0)
                 : engine.PropagateUnion(view, 0);
    if (!r.ok()) std::abort();
    reply[0].results.push_back(std::move(r));
  }
  const ValuePool& pool = engine.catalog().pool();
  const std::string payload =
      net::EncodeSubmitBatchReply(Status::OK(), reply, pool);
  const std::string bytes = engine.SerializeSnapshot().bytes;
  ValuePool decode_pool;
  CoverCache cache(reply[0].results.size());
  const std::vector<SigmaVersion> live = {engine.sigma_version(0)};
  for (auto _ : state) {
    if (!snapshot && !decode) {
      std::string out = net::EncodeSubmitBatchReply(Status::OK(), reply, pool);
      benchmark::DoNotOptimize(out.data());
    } else if (!snapshot) {
      auto r = net::DecodeSubmitBatchReply(payload, decode_pool);
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(r->data());
    } else if (!decode) {
      SerializedSnapshot out = engine.SerializeSnapshot();
      benchmark::DoNotOptimize(out.bytes.data());
    } else {
      auto r = cache.LoadSnapshotBytes(bytes, decode_pool, live);
      if (!r.ok()) {
        state.SkipWithError(r.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(r->restored);
    }
  }
  state.counters["covers"] = static_cast<double>(reply[0].results.size());
  state.counters["bytes"] =
      static_cast<double>(snapshot ? bytes.size() : payload.size());
}
BENCHMARK(BM_CoverCodec)
    ->ArgNames({"snapshot", "decode"})
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace cfdprop_bench

BENCHMARK_MAIN();
