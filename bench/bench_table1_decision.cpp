// Tables 1 and 2: the dependency propagation *decision* problem across
// view-language fragments and settings.
//
// The tables are complexity results, so this benchmark measures the
// decision procedures that realize them:
//   * rows: view fragments S, P, C, SP, SC, PC, SPC, SPCU;
//   * source dependencies: FDs (Table 2 / top of Table 1) vs CFDs
//     (bottom of Table 1);
//   * settings: infinite-domain (PTIME chase) vs general (finite-domain
//     instantiation, coNP — watch the general-setting timings blow up
//     with the number of finite-domain attributes, which is the
//     exponential the theorems predict);
//   * BM_Theorem32: the branch search on the Theorem 3.2 reduction of a
//     satisfiable and an unsatisfiable 3SAT formula (the formulas of
//     tests/propagation_complexity_test.cc), whose unsatisfiable case
//     searches every instantiation.

#include <benchmark/benchmark.h>

#include <cstdlib>

#include "src/gen/generators.h"
#include "src/propagation/propagation.h"
#include "src/propagation/reductions.h"

namespace cfdprop_bench {
namespace {

using namespace cfdprop;

enum Fragment : int64_t { kS = 0, kP, kC, kSP, kSC, kPC, kSPC, kSPCU };

const char* FragmentName(int64_t f) {
  static const char* kNames[] = {"S", "P", "C", "SP", "SC", "PC", "SPC",
                                 "SPCU"};
  return kNames[f];
}

struct DecisionInstance {
  Catalog catalog;
  SPCUView view;
  std::vector<CFD> sigma;
  CFD phi;
};

/// Builds a decision instance for the given fragment. `cfd_sources`
/// selects CFDs (pattern constants) vs plain FDs; `finite_pct` > 0 puts
/// finite domains on that share of attributes.
DecisionInstance MakeInstance(int64_t fragment, bool cfd_sources,
                              uint32_t finite_pct, uint64_t seed) {
  SchemaGenOptions schema_options;
  schema_options.num_relations = 4;
  schema_options.min_arity = 8;
  schema_options.max_arity = 10;
  schema_options.finite_pct = finite_pct;
  schema_options.finite_domain_size = 2;
  DecisionInstance inst{GenerateSchema(schema_options, seed), {}, {}, {}};

  CFDGenOptions cfd_options;
  cfd_options.count = 40;
  cfd_options.min_lhs = 1;
  cfd_options.max_lhs = 3;
  cfd_options.var_pct = cfd_sources ? 50 : 100;  // 100% '_' = plain FDs
  inst.sigma = GenerateCFDs(inst.catalog, cfd_options, seed + 1);

  ViewGenOptions view_options;
  view_options.num_atoms =
      (fragment == kC || fragment == kSC || fragment == kPC ||
       fragment == kSPC || fragment == kSPCU)
          ? 3
          : 1;
  view_options.num_selections =
      (fragment == kS || fragment == kSP || fragment == kSC ||
       fragment == kSPC || fragment == kSPCU)
          ? 4
          : 0;
  bool project = fragment == kP || fragment == kSP || fragment == kPC ||
                 fragment == kSPC || fragment == kSPCU;
  view_options.num_projection = project ? 6 : SIZE_MAX;  // clamped to all

  auto v1 = GenerateSPCView(inst.catalog, view_options, seed + 2);
  if (!v1.ok()) std::abort();
  inst.view.disjuncts.push_back(std::move(v1).value());
  if (fragment == kSPCU) {
    // A union-compatible second disjunct (same |Y|).
    view_options.num_projection = inst.view.disjuncts[0].OutputArity();
    auto v2 = GenerateSPCView(inst.catalog, view_options, seed + 3);
    if (!v2.ok()) std::abort();
    inst.view.disjuncts.push_back(std::move(v2).value());
  }

  // Query CFD: first output column determines the second.
  size_t arity = inst.view.OutputArity();
  auto phi = CFD::FD(kViewSchemaId, {0}, arity > 1 ? 1 : 0);
  if (!phi.ok()) std::abort();
  inst.phi = std::move(phi).value();
  return inst;
}

void RunDecision(benchmark::State& state, bool cfd_sources,
                 bool general_setting) {
  const int64_t fragment = state.range(0);
  // The general setting needs finite domains to differ from the
  // infinite one; keep their count small or the coNP procedure explodes.
  const uint32_t finite_pct = general_setting ? 15 : 0;
  DecisionInstance inst =
      MakeInstance(fragment, cfd_sources, finite_pct, 7);

  PropagationOptions options;
  options.general_setting = general_setting;
  options.instantiation.max_instantiations = 1u << 22;

  bool propagated = false;
  for (auto _ : state) {
    auto r = IsPropagated(inst.catalog, inst.view, inst.sigma, inst.phi,
                          options);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    // The whole Result goes through DoNotOptimize: its "+m,r" form on
    // the bool answer left an undefined byte in it under GCC 12 -O2, and
    // so a wrong label.
    benchmark::DoNotOptimize(r);
    propagated = *r;
  }
  state.SetLabel(std::string(FragmentName(fragment)) +
                 (propagated ? "/propagated" : "/not-propagated"));
}

void BM_Table2_FDs_Infinite(benchmark::State& state) {
  RunDecision(state, /*cfd_sources=*/false, /*general_setting=*/false);
}
void BM_Table2_FDs_General(benchmark::State& state) {
  RunDecision(state, /*cfd_sources=*/false, /*general_setting=*/true);
}
void BM_Table1_CFDs_Infinite(benchmark::State& state) {
  RunDecision(state, /*cfd_sources=*/true, /*general_setting=*/false);
}
void BM_Table1_CFDs_General(benchmark::State& state) {
  RunDecision(state, /*cfd_sources=*/true, /*general_setting=*/true);
}

/// Arg 0: (x1 v x2) and (!x1 v x2), satisfiable; arg 1: (x1) and (x2) and
/// (!x1 v !x2), unsatisfiable.
void BM_Theorem32(benchmark::State& state) {
  using L = ThreeSat::Literal;
  const ThreeSat formula =
      state.range(0) == 0
          ? ThreeSat{2,
                     {{L{1, false}, L{2, false}, L{2, false}},
                      {L{1, true}, L{2, false}, L{2, false}}}}
          : ThreeSat{2,
                     {{L{1, false}, L{1, false}, L{1, false}},
                      {L{2, false}, L{2, false}, L{2, false}},
                      {L{1, true}, L{2, true}, L{1, true}}}};
  auto inst = BuildTheorem32Reduction(formula);
  if (!inst.ok()) std::abort();
  PropagationOptions options;
  options.general_setting = true;
  options.instantiation.max_instantiations = 1u << 24;

  bool propagated = false;
  for (auto _ : state) {
    auto r = IsPropagated(inst->catalog, inst->view, inst->sigma, inst->psi,
                          options);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r);  // not the bool: see RunDecision
    propagated = *r;
  }
  // phi is satisfiable iff Sigma does not propagate psi.
  state.SetLabel(propagated ? "unsatisfiable/propagated"
                            : "satisfiable/not-propagated");
}

BENCHMARK(BM_Table2_FDs_Infinite)
    ->ArgName("fragment")
    ->DenseRange(kS, kSPCU)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Table2_FDs_General)
    ->ArgName("fragment")
    ->DenseRange(kS, kSPCU)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Table1_CFDs_Infinite)
    ->ArgName("fragment")
    ->DenseRange(kS, kSPCU)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Table1_CFDs_General)
    ->ArgName("fragment")
    ->DenseRange(kS, kSPCU)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Theorem32)
    ->ArgName("unsat")
    ->DenseRange(0, 1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cfdprop_bench

BENCHMARK_MAIN();
