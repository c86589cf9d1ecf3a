// Shared workload construction for the benchmark suite, following the
// experimental setting of Section 5: source schemas with at least 10
// relations of 10-20 attributes, CFD generator parameters (m, LHS,
// var%), SPC view generator parameters (|Y|, |F|, |Ec|), constants drawn
// from [1, 100000].

#ifndef CFDPROP_BENCH_BENCH_UTIL_H_
#define CFDPROP_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/cover/propcfd_spc.h"
#include "src/gen/generators.h"

namespace cfdprop_bench {

using namespace cfdprop;

struct Workload {
  Catalog catalog;
  std::vector<CFD> sigma;
  SPCView view;
};

struct WorkloadParams {
  size_t num_cfds = 2000;      // |Sigma|
  uint32_t var_pct = 40;       // var%
  size_t max_lhs = 9;          // LHS
  size_t num_projection = 25;  // |Y|
  size_t num_selections = 10;  // |F|
  size_t num_atoms = 4;        // |Ec|
  uint64_t seed = 42;
};

inline Workload MakeWorkload(const WorkloadParams& p) {
  SchemaGenOptions schema_options;  // 10 relations, 10-20 attributes
  Workload w{GenerateSchema(schema_options, p.seed), {}, {}};

  CFDGenOptions cfd_options;
  cfd_options.count = p.num_cfds;
  cfd_options.min_lhs = 3;
  cfd_options.max_lhs = p.max_lhs;
  cfd_options.var_pct = p.var_pct;
  w.sigma = GenerateCFDs(w.catalog, cfd_options, p.seed + 1);

  ViewGenOptions view_options;
  view_options.num_projection = p.num_projection;
  view_options.num_selections = p.num_selections;
  view_options.num_atoms = p.num_atoms;
  auto view = GenerateSPCView(w.catalog, view_options, p.seed + 2);
  if (!view.ok()) {
    std::fprintf(stderr, "view generation failed: %s\n",
                 view.status().ToString().c_str());
    std::abort();
  }
  w.view = std::move(view).value();
  return w;
}

/// Runs PropCFD_SPC once and records the paper's reported quantities as
/// benchmark counters: the cardinality of the minimal propagation cover
/// (Figs. 5b/6b/7b/8b) next to the runtime (Figs. 5a/6a/7a/8a).
inline void RunCoverBenchmark(benchmark::State& state,
                              const WorkloadParams& params) {
  Workload w = MakeWorkload(params);
  PropCoverOptions options;
  options.rbr.on_budget = RBROptions::OnBudget::kTruncate;

  size_t cover_size = 0, sigma_v = 0;
  bool truncated = false, always_empty = false;
  for (auto _ : state) {
    auto result = PropagationCoverSPC(w.catalog, w.view, w.sigma, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result->cover.data());
    cover_size = result->cover.size();
    sigma_v = result->sigma_v_size;
    truncated = result->truncated;
    always_empty = result->always_empty;
  }
  state.counters["cover_cfds"] = static_cast<double>(cover_size);
  state.counters["sigma_v"] = static_cast<double>(sigma_v);
  state.counters["truncated"] = truncated ? 1 : 0;
  state.counters["always_empty"] = always_empty ? 1 : 0;
}

}  // namespace cfdprop_bench

#endif  // CFDPROP_BENCH_BENCH_UTIL_H_
