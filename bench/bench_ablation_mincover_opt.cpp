// Ablation over PropCFD_SPC's design choices (Section 4.3):
//
//   * intermediate partitioned MinCover inside RBR (on/off, and the
//     partition size k0) — "removes redundant CFDs to an extent without
//     increasing the worst-case complexity";
//   * MinCover of the input Sigma (Fig. 2 line 1);
//   * folding class keys into Sigma_V (the constant-interaction
//     simplification behind the |F| trends of Fig. 7);
//   * the final MinCover (Fig. 2 line 13).
//
// Counters report the cover size each variant produces so the quality /
// time trade-off is visible (the variants are all covers of the same
// CFDp(Sigma, V); only minimality differs).

#include "bench/bench_util.h"

namespace cfdprop_bench {
namespace {

void RunVariant(benchmark::State& state, const PropCoverOptions& options) {
  WorkloadParams params;
  params.num_cfds = 1000;
  Workload w = MakeWorkload(params);

  size_t cover = 0, sigma_v = 0, rbr_out = 0;
  for (auto _ : state) {
    auto result = PropagationCoverSPC(w.catalog, w.view, w.sigma, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    cover = result->cover.size();
    sigma_v = result->sigma_v_size;
    rbr_out = result->rbr_output_size;
    benchmark::DoNotOptimize(result->cover.data());
  }
  state.counters["cover_cfds"] = static_cast<double>(cover);
  state.counters["sigma_v"] = static_cast<double>(sigma_v);
  state.counters["rbr_out"] = static_cast<double>(rbr_out);
}

void BM_Baseline(benchmark::State& state) {
  PropCoverOptions options;
  options.rbr.on_budget = RBROptions::OnBudget::kTruncate;
  RunVariant(state, options);
}

void BM_NoIntermediateMinCover(benchmark::State& state) {
  PropCoverOptions options;
  options.rbr.on_budget = RBROptions::OnBudget::kTruncate;
  options.rbr.intermediate_mincover = false;
  RunVariant(state, options);
}

void BM_PartitionSize(benchmark::State& state) {
  PropCoverOptions options;
  options.rbr.on_budget = RBROptions::OnBudget::kTruncate;
  options.rbr.mincover_partition = static_cast<size_t>(state.range(0));
  RunVariant(state, options);
}

void BM_NoInputMinCover(benchmark::State& state) {
  PropCoverOptions options;
  options.rbr.on_budget = RBROptions::OnBudget::kTruncate;
  options.input_mincover = false;
  RunVariant(state, options);
}

void BM_NoKeySimplification(benchmark::State& state) {
  PropCoverOptions options;
  options.rbr.on_budget = RBROptions::OnBudget::kTruncate;
  options.simplify_with_keys = false;
  RunVariant(state, options);
}

void BM_NoFinalMinCover(benchmark::State& state) {
  PropCoverOptions options;
  options.rbr.on_budget = RBROptions::OnBudget::kTruncate;
  options.final_mincover = false;
  RunVariant(state, options);
}

BENCHMARK(BM_Baseline)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NoIntermediateMinCover)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PartitionSize)
    ->ArgName("k0")
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NoInputMinCover)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NoKeySimplification)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NoFinalMinCover)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cfdprop_bench

BENCHMARK_MAIN();
