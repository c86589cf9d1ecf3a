// Golden MinCover output: pins FingerprintSigmaSet (order-sensitive, so
// it pins both the CFDs and their order) of the minimized Σ for the
// generated inputs the benchmarks minimize. MinCover's decisions are
// implication answers, so any change to the implication procedure must
// leave these values exactly as they are.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/cfd/mincover.h"
#include "src/cover/propcfd_spc.h"
#include "src/engine/snapshot.h"
#include "src/gen/generators.h"
#include "src/gen/workload.h"

namespace cfdprop {
namespace {

struct Golden {
  size_t num_cfds;
  uint64_t seed;
  size_t cover_cfds;
  uint64_t fingerprint;
};

// gen::BuildTenantSpec at perfbench's generator sizes: |Σ| = 120
// (hot-read, zipf-open) and 256 (churn-write), tenant 0. The view count
// does not reach Σ, so one view keeps the test quick.
TEST(MinCoverGoldenTest, TenantSpecSigma) {
  const Golden kGolden[] = {
      {120, 1, 120, 12316037811957471943u},
      {120, 2, 120, 4468742559077417269u},
      {256, 1, 256, 15364903114176562715u},
      {256, 2, 256, 12846391939406879656u},
  };
  for (const Golden& g : kGolden) {
    gen::WorkloadPlan plan;
    plan.options.seed = g.seed;
    plan.options.num_cfds = g.num_cfds;
    plan.options.num_views = 1;
    Spec spec = gen::BuildTenantSpec(plan, 0);
    auto cover = MinCoverSigma(spec.catalog, spec.source_cfds);
    ASSERT_TRUE(cover.ok()) << cover.status();
    EXPECT_EQ(cover->size(), g.cover_cfds)
        << "|Σ|=" << g.num_cfds << " seed=" << g.seed;
    EXPECT_EQ(FingerprintSigmaSet(spec.catalog.pool(), *cover),
              g.fingerprint)
        << "|Σ|=" << g.num_cfds << " seed=" << g.seed;
  }
}

// BM_MinCover's inputs (bench/bench_micro_substrate.cpp): one relation
// of arity 12, LHS 1-4, 50% wildcards, schema seed 7, CFD seed 8.
TEST(MinCoverGoldenTest, SingleRelationSigma) {
  const Golden kGolden[] = {
      {16, 7, 16, 18126600391440556003u},
      {64, 7, 60, 14521819662183891519u},
      {256, 7, 194, 9523449894760630659u},
  };
  for (const Golden& g : kGolden) {
    SchemaGenOptions schema_options;
    schema_options.num_relations = 1;
    schema_options.min_arity = 12;
    schema_options.max_arity = 12;
    Catalog catalog = GenerateSchema(schema_options, g.seed);
    CFDGenOptions cfd_options;
    cfd_options.count = g.num_cfds;
    cfd_options.min_lhs = 1;
    cfd_options.max_lhs = 4;
    cfd_options.var_pct = 50;
    std::vector<CFD> sigma = GenerateCFDs(catalog, cfd_options, g.seed + 1);
    auto cover = MinCover(sigma, 12);
    ASSERT_TRUE(cover.ok()) << cover.status();
    EXPECT_EQ(cover->size(), g.cover_cfds) << "σ=" << g.num_cfds;
    EXPECT_EQ(FingerprintSigmaSet(catalog.pool(), *cover), g.fingerprint)
        << "σ=" << g.num_cfds;
  }
}

}  // namespace
}  // namespace cfdprop
