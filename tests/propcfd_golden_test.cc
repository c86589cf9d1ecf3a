// Golden PropCFD_SPC output. The differential suites compare the engine
// with the one-shot path, and both call PropagationCoverSPC, so neither
// sees a change to the cover itself. These digests do: per view they
// absorb FingerprintSigmaSet of the cover (order-sensitive, so it pins
// the CFDs and their order) together with sigma_v_size, rbr_output_size,
// always_empty and truncated. Any rewrite of Fig. 2 must leave every
// value here exactly as it is.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/hash.h"
#include "src/cover/propcfd_spc.h"
#include "src/engine/snapshot.h"
#include "src/gen/generators.h"
#include "src/gen/workload.h"

namespace cfdprop {
namespace {

/// The introspection of a run of covers, folded in request order.
struct Digest {
  size_t covers = 0;
  size_t sigma_v = 0;    // sum of sigma_v_size
  size_t rbr_out = 0;    // sum of rbr_output_size
  size_t empty = 0;      // covers with always_empty
  size_t truncated = 0;  // covers with truncated
  uint64_t hash = 0;     // FNV-1a over every cover's values, in order

  bool operator==(const Digest&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Digest& d) {
  return os << "{" << d.covers << ", " << d.sigma_v << ", " << d.rbr_out
            << ", " << d.empty << ", " << d.truncated << ", " << d.hash
            << "u}";
}

class DigestBuilder {
 public:
  void Add(const ValuePool& pool, const PropCoverResult& r) {
    ++d_.covers;
    d_.sigma_v += r.sigma_v_size;
    d_.rbr_out += r.rbr_output_size;
    d_.empty += r.always_empty ? 1 : 0;
    d_.truncated += r.truncated ? 1 : 0;
    h_.Mix(FingerprintSigmaSet(pool, r.cover));
    h_.Mix(r.sigma_v_size);
    h_.Mix(r.rbr_output_size);
    h_.Mix(static_cast<uint64_t>(r.always_empty));
    h_.Mix(static_cast<uint64_t>(r.truncated));
  }
  Digest Finish() {
    d_.hash = h_.digest();
    return d_;
  }

 private:
  Digest d_;
  Fnv1aHasher h_;
};

/// The engine's miss path: Σ minimized once, as at registration.
PropCoverOptions EngineOptions() {
  PropCoverOptions options;
  options.input_mincover = false;
  return options;
}

/// perfbench's churn CFD: the first plain FD [0, 1] -> k of relation 0
/// (k >= 2) that Σ does not already hold.
CFD ChurnCfd(const std::vector<CFD>& sigma) {
  for (AttrIndex rhs = 2;; ++rhs) {
    CFD fd = CFD::FD(0, {0, 1}, rhs).value();
    if (std::find(sigma.begin(), sigma.end(), fd) == sigma.end()) return fd;
  }
}

struct TenantGolden {
  uint64_t seed;
  size_t tenant;
  Digest digest;
};

// zipf-open's generator sizes: |Σ| = 120, 96 views, every V* view of
// tenants 0-3 in name order.
TEST(PropCfdGoldenTest, ZipfOpenTenantViews) {
  const TenantGolden kGolden[] = {
      {1, 0, {96, 1847, 141, 0, 0, 10638107099704699654u}},
      {1, 1, {96, 1804, 195, 0, 0, 10926464306790442160u}},
      {1, 2, {96, 1905, 111, 0, 0, 11396358032953104050u}},
      {1, 3, {96, 1855, 97, 0, 0, 15642642874090951201u}},
      {2, 0, {96, 1918, 82, 0, 0, 6045131284512089907u}},
      {2, 1, {96, 1843, 121, 0, 0, 13217734605508203570u}},
      {2, 2, {96, 1809, 152, 0, 0, 3744825364974300748u}},
      {2, 3, {96, 1900, 124, 0, 0, 1443835389759988023u}},
  };
  for (const TenantGolden& g : kGolden) {
    gen::WorkloadPlan plan;
    plan.options.seed = g.seed;
    plan.options.num_cfds = 120;
    plan.options.num_views = 96;
    Spec spec = gen::BuildTenantSpec(plan, g.tenant);
    auto sigma = MinCoverSigma(spec.catalog, spec.source_cfds);
    ASSERT_TRUE(sigma.ok()) << sigma.status();
    DigestBuilder digest;
    for (const std::string& name : spec.view_names) {
      const SPCView& view = spec.views.at(name).disjuncts.front();
      auto r = PropagationCoverSPC(spec.catalog, view, *sigma,
                                   EngineOptions());
      ASSERT_TRUE(r.ok()) << name << ": " << r.status();
      digest.Add(spec.catalog.pool(), *r);
    }
    EXPECT_EQ(digest.Finish(), g.digest)
        << "seed=" << g.seed << " tenant=" << g.tenant;
  }
}

struct ChurnGolden {
  size_t tenant;
  bool with_churn_cfd;
  Digest digest;
};

// churn-write's generator sizes: |Σ| = 256, 16 views plus the 16 unions,
// every V* and U* view in name order, for Σ without and with the churn
// FD, seed 1.
TEST(PropCfdGoldenTest, ChurnWriteTenantViews) {
  const ChurnGolden kGolden[] = {
      {0, false, {32, 2091, 177, 0, 0, 4805570792175704352u}},
      {0, true, {32, 2097, 177, 0, 0, 17594055431890560258u}},
      {1, false, {32, 2046, 231, 0, 0, 4342008733860115671u}},
      {1, true, {32, 2055, 231, 0, 0, 12749998939083130258u}},
  };
  for (const ChurnGolden& g : kGolden) {
    gen::WorkloadPlan plan;
    plan.options.seed = 1;
    plan.options.num_cfds = 256;
    plan.options.num_views = 16;
    plan.with_unions = true;
    Spec spec = gen::BuildTenantSpec(plan, g.tenant);
    std::vector<CFD> raw = spec.source_cfds;
    if (g.with_churn_cfd) raw.push_back(ChurnCfd(spec.source_cfds));
    auto sigma = MinCoverSigma(spec.catalog, std::move(raw));
    ASSERT_TRUE(sigma.ok()) << sigma.status();
    DigestBuilder digest;
    for (const std::string& name : spec.view_names) {
      const SPCUView& view = spec.views.at(name);
      auto r = view.disjuncts.size() > 1
                   ? PropagationCoverSPCU(spec.catalog, view, *sigma,
                                          EngineOptions())
                   : PropagationCoverSPC(spec.catalog, view.disjuncts.front(),
                                         *sigma, EngineOptions());
      ASSERT_TRUE(r.ok()) << name << ": " << r.status();
      digest.Add(spec.catalog.pool(), *r);
    }
    EXPECT_EQ(digest.Finish(), g.digest)
        << "tenant=" << g.tenant << " churn=" << g.with_churn_cfd;
  }
}

struct Fig8Golden {
  size_t max_cover_size;
  Digest digest;
};

// A Fig. 8 product workload: bench_util.h's MakeWorkload at |Ec| = 4,
// var% = 40 (|Σ| = 2000, LHS 3-9, |Y| = 25, |F| = 10, seed 42), with the
// input MinCover on, as the fig benches run it, under
// OnBudget::kTruncate: once at the default budget and once with a
// budget RBR hits, so the truncated subset and its order are pinned.
TEST(PropCfdGoldenTest, Fig8ProductTruncate) {
  const Fig8Golden kGolden[] = {
      {RBROptions{}.max_cover_size, {1, 542, 92, 0, 0, 3272788745914995049u}},
      {64, {1, 542, 71, 0, 1, 1503299890344132071u}},
  };
  const uint64_t seed = 42;
  Catalog catalog = GenerateSchema(SchemaGenOptions{}, seed);
  CFDGenOptions cfd_options;
  cfd_options.count = 2000;
  cfd_options.min_lhs = 3;
  cfd_options.max_lhs = 9;
  cfd_options.var_pct = 40;
  std::vector<CFD> sigma = GenerateCFDs(catalog, cfd_options, seed + 1);
  ViewGenOptions view_options;
  view_options.num_projection = 25;
  view_options.num_selections = 10;
  view_options.num_atoms = 4;
  auto view = GenerateSPCView(catalog, view_options, seed + 2);
  ASSERT_TRUE(view.ok()) << view.status();
  for (const Fig8Golden& g : kGolden) {
    PropCoverOptions options;
    options.rbr.on_budget = RBROptions::OnBudget::kTruncate;
    options.rbr.max_cover_size = g.max_cover_size;
    auto r = PropagationCoverSPC(catalog, *view, sigma, options);
    ASSERT_TRUE(r.ok()) << r.status();
    DigestBuilder digest;
    digest.Add(catalog.pool(), *r);
    EXPECT_EQ(digest.Finish(), g.digest)
        << "max_cover_size=" << g.max_cover_size;
  }
}

}  // namespace
}  // namespace cfdprop
