// Differential harness: the engine's cached serving paths must be
// *byte-identical* to the one-shot Fig. 2 algorithms, for randomized
// generator workloads (SPC and SPCU), cold, warm, and across
// AddCfd/RetractCfd churn. Any divergence — a stale cache line, a
// fingerprint collision handled wrong, a union assembled from the wrong
// per-disjunct covers — shows up as a cover mismatch here.
//
// The one-shot reference is always recomputed from engine.sigma_raw():
// the exact registered (pre-minimization) CFD list as mutated so far,
// run through PropagationCoverSPC/SPCU with input_mincover = true — the
// path a user without an engine would take.

#include <vector>

#include <gtest/gtest.h>

#include "src/cover/propcfd_spc.h"
#include "src/engine/engine.h"
#include "src/gen/generators.h"

namespace cfdprop {
namespace {

struct Workload {
  EngineOptions options;
  std::vector<SPCView> spc_views;
  std::vector<SPCUView> spcu_views;
  std::vector<CFD> churn;  // CFDs to add/retract, pre-built (no interning)
};

/// Builds an engine plus generated views/churn for one seed. All
/// interning happens here, before any serving.
std::unique_ptr<Engine> MakeEngine(uint64_t seed, Workload* w) {
  SchemaGenOptions so;
  so.num_relations = 4;
  so.min_arity = 6;
  so.max_arity = 8;
  Catalog cat = GenerateSchema(so, seed);

  CFDGenOptions co;
  co.count = 32;
  co.min_lhs = 1;
  co.max_lhs = 3;
  std::vector<CFD> sigma = GenerateCFDs(cat, co, seed + 1);

  // Churn CFDs drawn from the same generator with a disjoint seed, so
  // they are valid for the schema but (almost surely) not in sigma.
  CFDGenOptions churn_options = co;
  churn_options.count = 4;
  w->churn = GenerateCFDs(cat, churn_options, seed + 1000);

  auto engine = std::make_unique<Engine>(std::move(cat), w->options);
  EXPECT_TRUE(engine->RegisterSigma(std::move(sigma)).ok());

  ViewGenOptions vo;
  vo.num_projection = 5;
  vo.num_selections = 3;
  vo.num_atoms = 2;
  for (size_t i = 0; i < 6; ++i) {
    auto v = GenerateSPCView(engine->catalog(), vo, seed + 10 + i);
    EXPECT_TRUE(v.ok()) << v.status();
    if (!v.ok()) return nullptr;
    w->spc_views.push_back(std::move(v).value());
  }
  // Unions pair up generated views; equal num_projection makes every
  // pair union-compatible.
  for (size_t i = 0; i + 1 < w->spc_views.size(); i += 2) {
    SPCUView u;
    u.disjuncts = {w->spc_views[i], w->spc_views[i + 1]};
    EXPECT_TRUE(u.Validate(engine->catalog()).ok());
    w->spcu_views.push_back(std::move(u));
  }
  return engine;
}

/// Asserts every engine result equals the one-shot recomputation from
/// the engine's current raw sigma. `expect_hit` additionally pins the
/// cache behavior (nullopt = don't care).
void ExpectMatchesOneShot(Engine& engine, const Workload& w, SigmaId sid,
                          std::optional<bool> expect_hit,
                          const char* phase) {
  std::vector<CFD> raw = engine.sigma_raw(sid);
  for (size_t i = 0; i < w.spc_views.size(); ++i) {
    auto served = engine.Propagate(w.spc_views[i], sid);
    ASSERT_TRUE(served.ok()) << phase << " spc[" << i << "]: "
                             << served.status();
    auto direct = PropagationCoverSPC(engine.catalog(), w.spc_views[i], raw);
    ASSERT_TRUE(direct.ok()) << phase << " spc[" << i << "]";
    EXPECT_EQ(served->cover->cover, direct->cover)
        << phase << " spc[" << i << "]: cached cover diverged from one-shot";
    EXPECT_EQ(served->cover->always_empty, direct->always_empty)
        << phase << " spc[" << i << "]";
    if (expect_hit.has_value()) {
      EXPECT_EQ(served->cache_hit, *expect_hit)
          << phase << " spc[" << i << "]";
    }
  }
  for (size_t i = 0; i < w.spcu_views.size(); ++i) {
    auto served = engine.PropagateUnion(w.spcu_views[i], sid);
    ASSERT_TRUE(served.ok()) << phase << " spcu[" << i << "]: "
                             << served.status();
    auto direct =
        PropagationCoverSPCU(engine.catalog(), w.spcu_views[i], raw);
    ASSERT_TRUE(direct.ok()) << phase << " spcu[" << i << "]";
    EXPECT_EQ(served->cover->cover, direct->cover)
        << phase << " spcu[" << i << "]: cached union diverged from one-shot";
    EXPECT_EQ(served->cover->always_empty, direct->always_empty)
        << phase << " spcu[" << i << "]";
    if (expect_hit.has_value()) {
      EXPECT_EQ(served->cache_hit, *expect_hit)
          << phase << " spcu[" << i << "]";
    }
  }
}

class EngineDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineDifferentialTest, ColdWarmAndChurnedResultsMatchOneShot) {
  Workload w;
  w.options.num_threads = 1;
  auto engine = MakeEngine(GetParam(), &w);
  ASSERT_NE(engine, nullptr);
  const SigmaId sid = 0;

  // Cold: every request computes; warm: every request is served from the
  // cache — both must equal the one-shot pipeline.
  ExpectMatchesOneShot(*engine, w, sid, false, "cold");
  ExpectMatchesOneShot(*engine, w, sid, true, "warm");

  // Churn: after every add/retract the engine must serve covers for the
  // *current* sigma (cold again — the Σ version changed), still equal
  // to one-shot on the mutated raw set.
  for (const CFD& c : w.churn) {
    ASSERT_TRUE(engine->AddCfd(sid, c).ok());
    ExpectMatchesOneShot(*engine, w, sid, false, "post-add");
    ExpectMatchesOneShot(*engine, w, sid, true, "post-add warm");
  }
  for (const CFD& c : w.churn) {
    ASSERT_TRUE(engine->RetractCfd(sid, c).ok());
    ExpectMatchesOneShot(*engine, w, sid, std::nullopt, "post-retract");
  }

  // Full churn cycle undone: back to the registration-time covers.
  std::vector<CFD> raw = engine->sigma_raw(sid);
  auto final_result = engine->Propagate(w.spc_views[0], sid);
  auto reference = PropagationCoverSPC(engine->catalog(), w.spc_views[0],
                                       std::move(raw));
  ASSERT_TRUE(final_result.ok() && reference.ok());
  EXPECT_EQ(final_result->cover->cover, reference->cover);
}

TEST_P(EngineDifferentialTest, WorkerPoolServesSameCoversAsInline) {
  Workload inline_w, pooled_w;
  inline_w.options.num_threads = 1;
  pooled_w.options.num_threads = 4;
  auto inline_engine = MakeEngine(GetParam(), &inline_w);
  auto pooled_engine = MakeEngine(GetParam(), &pooled_w);
  ASSERT_NE(inline_engine, nullptr);
  ASSERT_NE(pooled_engine, nullptr);

  std::vector<Engine::Request> requests;
  for (const SPCView& v : inline_w.spc_views) requests.push_back({v, 0});
  for (const SPCUView& u : inline_w.spcu_views) requests.push_back({u, 0});

  auto a = inline_engine->PropagateBatch(requests);
  auto b = pooled_engine->PropagateBatch(requests);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok() && b[i].ok()) << "request " << i;
    EXPECT_EQ(a[i].value().cover->cover, b[i].value().cover->cover)
        << "request " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferentialTest,
                         ::testing::Values(3u, 17u, 99u));

}  // namespace
}  // namespace cfdprop
