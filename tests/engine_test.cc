#include "src/engine/engine.h"

#include <gtest/gtest.h>

#include "src/cover/propcfd_spc.h"
#include "src/engine/cover_cache.h"
#include "src/gen/generators.h"

namespace cfdprop {
namespace {

/// Builds the shared test catalog: R(A,B,C,D), S(E,F).
Catalog MakeCatalog() {
  Catalog cat;
  EXPECT_TRUE(cat.AddRelation("R", {"A", "B", "C", "D"}).ok());
  EXPECT_TRUE(cat.AddRelation("S", {"E", "F"}).ok());
  return cat;
}

std::vector<CFD> MakeSigma() {
  return {CFD::FD(0, {0}, 1).value(),   // R: A -> B
          CFD::FD(0, {1}, 2).value(),   // R: B -> C
          CFD::FD(1, {0}, 1).value()};  // S: E -> F
}

/// pi(A, C) from R, with an optional selection constant on D.
SPCView MakeView(Catalog& cat, const char* d_const = nullptr) {
  SPCViewBuilder b(cat);
  size_t r = b.AddAtom(0);
  if (d_const != nullptr) EXPECT_TRUE(b.SelectConst(r, "D", d_const).ok());
  EXPECT_TRUE(b.Project(r, "A").ok());
  EXPECT_TRUE(b.Project(r, "C").ok());
  auto v = b.Build();
  EXPECT_TRUE(v.ok());
  return *v;
}

TEST(EngineTest, CacheHitReturnsIdenticalCoverToColdPath) {
  Engine engine(MakeCatalog(), {});
  auto sigma_id = engine.RegisterSigma(MakeSigma());
  ASSERT_TRUE(sigma_id.ok());
  SPCView view = MakeView(engine.catalog());

  auto cold = engine.Propagate(view, *sigma_id);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_FALSE(cold->cache_hit);

  auto hit = engine.Propagate(view, *sigma_id);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_EQ(hit->fingerprint, cold->fingerprint);
  EXPECT_EQ(hit->cover->cover, cold->cover->cover);

  // And both match the one-shot pipeline run directly.
  auto direct = PropagationCoverSPC(engine.catalog(), view, MakeSigma());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(cold->cover->cover, direct->cover);

  EngineStatsSnapshot stats = engine.Stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
}

TEST(EngineTest, EquivalentViewVariantHitsTheCache) {
  Engine engine(MakeCatalog(), {});
  auto sigma_id = engine.RegisterSigma(MakeSigma());
  ASSERT_TRUE(sigma_id.ok());

  // Same query, different output names and selection spelling.
  SPCView v1, v2;
  {
    SPCViewBuilder b(engine.catalog());
    size_t r = b.AddAtom(0);
    EXPECT_TRUE(b.SelectConst(r, "D", "5").ok());
    EXPECT_TRUE(b.Project(r, "A", "first").ok());
    EXPECT_TRUE(b.Project(r, "C", "second").ok());
    v1 = *b.Build();
  }
  {
    SPCViewBuilder b(engine.catalog());
    size_t r = b.AddAtom(0);
    EXPECT_TRUE(b.SelectConst(r, "D", "5").ok());
    EXPECT_TRUE(b.SelectConst(r, "D", "5").ok());  // duplicate conjunct
    EXPECT_TRUE(b.Project(r, "A", "x").ok());
    EXPECT_TRUE(b.Project(r, "C", "y").ok());
    v2 = *b.Build();
  }
  auto r1 = engine.Propagate(v1, *sigma_id);
  auto r2 = engine.Propagate(v2, *sigma_id);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_FALSE(r1->cache_hit);
  EXPECT_TRUE(r2->cache_hit);
  EXPECT_EQ(r1->cover->cover, r2->cover->cover);
}

TEST(EngineTest, SigmaSetsDoNotShareCacheLines) {
  Engine engine(MakeCatalog(), {});
  auto s1 = engine.RegisterSigma(MakeSigma());
  auto s2 = engine.RegisterSigma({CFD::FD(0, {0}, 2).value()});  // A -> C
  ASSERT_TRUE(s1.ok() && s2.ok());
  SPCView view = MakeView(engine.catalog());

  auto r1 = engine.Propagate(view, *s1);
  auto r2 = engine.Propagate(view, *s2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_FALSE(r2->cache_hit) << "second sigma set must not hit the first's"
                                 " cache line";
  EXPECT_NE(r1->fingerprint, r2->fingerprint);
}

TEST(EngineTest, RegistrationMinimizesSigma) {
  Engine engine(MakeCatalog(), {});
  // A -> B twice plus a redundant A -> C (implied by A -> B, B -> C).
  auto sigma_id = engine.RegisterSigma(
      {CFD::FD(0, {0}, 1).value(), CFD::FD(0, {0}, 1).value(),
       CFD::FD(0, {1}, 2).value(), CFD::FD(0, {0}, 2).value()});
  ASSERT_TRUE(sigma_id.ok());
  EXPECT_EQ(engine.sigma(*sigma_id)->size(), 2u);
}

TEST(EngineTest, RetractingARedundantCfdKeepsTheVersionAndItsLines) {
  Engine engine(MakeCatalog(), {});
  // RegistrationMinimizesSigma's set: one copy of A -> B is redundant,
  // so retracting it leaves the minimized set — and its version — as is.
  const CFD a_to_b = CFD::FD(0, {0}, 1).value();
  auto sigma_id = engine.RegisterSigma({a_to_b, a_to_b,
                                        CFD::FD(0, {1}, 2).value(),
                                        CFD::FD(0, {0}, 2).value()});
  ASSERT_TRUE(sigma_id.ok());
  const SigmaVersion registered = engine.sigma_version(*sigma_id);
  SPCView view = MakeView(engine.catalog());
  auto cold = engine.Propagate(view, *sigma_id);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->cache_hit);

  ASSERT_TRUE(engine.RetractCfd(*sigma_id, a_to_b).ok());
  EXPECT_EQ(engine.sigma_raw(*sigma_id).size(), 3u);
  EXPECT_EQ(engine.sigma_version(*sigma_id), registered);
  EXPECT_EQ(engine.Stats().cache.invalidations, 0u);
  auto warm = engine.Propagate(view, *sigma_id);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit) << "unchanged content keeps its lines";
  EXPECT_EQ(warm->cover->cover, cold->cover->cover);
}

TEST(EngineTest, RejectsInvalidInput) {
  Engine engine(MakeCatalog(), {});
  EXPECT_FALSE(engine.RegisterSigma({CFD::FD(7, {0}, 1).value()}).ok());
  SPCView view = MakeView(engine.catalog());
  EXPECT_FALSE(engine.Propagate(view, 0).ok());  // no sigma registered
}

TEST(EngineTest, BatchOrderDeterministicAcrossThreadCounts) {
  // A workload big enough that a racy pool would scramble something:
  // 24 generated views, served with 1 and with 4 threads.
  constexpr size_t kViews = 24;
  auto serve = [&](size_t threads) {
    SchemaGenOptions so;
    so.num_relations = 4;
    so.min_arity = 6;
    so.max_arity = 8;
    Catalog cat = GenerateSchema(so, /*seed=*/7);
    CFDGenOptions co;
    co.count = 40;
    co.min_lhs = 2;
    co.max_lhs = 4;
    std::vector<CFD> sigma = GenerateCFDs(cat, co, /*seed=*/8);

    EngineOptions options;
    options.num_threads = threads;
    Engine engine(std::move(cat), options);
    EXPECT_TRUE(engine.RegisterSigma(std::move(sigma)).ok());
    std::vector<Engine::Request> requests;
    ViewGenOptions vo;
    vo.num_projection = 6;
    vo.num_selections = 3;
    vo.num_atoms = 2;
    for (size_t i = 0; i < kViews; ++i) {
      auto v = GenerateSPCView(engine.catalog(), vo, /*seed=*/100 + i);
      EXPECT_TRUE(v.ok());
      requests.push_back({*v, 0});
    }
    auto results = engine.PropagateBatch(requests);
    EXPECT_EQ(results.size(), requests.size());
    std::vector<std::vector<CFD>> covers;
    for (auto& r : results) {
      EXPECT_TRUE(r.ok()) << r.status();
      covers.push_back(r.ok() ? r->cover->cover : std::vector<CFD>{});
    }
    return covers;
  };

  auto sequential = serve(1);
  auto parallel4 = serve(4);
  auto parallel8 = serve(8);
  EXPECT_EQ(sequential, parallel4);
  EXPECT_EQ(sequential, parallel8);
}

TEST(EngineTest, BatchDeduplicatesViaCache) {
  Engine engine(MakeCatalog(), {});
  auto sigma_id = engine.RegisterSigma(MakeSigma());
  ASSERT_TRUE(sigma_id.ok());
  SPCView view = MakeView(engine.catalog());

  std::vector<Engine::Request> requests(16, {view, *sigma_id});
  auto results = engine.PropagateBatch(requests);
  ASSERT_EQ(results.size(), 16u);
  size_t hits = 0;
  for (auto& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->cover->cover, results[0].value().cover->cover);
    hits += r->cache_hit ? 1 : 0;
  }
  // With the serial inline path (num_threads defaults to 4 but a pool
  // race may compute a few requests before the first insert lands),
  // at least one request computed and the rest mostly hit.
  EXPECT_GE(hits, 1u);
  EXPECT_EQ(engine.Stats().cache.insertions, 1u);
}

TEST(EngineTest, EvictionKeepsServingCorrectCovers) {
  EngineOptions options;
  options.cache_capacity = 2;
  options.cache_shards = 1;
  options.num_threads = 1;
  Engine engine(MakeCatalog(), options);
  auto sigma_id = engine.RegisterSigma(MakeSigma());
  ASSERT_TRUE(sigma_id.ok());

  SPCView v1 = MakeView(engine.catalog(), "1");
  SPCView v2 = MakeView(engine.catalog(), "2");
  SPCView v3 = MakeView(engine.catalog(), "3");

  auto r1 = engine.Propagate(v1, *sigma_id);
  auto r2 = engine.Propagate(v2, *sigma_id);
  auto r3 = engine.Propagate(v3, *sigma_id);  // evicts v1 (LRU)
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  EXPECT_EQ(engine.Stats().cache.evictions, 1u);
  EXPECT_EQ(engine.Stats().cache.entries, 2u);

  // The held result survives eviction; a re-request recomputes the same
  // cover as a fresh miss.
  auto r1_again = engine.Propagate(v1, *sigma_id);
  ASSERT_TRUE(r1_again.ok());
  EXPECT_FALSE(r1_again->cache_hit);
  EXPECT_EQ(r1_again->cover->cover, r1->cover->cover);

  // v3 was just inserted and v1 re-inserted: v2 is now the LRU victim,
  // so a v3 request still hits.
  auto r3_again = engine.Propagate(v3, *sigma_id);
  ASSERT_TRUE(r3_again.ok());
  EXPECT_TRUE(r3_again->cache_hit);
}

TEST(EngineTest, ClearCacheForcesRecompute) {
  Engine engine(MakeCatalog(), {});
  auto sigma_id = engine.RegisterSigma(MakeSigma());
  ASSERT_TRUE(sigma_id.ok());
  SPCView view = MakeView(engine.catalog());

  ASSERT_TRUE(engine.Propagate(view, *sigma_id).ok());
  engine.ClearCache();
  auto r = engine.Propagate(view, *sigma_id);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->cache_hit);
}

TEST(EngineTest, DisabledCacheAlwaysComputes) {
  EngineOptions options;
  options.use_cache = false;
  Engine engine(MakeCatalog(), options);
  auto sigma_id = engine.RegisterSigma(MakeSigma());
  ASSERT_TRUE(sigma_id.ok());
  SPCView view = MakeView(engine.catalog());

  auto r1 = engine.Propagate(view, *sigma_id);
  auto r2 = engine.Propagate(view, *sigma_id);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_FALSE(r1->cache_hit);
  EXPECT_FALSE(r2->cache_hit);
  EXPECT_EQ(r1->cover->cover, r2->cover->cover);
}

TEST(EngineTest, AlwaysEmptyViewsAreCachedWithTheFlag) {
  Engine engine(MakeCatalog(), {});
  auto sigma_id = engine.RegisterSigma(
      {CFD::Make(0, {0}, {PatternValue::Wildcard()}, 1,
                 PatternValue::Constant(engine.catalog().pool().Intern("b1")))
           .value()});
  ASSERT_TRUE(sigma_id.ok());

  SPCViewBuilder b(engine.catalog());
  size_t r = b.AddAtom(0);
  ASSERT_TRUE(b.SelectConst(r, "B", "b2").ok());  // contradicts sigma
  auto view = b.Build();
  ASSERT_TRUE(view.ok());

  auto cold = engine.Propagate(*view, *sigma_id);
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(cold->cover->always_empty);
  auto hit = engine.Propagate(*view, *sigma_id);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  EXPECT_TRUE(hit->cover->always_empty);
}

TEST(EngineTest, AddCfdInvalidatesOnlyTheMutatedSigma) {
  Engine engine(MakeCatalog(), {});
  auto s1 = engine.RegisterSigma(MakeSigma());
  auto s2 = engine.RegisterSigma({CFD::FD(0, {0}, 2).value()});  // A -> C
  ASSERT_TRUE(s1.ok() && s2.ok());
  SPCView view = MakeView(engine.catalog());

  ASSERT_TRUE(engine.Propagate(view, *s1).ok());
  ASSERT_TRUE(engine.Propagate(view, *s2).ok());
  EXPECT_EQ(engine.Stats().cache.entries, 2u);
  const SigmaVersion v1 = engine.sigma_version(*s1);
  const SigmaVersion v2 = engine.sigma_version(*s2);
  EXPECT_NE(v1, v2);

  // Mutate s1: only its cache line drops; s2's line keeps hitting.
  ASSERT_TRUE(engine.AddCfd(*s1, CFD::FD(0, {0}, 3).value()).ok());  // A -> D
  EXPECT_NE(engine.sigma_version(*s1), v1);
  EXPECT_EQ(engine.sigma_version(*s2), v2);
  EXPECT_EQ(engine.Stats().cache.invalidations, 1u);
  EXPECT_EQ(engine.Stats().cache.entries, 1u);

  auto r2 = engine.Propagate(view, *s2);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->cache_hit) << "the untouched sigma's line must survive";
  auto r1 = engine.Propagate(view, *s1);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->cache_hit) << "the mutated sigma must recompute";
  EXPECT_EQ(engine.Stats().sigma_mutations, 1u);
}

TEST(EngineTest, AddThenRetractRoundTripsTheCover) {
  Engine engine(MakeCatalog(), {});
  auto sigma_id = engine.RegisterSigma(MakeSigma());
  ASSERT_TRUE(sigma_id.ok());
  SPCView view = MakeView(engine.catalog());

  auto before = engine.Propagate(view, *sigma_id);
  ASSERT_TRUE(before.ok());
  const SigmaVersion registered = engine.sigma_version(*sigma_id);

  // A -> D is new information; with D unprojected it reshapes the raw
  // set (and the minimized cover) but must disappear again on retract.
  CFD added = CFD::FD(0, {0}, 3).value();
  ASSERT_TRUE(engine.AddCfd(*sigma_id, added).ok());
  EXPECT_EQ(engine.sigma_raw(*sigma_id).size(), 4u);
  EXPECT_NE(engine.sigma_version(*sigma_id), registered);
  auto during = engine.Propagate(view, *sigma_id);
  ASSERT_TRUE(during.ok());
  EXPECT_FALSE(during->cache_hit);

  ASSERT_TRUE(engine.RetractCfd(*sigma_id, added).ok());
  EXPECT_EQ(engine.sigma_raw(*sigma_id).size(), 3u);
  EXPECT_EQ(engine.sigma_version(*sigma_id), registered);
  auto after = engine.Propagate(view, *sigma_id);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cache_hit)
      << "the add dropped the registered version's line";
  EXPECT_EQ(after->cover->cover, before->cover->cover);
  const uint64_t invalidations = engine.Stats().cache.invalidations;
  EXPECT_EQ(invalidations, 2u);

  // Retracting something never registered is NotFound and changes
  // nothing (same version, no invalidation).
  EXPECT_FALSE(engine.RetractCfd(*sigma_id, added).ok());
  EXPECT_EQ(engine.sigma_version(*sigma_id), registered);
  EXPECT_EQ(engine.Stats().cache.invalidations, invalidations);
}

TEST(EngineTest, HeldCoversSurviveRetractionAndClear) {
  Engine engine(MakeCatalog(), {});
  auto sigma_id = engine.RegisterSigma(MakeSigma());
  ASSERT_TRUE(sigma_id.ok());
  SPCView view = MakeView(engine.catalog());

  auto held = engine.Propagate(view, *sigma_id);
  ASSERT_TRUE(held.ok());
  std::vector<CFD> copy = held->cover->cover;
  auto held_sigma = engine.sigma(*sigma_id);
  size_t sigma_size = held_sigma->size();

  ASSERT_TRUE(engine.RetractCfd(*sigma_id, MakeSigma()[0]).ok());
  engine.ClearCache();
  ASSERT_TRUE(engine.AddCfd(*sigma_id, MakeSigma()[0]).ok());

  // The handed-out cover and the sigma snapshot are shared_ptrs into
  // state the mutations replaced, not freed.
  EXPECT_EQ(held->cover->cover, copy);
  EXPECT_EQ(held_sigma->size(), sigma_size);
}

/// Two single-atom views over R differing in the selection constant on
/// D, plus a constant output column to discriminate them in the union.
SPCUView MakeUnion(Catalog& cat, const char* c1, const char* c2) {
  SPCUView u;
  for (const char* d_const : {c1, c2}) {
    SPCViewBuilder b(cat);
    size_t r = b.AddAtom(0);
    EXPECT_TRUE(b.SelectConst(r, "D", d_const).ok());
    EXPECT_TRUE(b.ProjectConstant("tag", d_const).ok());
    EXPECT_TRUE(b.Project(r, "A").ok());
    EXPECT_TRUE(b.Project(r, "C").ok());
    auto v = b.Build();
    EXPECT_TRUE(v.ok());
    u.disjuncts.push_back(*v);
  }
  return u;
}

TEST(EngineTest, UnionMatchesOneShotAndHitsOnRepeat) {
  Engine engine(MakeCatalog(), {});
  auto sigma_id = engine.RegisterSigma(MakeSigma());
  ASSERT_TRUE(sigma_id.ok());
  SPCUView u = MakeUnion(engine.catalog(), "1", "2");

  auto cold = engine.PropagateUnion(u, *sigma_id);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_FALSE(cold->cache_hit);
  EXPECT_EQ(cold->disjunct_count, 2u);
  EXPECT_EQ(cold->disjunct_hits, 0u);

  auto direct = PropagationCoverSPCU(engine.catalog(), u, MakeSigma());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(cold->cover->cover, direct->cover);

  auto warm = engine.PropagateUnion(u, *sigma_id);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->fingerprint, cold->fingerprint);
  EXPECT_EQ(warm->cover->cover, direct->cover);
  EXPECT_EQ(engine.Stats().union_requests, 2u);
}

TEST(EngineTest, UnionAssemblesFromPerDisjunctCacheLines) {
  Engine engine(MakeCatalog(), {});
  auto sigma_id = engine.RegisterSigma(MakeSigma());
  ASSERT_TRUE(sigma_id.ok());
  SPCUView u = MakeUnion(engine.catalog(), "1", "2");

  // Prime the per-SPC lines by serving the disjuncts individually.
  ASSERT_TRUE(engine.Propagate(u.disjuncts[0], *sigma_id).ok());
  ASSERT_TRUE(engine.Propagate(u.disjuncts[1], *sigma_id).ok());

  auto r = engine.PropagateUnion(u, *sigma_id);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->cache_hit) << "union line itself was never filled";
  EXPECT_EQ(r->disjunct_hits, 2u) << "both disjuncts must be partial hits";

  auto direct = PropagationCoverSPCU(engine.catalog(), u, MakeSigma());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(r->cover->cover, direct->cover);

  // And the reverse direction: a union serve fills the per-SPC lines, so
  // a later plain SPC request hits.
  SPCUView u2 = MakeUnion(engine.catalog(), "3", "4");
  ASSERT_TRUE(engine.PropagateUnion(u2, *sigma_id).ok());
  auto spc = engine.Propagate(u2.disjuncts[0], *sigma_id);
  ASSERT_TRUE(spc.ok());
  EXPECT_TRUE(spc->cache_hit);
}

TEST(EngineTest, UnionFingerprintIsOrderInsensitive) {
  Engine engine(MakeCatalog(), {});
  auto sigma_id = engine.RegisterSigma(MakeSigma());
  ASSERT_TRUE(sigma_id.ok());
  SPCUView u = MakeUnion(engine.catalog(), "1", "2");
  SPCUView swapped;
  swapped.disjuncts = {u.disjuncts[1], u.disjuncts[0]};

  auto r1 = engine.PropagateUnion(u, *sigma_id);
  auto r2 = engine.PropagateUnion(swapped, *sigma_id);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->fingerprint, r2->fingerprint);
  EXPECT_TRUE(r2->cache_hit) << "reordered disjuncts are the same union";
  EXPECT_EQ(r1->cover->cover, r2->cover->cover);
}

TEST(EngineTest, SingleDisjunctUnionDegeneratesToSpc) {
  Engine engine(MakeCatalog(), {});
  auto sigma_id = engine.RegisterSigma(MakeSigma());
  ASSERT_TRUE(sigma_id.ok());
  SPCView view = MakeView(engine.catalog());

  auto spc = engine.Propagate(view, *sigma_id);
  auto via_union = engine.PropagateUnion(SPCUView(view), *sigma_id);
  ASSERT_TRUE(spc.ok() && via_union.ok());
  EXPECT_EQ(via_union->fingerprint, spc->fingerprint);
  EXPECT_TRUE(via_union->cache_hit);
  EXPECT_EQ(engine.Stats().union_requests, 0u);

  EXPECT_FALSE(engine.PropagateUnion(SPCUView{}, *sigma_id).ok());
}

std::shared_ptr<CachedCover> CacheEntry(int tag) {
  auto c = std::make_shared<CachedCover>();
  c->cover.push_back(
      CFD::FD(kViewSchemaId, {0}, static_cast<AttrIndex>(tag)).value());
  return c;
}

TEST(CoverCacheTest, LruEvictionOrderAndStats) {
  CoverCache cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Insert(1, 10, CacheEntry(1));
  cache.Insert(2, 20, CacheEntry(2));
  ASSERT_NE(cache.Lookup(1, 10), nullptr);  // 1 becomes MRU
  cache.Insert(3, 30, CacheEntry(3));       // evicts 2
  EXPECT_EQ(cache.Lookup(2, 20), nullptr);
  EXPECT_NE(cache.Lookup(1, 10), nullptr);
  EXPECT_NE(cache.Lookup(3, 30), nullptr);

  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);

  cache.Clear();
  EXPECT_EQ(cache.Lookup(1, 10), nullptr);
  EXPECT_EQ(cache.Stats().entries, 0u);
}

TEST(CoverCacheTest, KeyCollisionIsAMissNotAWrongServe) {
  CoverCache cache(/*capacity=*/4, /*num_shards=*/1);
  cache.Insert(1, /*check=*/10, CacheEntry(1));
  // Same key, different check hash: a 64-bit key collision between two
  // non-equivalent requests. Lookup must miss rather than serve the
  // other request's cover.
  EXPECT_EQ(cache.Lookup(1, /*check=*/99), nullptr);
  EXPECT_NE(cache.Lookup(1, /*check=*/10), nullptr);

  // The colliding insert replaces the entry (latest wins)...
  auto other = CacheEntry(2);
  cache.Insert(1, /*check=*/99, other);
  EXPECT_EQ(cache.Lookup(1, /*check=*/10), nullptr);
  auto got = cache.Lookup(1, /*check=*/99);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->cover, other->cover);
  // ...and never double-counts capacity.
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(CoverCacheTest, VersionMismatchIsAMiss) {
  CoverCache cache(/*capacity=*/4, /*num_shards=*/1);
  const SigmaVersion v0{1, 2};
  const SigmaVersion v1{3, 4};
  cache.Insert(1, 10, CacheEntry(1), v0);
  // A lookup for other Σ content must not serve the cover, even though
  // key and check match — and half a version match is still a miss.
  EXPECT_EQ(cache.Lookup(1, 10, v1), nullptr);
  EXPECT_EQ(cache.Lookup(1, 10, SigmaVersion{1, 4}), nullptr);
  EXPECT_NE(cache.Lookup(1, 10, v0), nullptr);

  // An insert for the other version displaces the line (latest wins,
  // no double-count).
  cache.Insert(1, 10, CacheEntry(2), v1);
  EXPECT_EQ(cache.Lookup(1, 10, v0), nullptr);
  EXPECT_NE(cache.Lookup(1, 10, v1), nullptr);
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(CoverCacheTest, SetBudgetEvictsInLruOrder) {
  CoverCache cache(/*capacity=*/8, /*num_shards=*/1);
  for (uint64_t f = 1; f <= 8; ++f) {
    cache.Insert(f, 10 * f, CacheEntry(f));
  }
  ASSERT_NE(cache.Lookup(3, 30), nullptr);  // 3 becomes MRU
  EXPECT_EQ(cache.capacity(), 8u);

  // Shrink to 4: exactly the 4 least recently used entries (1, 2, 4, 5)
  // go, in LRU order; the refreshed 3 and the newest 6..8 stay.
  EXPECT_EQ(cache.SetBudget(4), 4u);
  EXPECT_EQ(cache.capacity(), 4u);
  for (uint64_t f : {1u, 2u, 4u, 5u}) {
    EXPECT_EQ(cache.Lookup(f, 10 * f), nullptr) << f;
  }
  for (uint64_t f : {3u, 6u, 7u, 8u}) {
    EXPECT_NE(cache.Lookup(f, 10 * f), nullptr) << f;
  }
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 4u) << "budget eviction counts as eviction";
  EXPECT_EQ(stats.entries, 4u);

  // The shrunk bound is enforced by later inserts...
  cache.Insert(9, 90, CacheEntry(9));
  EXPECT_EQ(cache.Stats().entries, 4u);
  // ...and growing back evicts nothing but opens the slots again.
  EXPECT_EQ(cache.SetBudget(6), 0u);
  cache.Insert(10, 100, CacheEntry(10));
  cache.Insert(11, 110, CacheEntry(11));
  EXPECT_EQ(cache.Stats().entries, 6u);

  // A zero budget clamps to one entry per shard, never zero.
  EXPECT_EQ(cache.SetBudget(0), 5u);
  EXPECT_EQ(cache.capacity(), 1u);
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(EngineTest, SetCacheBudgetShrinksLiveCacheDeterministically) {
  EngineOptions options;
  options.cache_capacity = 8;
  options.cache_shards = 1;
  Engine engine(MakeCatalog(), options);
  auto sigma_id = engine.RegisterSigma(MakeSigma());
  ASSERT_TRUE(sigma_id.ok());

  // Four distinct lines, then resize to 2: the two oldest go, the two
  // newest keep serving, and a held cover survives its own eviction.
  std::vector<SPCView> views;
  for (const char* d : {"1", "2", "3", "4"}) {
    views.push_back(MakeView(engine.catalog(), d));
  }
  auto held = engine.Propagate(views[0], *sigma_id);
  ASSERT_TRUE(held.ok());
  for (size_t i = 1; i < views.size(); ++i) {
    ASSERT_TRUE(engine.Propagate(views[i], *sigma_id).ok());
  }
  EXPECT_EQ(engine.Stats().cache.entries, 4u);

  EXPECT_EQ(engine.SetCacheBudget(2), 2u);
  EXPECT_EQ(engine.cache_capacity(), 2u);
  auto r0 = engine.Propagate(views[0], *sigma_id);
  auto r3 = engine.Propagate(views[3], *sigma_id);
  ASSERT_TRUE(r0.ok() && r3.ok());
  EXPECT_FALSE(r0->cache_hit) << "oldest line must have been evicted";
  EXPECT_TRUE(r3->cache_hit) << "newest line must have survived";
  EXPECT_EQ(r0->cover->cover, held->cover->cover)
      << "recompute after budget eviction is byte-identical";
}

TEST(EngineTest, BatchStatsReportEffectiveParallelism) {
  Engine engine(MakeCatalog(), {});
  auto sigma_id = engine.RegisterSigma(MakeSigma());
  ASSERT_TRUE(sigma_id.ok());
  std::vector<Engine::Request> requests;
  for (const char* d : {"1", "2", "3", "4", "5", "6"}) {
    requests.push_back({MakeView(engine.catalog(), d), *sigma_id});
  }
  for (auto& r : engine.PropagateBatch(requests)) ASSERT_TRUE(r.ok());

  EngineStatsSnapshot stats = engine.Stats();
  EXPECT_GT(stats.batch_wall_us, 0.0);
  EXPECT_GT(stats.batch_busy_us, 0.0);
  // Effective parallelism can never exceed the worker count (and on a
  // 1-CPU container it honestly sits near 1.0 regardless of workers).
  EXPECT_LE(stats.BatchParallelism(),
            static_cast<double>(engine.options().num_threads) + 0.5);
  EXPECT_NE(stats.ToString().find("par_eff="), std::string::npos);
}

TEST(CoverCacheTest, EraseVersionDropsOnlyThatVersion) {
  CoverCache cache(/*capacity=*/8, /*num_shards=*/1);
  const SigmaVersion v0{1, 2};
  const SigmaVersion v1{3, 4};
  cache.Insert(1, 10, CacheEntry(1), v0);
  cache.Insert(2, 20, CacheEntry(2), v1);
  cache.Insert(3, 30, CacheEntry(3), v0);

  EXPECT_EQ(cache.EraseVersion(v0), 2u);
  EXPECT_EQ(cache.Lookup(1, 10, v0), nullptr);
  EXPECT_EQ(cache.Lookup(3, 30, v0), nullptr);
  EXPECT_NE(cache.Lookup(2, 20, v1), nullptr);

  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.invalidations, 2u);
  EXPECT_EQ(stats.evictions, 0u) << "invalidation is not LRU pressure";
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(cache.EraseVersion(SigmaVersion{7, 7}), 0u);
}

}  // namespace
}  // namespace cfdprop
