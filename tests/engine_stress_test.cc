// Concurrency stress: PropagateBatch racing AddCfd/RetractCfd from a
// mutator thread. Designed to run under ThreadSanitizer (the CI
// sanitizer jobs build with -fsanitize=thread): every data path the race
// can touch — sigma snapshots, cache lines, Σ version checks, stats —
// is exercised, and the served covers are checked against the only two
// covers that can be correct (sigma with and without the churned CFD),
// so a torn read would fail the assertion even without TSan.
//
// Everything that interns into the ValuePool (catalog construction,
// view building, CFD constants) happens before the threads start: the
// engine's thread-safety contract requires pre-built inputs, and TSan
// verifies the serving/mutation paths then never touch the pool.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/cover/propcfd_spc.h"
#include "src/engine/engine.h"

namespace cfdprop {
namespace {

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

SPCView MakeView(Catalog& cat, const char* d_const) {
  SPCViewBuilder b(cat);
  size_t r = b.AddAtom(0);
  EXPECT_TRUE(b.SelectConst(r, "D", d_const).ok());
  EXPECT_TRUE(b.Project(r, "A").ok());
  EXPECT_TRUE(b.Project(r, "C").ok());
  auto v = b.Build();
  EXPECT_TRUE(v.ok());
  return *v;
}

TEST(EngineStressTest, BatchesRaceMutatorWithoutTearingOrStaleServes) {
  EngineOptions options;
  options.num_threads = 4;
  options.cache_capacity = 64;
  Engine engine(MakeCatalog(), options);

  auto s0 = engine.RegisterSigma(MakeSigma());
  auto s1 = engine.RegisterSigma({CFD::FD(0, {0}, 2).value()});  // A -> C
  ASSERT_TRUE(s0.ok() && s1.ok());

  // The churned CFD and every view are built (and every constant
  // interned) before any thread starts.
  const CFD churned = CFD::FD(0, {0}, 3).value();  // R: A -> D
  std::vector<Engine::Request> requests;
  std::vector<SPCView> views;
  for (int i = 0; i < 6; ++i) {
    views.push_back(MakeView(engine.catalog(), std::to_string(i).c_str()));
    requests.push_back({views.back(), *s0});
    requests.push_back({views.back(), *s1});
  }
  SPCUView u01;
  u01.disjuncts = {views[0], views[1]};
  requests.push_back({u01, *s0});

  // The two covers each s0 request may legally serve: computed from the
  // base sigma and from the churned sigma. s1 is never mutated, so its
  // covers must stay pinned to one value throughout.
  auto one_shot_spc = [&](const SPCView& v, std::vector<CFD> sigma) {
    auto r = PropagationCoverSPC(engine.catalog(), v, std::move(sigma));
    EXPECT_TRUE(r.ok());
    return r.ok() ? r->cover : std::vector<CFD>{};
  };
  std::vector<CFD> with_churn = MakeSigma();
  with_churn.push_back(churned);
  std::vector<std::vector<CFD>> base_covers, churn_covers, s1_covers;
  for (const SPCView& v : views) {
    base_covers.push_back(one_shot_spc(v, MakeSigma()));
    churn_covers.push_back(one_shot_spc(v, with_churn));
    s1_covers.push_back(one_shot_spc(v, {CFD::FD(0, {0}, 2).value()}));
  }
  auto union_base = PropagationCoverSPCU(engine.catalog(), u01, MakeSigma());
  auto union_churn = PropagationCoverSPCU(engine.catalog(), u01, with_churn);
  ASSERT_TRUE(union_base.ok() && union_churn.ok());

  constexpr int kMutations = 40;
  constexpr int kBatchRounds = 30;
  std::atomic<bool> stop{false};

  std::thread mutator([&] {
    for (int i = 0; i < kMutations; ++i) {
      ASSERT_TRUE(engine.AddCfd(*s0, churned).ok());
      ASSERT_TRUE(engine.RetractCfd(*s0, churned).ok());
    }
    stop.store(true, std::memory_order_release);
  });

  // Race batches against the mutator, then keep serving until the churn
  // script finishes so late mutations are raced too.
  int rounds = 0;
  while (rounds < kBatchRounds || !stop.load(std::memory_order_acquire)) {
    auto results = engine.PropagateBatch(requests);
    ASSERT_EQ(results.size(), requests.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status();
      const std::vector<CFD>& got = results[i].value().cover->cover;
      if (i + 1 == results.size()) {
        EXPECT_TRUE(got == union_base->cover || got == union_churn->cover)
            << "union cover matches neither sigma state";
      } else if (requests[i].sigma_id == *s1) {
        EXPECT_EQ(got, s1_covers[i / 2])
            << "the unmutated sigma's covers must never change";
      } else {
        EXPECT_TRUE(got == base_covers[i / 2] || got == churn_covers[i / 2])
            << "cover matches neither the base nor the churned sigma";
      }
    }
    ++rounds;
  }
  mutator.join();

  // Quiesced: the churn round-tripped, so everything equals the base
  // covers again.
  auto final_results = engine.PropagateBatch(requests);
  for (size_t i = 0; i + 1 < final_results.size(); ++i) {
    ASSERT_TRUE(final_results[i].ok());
    const auto& got = final_results[i].value().cover->cover;
    EXPECT_EQ(got, requests[i].sigma_id == *s1 ? s1_covers[i / 2]
                                               : base_covers[i / 2]);
  }
  EXPECT_EQ(engine.Stats().sigma_mutations,
            static_cast<uint64_t>(2 * kMutations));
  EXPECT_EQ(engine.Stats().errors, 0u);
}

TEST(EngineStressTest, ConcurrentRegistrationAndServing) {
  EngineOptions options;
  options.num_threads = 2;
  Engine engine(MakeCatalog(), options);
  auto s0 = engine.RegisterSigma(MakeSigma());
  ASSERT_TRUE(s0.ok());
  SPCView view = MakeView(engine.catalog(), "7");

  // RegisterSigma is thread-safe against serving: new sets appear with
  // consecutive ids while requests against s0 keep succeeding.
  std::thread registrar([&] {
    for (int i = 0; i < 50; ++i) {
      auto id = engine.RegisterSigma({CFD::FD(1, {0}, 1).value()});
      ASSERT_TRUE(id.ok());
    }
  });
  for (int i = 0; i < 200; ++i) {
    auto r = engine.Propagate(view, *s0);
    ASSERT_TRUE(r.ok());
  }
  registrar.join();
  EXPECT_EQ(engine.num_sigmas(), 51u);
}

TEST(EngineStressTest, HeldCoversStayValidAcrossEvictionRetractionClear) {
  EngineOptions options;
  options.num_threads = 1;
  options.cache_capacity = 2;  // tiny: every serve evicts something
  options.cache_shards = 1;
  Engine engine(MakeCatalog(), options);
  auto s0 = engine.RegisterSigma(MakeSigma());
  ASSERT_TRUE(s0.ok());

  std::vector<SPCView> views;
  for (int i = 0; i < 8; ++i) {
    views.push_back(MakeView(engine.catalog(), std::to_string(i).c_str()));
  }

  // Hold every result while later serves evict, a retraction
  // invalidates, and Clear drops the rest.
  std::vector<EngineResult> held;
  std::vector<std::vector<CFD>> copies;
  for (const SPCView& v : views) {
    auto r = engine.Propagate(v, *s0);
    ASSERT_TRUE(r.ok());
    copies.push_back(r->cover->cover);
    held.push_back(std::move(r).value());
  }
  ASSERT_TRUE(engine.RetractCfd(*s0, MakeSigma()[1]).ok());
  engine.ClearCache();
  for (const SPCView& v : views) {
    ASSERT_TRUE(engine.Propagate(v, *s0).ok());
  }
  for (size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(held[i].cover->cover, copies[i])
        << "held cover " << i << " mutated or dangled";
  }
}

}  // namespace
}  // namespace cfdprop
