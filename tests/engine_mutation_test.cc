// Mutation differential: AddCfd/RetractCfd re-minimize only the relation
// the CFD is on (MinCover of its group, or the engine's memo of it) and
// keep every other relation's minimized CFDs. After every step of seeded random add/retract
// sequences, the served Σ snapshot must be byte-identical to a full
// MinCoverSigma of the registered list, and its version must be the
// version of that content. The tenants are gen::BuildTenantSpec specs at
// churn-write's size (|Σ| = 256 over 10 relations); the added CFDs come
// from gen::GenerateCFDs on the same catalog, so every relation is
// mutated. The explicit cases pin the ways a mutation reorders groups:
// a group moving later, vanishing, and appearing at the end, plus the
// adds that must leave the version (and the cache) alone. The memo cases
// revisit groups (cycles, more groups than the memo holds, two engines
// reaching one Σ by different paths, concurrent mutators).

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/cover/propcfd_spc.h"
#include "src/engine/engine.h"
#include "src/engine/snapshot.h"
#include "src/gen/generators.h"
#include "src/gen/workload.h"

namespace cfdprop {
namespace {

constexpr size_t kTenants = 4;
constexpr size_t kSteps = 120;

struct Tenant {
  std::unique_ptr<Engine> engine;
  SigmaId id = 0;
  std::vector<CFD> extras;  // built before serving: no interning later
  SPCView view;
};

Tenant MakeTenant(uint64_t seed, size_t tenant) {
  gen::WorkloadPlan plan;
  plan.options.seed = seed;
  plan.options.tenants = 16;
  plan.options.num_cfds = 256;
  plan.options.num_views = 1;
  Spec spec = gen::BuildTenantSpec(plan, tenant);

  Tenant t;
  CFDGenOptions extra_options;
  extra_options.count = 40;  // four per relation on average
  t.extras = GenerateCFDs(spec.catalog, extra_options,
                          seed * 1000 + tenant + 7);
  t.view = spec.views.at(spec.view_names.front()).disjuncts.front();
  EngineOptions options;
  options.num_threads = 1;
  t.engine = std::make_unique<Engine>(std::move(spec.catalog), options);
  // Callers assert num_sigmas() == 1 before using `id`.
  auto id = t.engine->RegisterSigma(std::move(spec.source_cfds));
  EXPECT_TRUE(id.ok()) << id.status();
  if (id.ok()) t.id = *id;
  return t;
}

/// The served snapshot equals a full MinCoverSigma of the registered
/// list, and the version is that content's version.
void ExpectFullMinCover(const Tenant& t, const std::string& where) {
  const Engine& engine = *t.engine;
  auto full = MinCoverSigma(engine.catalog(), engine.sigma_raw(t.id));
  ASSERT_TRUE(full.ok()) << where << ": " << full.status();
  std::shared_ptr<const std::vector<CFD>> served = engine.sigma(t.id);
  ASSERT_EQ(*served, *full) << where;
  EXPECT_EQ(engine.sigma_version(t.id),
            SigmaVersionOf(engine.catalog().pool(), *served))
      << where;
}

/// The relations of `sigma` in first-seen order.
std::vector<RelationId> FirstSeen(const std::vector<CFD>& sigma) {
  std::vector<RelationId> order;
  for (const CFD& c : sigma) {
    if (std::find(order.begin(), order.end(), c.relation) == order.end()) {
      order.push_back(c.relation);
    }
  }
  return order;
}

class EngineMutationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineMutationTest, RandomAddRetractMatchesFullMinCover) {
  const uint64_t seed = GetParam();
  for (size_t tenant = 0; tenant < kTenants; ++tenant) {
    Tenant t = MakeTenant(seed, tenant);
    ASSERT_EQ(t.engine->num_sigmas(), 1u);
    Rng rng(seed * 131 + tenant);
    std::set<RelationId> touched;
    for (size_t step = 0; step < kSteps; ++step) {
      const std::string where = "seed " + std::to_string(seed) +
                                " tenant " + std::to_string(tenant) +
                                " step " + std::to_string(step);
      std::vector<CFD> raw = t.engine->sigma_raw(t.id);
      if (raw.empty() || rng.Below(2) == 0) {
        const CFD& cfd = t.extras[rng.Below(t.extras.size())];
        touched.insert(cfd.relation);
        ASSERT_TRUE(t.engine->AddCfd(t.id, cfd).ok()) << where;
      } else {
        const CFD& cfd = raw[rng.Below(raw.size())];
        touched.insert(cfd.relation);
        ASSERT_TRUE(t.engine->RetractCfd(t.id, cfd).ok()) << where;
      }
      ExpectFullMinCover(t, where);
      if (HasFatalFailure()) return;
    }
    EXPECT_EQ(touched.size(), t.engine->catalog().num_relations())
        << "every relation is mutated";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineMutationTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(EngineMutationCasesTest, RetractFirstSeenMovesTheGroupLater) {
  Tenant t = MakeTenant(1, 0);
  ASSERT_EQ(t.engine->num_sigmas(), 1u);
  const std::vector<CFD> raw = t.engine->sigma_raw(t.id);
  const RelationId first = raw.front().relation;
  std::vector<CFD> rest(raw.begin() + 1, raw.end());
  const std::vector<RelationId> after = FirstSeen(rest);
  // Precondition: the relation keeps CFDs, but no longer comes first.
  ASSERT_NE(std::find(after.begin(), after.end(), first), after.end());
  ASSERT_NE(after.front(), first);

  ASSERT_TRUE(t.engine->RetractCfd(t.id, raw.front()).ok());
  ExpectFullMinCover(t, "first-seen retract");
  EXPECT_NE(t.engine->sigma(t.id)->front().relation, first);
}

TEST(EngineMutationCasesTest, GroupVanishesThenReappearsAtTheEnd) {
  Tenant t = MakeTenant(1, 1);
  ASSERT_EQ(t.engine->num_sigmas(), 1u);
  const std::vector<CFD> raw = t.engine->sigma_raw(t.id);
  // The relation with the fewest CFDs other than the last one seen, so
  // its group reappearing at the end is a real move.
  const std::vector<RelationId> order = FirstSeen(raw);
  RelationId victim = order.front();
  size_t fewest = raw.size();
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    const size_t n = static_cast<size_t>(
        std::count_if(raw.begin(), raw.end(),
                      [&](const CFD& c) { return c.relation == order[i]; }));
    if (n < fewest) {
      fewest = n;
      victim = order[i];
    }
  }

  size_t left = fewest;
  for (const CFD& c : raw) {
    if (c.relation != victim) continue;
    ASSERT_TRUE(t.engine->RetractCfd(t.id, c).ok());
    ExpectFullMinCover(t, "retract " + std::to_string(--left) + " left");
    if (HasFatalFailure()) return;
  }
  for (const CFD& c : *t.engine->sigma(t.id)) {
    ASSERT_NE(c.relation, victim) << "the group vanished";
  }

  auto extra = std::find_if(t.extras.begin(), t.extras.end(),
                            [&](const CFD& c) { return c.relation == victim; });
  ASSERT_NE(extra, t.extras.end());
  ASSERT_TRUE(t.engine->AddCfd(t.id, *extra).ok());
  ExpectFullMinCover(t, "add to an empty relation");
  EXPECT_EQ(FirstSeen(*t.engine->sigma(t.id)).back(), victim);
}

TEST(EngineMutationCasesTest, DuplicateAddKeepsTheVersion) {
  Tenant t = MakeTenant(2, 0);
  ASSERT_EQ(t.engine->num_sigmas(), 1u);
  const std::vector<CFD> raw = t.engine->sigma_raw(t.id);
  const SigmaVersion before = t.engine->sigma_version(t.id);
  ASSERT_TRUE(t.engine->AddCfd(t.id, raw[raw.size() / 2]).ok());
  ExpectFullMinCover(t, "duplicate add");
  EXPECT_EQ(t.engine->sigma_raw(t.id).size(), raw.size() + 1);
  EXPECT_EQ(t.engine->sigma_version(t.id), before);
}

TEST(EngineMutationCasesTest, RedundantAddKeepsTheVersionAndTheCache) {
  Tenant t = MakeTenant(3, 0);
  ASSERT_EQ(t.engine->num_sigmas(), 1u);
  const std::vector<CFD> raw = t.engine->sigma_raw(t.id);
  std::shared_ptr<const std::vector<CFD>> sigma = t.engine->sigma(t.id);
  const SigmaVersion before = t.engine->sigma_version(t.id);

  // A minimized CFD with one wildcard LHS attribute added is implied by
  // the CFD itself; take the first such augmentation whose one-shot
  // minimization leaves Σ as it is.
  std::optional<CFD> redundant;
  for (size_t k = 0; k < sigma->size() && !redundant; ++k) {
    const CFD& c = (*sigma)[k];
    if (c.is_special_x()) continue;
    const size_t arity = t.engine->catalog().relation(c.relation).arity();
    for (AttrIndex a = 0; a < arity && !redundant; ++a) {
      if (a == c.rhs || c.FindLhs(a) != SIZE_MAX) continue;
      std::vector<AttrIndex> lhs = c.lhs;
      std::vector<PatternValue> pats = c.lhs_pats;
      lhs.push_back(a);
      pats.push_back(PatternValue::Wildcard());
      auto weaker = CFD::Make(c.relation, lhs, pats, c.rhs, c.rhs_pat);
      if (!weaker.ok()) continue;
      std::vector<CFD> grown = raw;
      grown.push_back(*weaker);
      auto full = MinCoverSigma(t.engine->catalog(), grown);
      if (full.ok() && *full == *sigma) redundant = *weaker;
    }
  }
  ASSERT_TRUE(redundant.has_value());

  ASSERT_TRUE(t.engine->Propagate(t.view, t.id).ok());
  const uint64_t invalidations = t.engine->Stats().cache.invalidations;
  ASSERT_TRUE(t.engine->AddCfd(t.id, *redundant).ok());
  ExpectFullMinCover(t, "redundant add");
  EXPECT_EQ(t.engine->sigma_version(t.id), before);
  EXPECT_EQ(t.engine->Stats().cache.invalidations, invalidations);
  auto again = t.engine->Propagate(t.view, t.id);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cache_hit);
}

/// One extra CFD per relation, for as many relations as have one.
std::vector<CFD> OneExtraPerRelation(const Tenant& t) {
  std::vector<CFD> picked;
  for (const CFD& c : t.extras) {
    if (std::none_of(picked.begin(), picked.end(), [&](const CFD& p) {
          return p.relation == c.relation;
        })) {
      picked.push_back(c);
    }
  }
  return picked;
}

TEST(EngineMutationMemoTest, CyclesHitTheMemoAndStayExact) {
  Tenant t = MakeTenant(4, 0);
  ASSERT_EQ(t.engine->num_sigmas(), 1u);
  std::vector<CFD> churn = OneExtraPerRelation(t);
  churn.resize(std::min<size_t>(churn.size(), 4));
  ASSERT_GE(churn.size(), 3u);

  // Add/retract cycles of one CFD per relation: the first add and the
  // first retract of each relation miss, every later step hits.
  for (const CFD& cfd : churn) {
    for (int cycle = 0; cycle < 3; ++cycle) {
      const std::string where = "relation " + std::to_string(cfd.relation) +
                                " cycle " + std::to_string(cycle);
      ASSERT_TRUE(t.engine->AddCfd(t.id, cfd).ok()) << where;
      ExpectFullMinCover(t, where + " add");
      ASSERT_TRUE(t.engine->RetractCfd(t.id, cfd).ok()) << where;
      ExpectFullMinCover(t, where + " retract");
      if (HasFatalFailure()) return;
    }
  }
  EngineStatsSnapshot stats = t.engine->Stats();
  EXPECT_EQ(stats.sigma_memo_hits, 4 * churn.size());
  EXPECT_EQ(stats.sigma_memo_lines, 2 * churn.size());

  // Interleaved A→B→A over several relations: every group state was
  // seen above, so every step hits.
  const uint64_t hits = stats.sigma_memo_hits;
  for (const CFD& cfd : churn) {
    ASSERT_TRUE(t.engine->AddCfd(t.id, cfd).ok());
    ExpectFullMinCover(t, "interleaved add");
  }
  for (const CFD& cfd : churn) {
    ASSERT_TRUE(t.engine->RetractCfd(t.id, cfd).ok());
    ExpectFullMinCover(t, "interleaved retract");
  }
  EXPECT_EQ(t.engine->Stats().sigma_memo_hits, hits + 2 * churn.size());
  EXPECT_EQ(t.engine->Stats().sigma_mutations, 8 * churn.size());
}

TEST(EngineMutationMemoTest, MoreGroupsThanTheBoundStayExact) {
  Tenant t = MakeTenant(5, 1);
  ASSERT_EQ(t.engine->num_sigmas(), 1u);
  ASSERT_GT(t.extras.size(), 2 * Engine::kSigmaMemoCapacity);
  // Each add makes a group no earlier step made: far more groups than
  // the memo holds.
  for (size_t k = 0; k < t.extras.size(); ++k) {
    const std::string where = "extra " + std::to_string(k);
    ASSERT_TRUE(t.engine->AddCfd(t.id, t.extras[k]).ok()) << where;
    ExpectFullMinCover(t, where + " add");
    EXPECT_LE(t.engine->Stats().sigma_memo_lines, Engine::kSigmaMemoCapacity);
    ASSERT_TRUE(t.engine->RetractCfd(t.id, t.extras[k]).ok()) << where;
    ExpectFullMinCover(t, where + " retract");
    EXPECT_LE(t.engine->Stats().sigma_memo_lines, Engine::kSigmaMemoCapacity);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(t.engine->Stats().sigma_memo_lines, Engine::kSigmaMemoCapacity);

  // The first add's group was the least recently used long ago: evicted,
  // so adding it again recomputes — and is still exact.
  const uint64_t hits = t.engine->Stats().sigma_memo_hits;
  ASSERT_TRUE(t.engine->AddCfd(t.id, t.extras.front()).ok());
  ExpectFullMinCover(t, "evicted group");
  EXPECT_EQ(t.engine->Stats().sigma_memo_hits, hits);
}

TEST(EngineMutationMemoTest, TwoPathsToOneSigmaShareVersionAndLines) {
  // `a` reaches Σ + φ − ψ by AddCfd/RetractCfd; `b` registers that list.
  Tenant a = MakeTenant(6, 2);
  Tenant b = MakeTenant(6, 2);
  ASSERT_EQ(a.engine->num_sigmas(), 1u);
  ASSERT_EQ(b.engine->num_sigmas(), 1u);
  const std::vector<CFD> raw = a.engine->sigma_raw(a.id);
  ASSERT_TRUE(a.engine->AddCfd(a.id, a.extras.front()).ok());
  ASSERT_TRUE(a.engine->RetractCfd(a.id, raw.front()).ok());
  ExpectFullMinCover(a, "mutated");

  std::vector<CFD> direct = b.engine->sigma_raw(b.id);
  direct.erase(direct.begin());
  direct.push_back(b.extras.front());
  auto registered = b.engine->RegisterSigma(std::move(direct));
  ASSERT_TRUE(registered.ok()) << registered.status();
  EXPECT_EQ(a.engine->sigma_version(a.id),
            b.engine->sigma_version(*registered));
  EXPECT_EQ(*a.engine->sigma(a.id), *b.engine->sigma(*registered));

  auto cold = a.engine->Propagate(a.view, a.id);
  ASSERT_TRUE(cold.ok()) << cold.status();
  const SerializedSnapshot spilled = a.engine->SerializeSnapshot();
  ASSERT_GT(spilled.lines, 0u);
  auto loaded = b.engine->LoadSnapshotBytes(spilled.bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->restored, spilled.lines);
  EXPECT_EQ(loaded->rejected, 0u);
  auto warm = b.engine->Propagate(b.view, *registered);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(warm->cache_hit);
  EXPECT_EQ(warm->cover->cover, cold->cover->cover);
}

TEST(EngineMutationMemoTest, ConcurrentMutatorsAndServing) {
  Tenant t = MakeTenant(2, 3);
  ASSERT_EQ(t.engine->num_sigmas(), 1u);
  auto second = t.engine->RegisterSigma(t.engine->sigma_raw(t.id));
  ASSERT_TRUE(second.ok()) << second.status();
  const std::vector<CFD> churn = OneExtraPerRelation(t);
  ASSERT_GE(churn.size(), 2u);

  constexpr int kRounds = 20;
  auto mutate = [&](SigmaId id, const CFD& cfd) {
    for (int round = 0; round < kRounds; ++round) {
      EXPECT_TRUE(t.engine->AddCfd(id, cfd).ok());
      EXPECT_TRUE(t.engine->RetractCfd(id, cfd).ok());
    }
  };
  std::thread first_mutator(mutate, t.id, churn[0]);
  std::thread second_mutator(mutate, *second, churn[1]);
  std::thread server([&] {
    for (int round = 0; round < kRounds; ++round) {
      EXPECT_TRUE(t.engine->Propagate(t.view, t.id).ok());
      EXPECT_TRUE(t.engine->Propagate(t.view, *second).ok());
    }
  });
  first_mutator.join();
  second_mutator.join();
  server.join();

  ExpectFullMinCover(t, "first set");
  EXPECT_EQ(*t.engine->sigma(t.id), *t.engine->sigma(*second));
  t.id = *second;
  ExpectFullMinCover(t, "second set");
  EngineStatsSnapshot stats = t.engine->Stats();
  EXPECT_EQ(stats.sigma_mutations, 4u * kRounds);
  EXPECT_GT(stats.sigma_memo_hits, 0u);
}

}  // namespace
}  // namespace cfdprop
