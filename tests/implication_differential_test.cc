// Differential test of the implication kernel against the
// SymbolicInstance chase. Implies sends every infinite-domain call to the
// kernel; with general_setting = true and all-infinite domains it takes
// the SymbolicInstance path instead, where ExistsChaseBranch finds no
// finite cell to branch on and so runs one Chase plus the goal check.
// The two must agree on every (Sigma, phi), and MinCover, whose output
// is a function of its implication answers, must produce identical
// covers on both.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/cfd/implication.h"
#include "src/cfd/mincover.h"

namespace cfdprop {
namespace {

class ImplicationDifferentialTest : public ::testing::Test {
 protected:
  ImplicationDifferentialTest() {
    for (const char* text : {"a", "b", "c"}) {
      consts_.push_back(pool_.Intern(text));
    }
  }

  PatternValue RandomPattern(Rng& rng, uint32_t wildcard_pct) {
    if (rng.Percent(wildcard_pct)) return PatternValue::Wildcard();
    return PatternValue::Constant(consts_[rng.Below(consts_.size())]);
  }

  /// A random normal-form CFD on relation 0: special-x (sometimes
  /// trivial), empty LHS, constants from a three-value pool (so
  /// constants collide and conflict) and wildcards. Some constant-RHS
  /// CFDs keep wildcard LHS entries that CFD::Make would drop: they are
  /// valid, and only the single-tuple rule on the second template row
  /// fires them there.
  CFD RandomCFD(Rng& rng, size_t arity) {
    if (rng.Percent(8)) {
      return CFD::Equality(0, static_cast<AttrIndex>(rng.Below(arity)),
                           static_cast<AttrIndex>(rng.Below(arity)));
    }
    while (true) {
      const size_t lhs_size = rng.Below(std::min<size_t>(arity, 4) + 1);
      std::vector<AttrIndex> lhs;
      std::vector<PatternValue> pats;
      for (size_t i = 0; i < lhs_size; ++i) {
        lhs.push_back(static_cast<AttrIndex>(rng.Below(arity)));
        pats.push_back(RandomPattern(rng, 60));
      }
      const bool canonical = rng.Percent(60);
      auto made = CFD::Make(
          0, lhs, pats, static_cast<AttrIndex>(rng.Below(arity)),
          canonical ? RandomPattern(rng, 65) : PatternValue::Wildcard());
      if (!made.ok()) continue;
      if (!canonical) made.value().rhs_pat = RandomPattern(rng, 65);
      return std::move(made).value();
    }
  }

  /// Sigma of up to `max_size` CFDs, with duplicates.
  std::vector<CFD> RandomSigma(Rng& rng, size_t arity, size_t max_size) {
    std::vector<CFD> sigma;
    const size_t size = rng.Below(max_size + 1);
    for (size_t i = 0; i < size; ++i) {
      if (!sigma.empty() && rng.Percent(10)) {
        sigma.push_back(sigma[rng.Below(sigma.size())]);
      } else {
        sigma.push_back(RandomCFD(rng, arity));
      }
    }
    return sigma;
  }

  /// phi: a member of sigma, a member with one LHS attribute dropped
  /// (MinCover's phase-1 question), or a fresh random CFD.
  CFD RandomPhi(Rng& rng, const std::vector<CFD>& sigma, size_t arity) {
    if (!sigma.empty() && rng.Percent(30)) {
      CFD phi = sigma[rng.Below(sigma.size())];
      if (!phi.is_special_x() && !phi.lhs.empty() && rng.Percent(70)) {
        const size_t i = rng.Below(phi.lhs.size());
        phi.lhs.erase(phi.lhs.begin() + i);
        phi.lhs_pats.erase(phi.lhs_pats.begin() + i);
      }
      return phi;
    }
    return RandomCFD(rng, arity);
  }

  /// The reference answer: the SymbolicInstance chase.
  bool ChaseAnswer(const std::vector<CFD>& sigma, const CFD& phi,
                   size_t arity, const AttrDomains& domains) {
    ImplicationOptions general;
    general.general_setting = true;
    auto r = Implies(sigma, phi, arity, domains, general);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() && *r;
  }

  std::string Describe(const std::vector<CFD>& sigma, const CFD& phi) {
    auto name = [](AttrIndex a) { return "#" + std::to_string(a); };
    std::string out = "phi = " + phi.ToString(pool_, name) + "\nsigma =";
    for (const CFD& c : sigma) out += "\n  " + c.ToString(pool_, name);
    return out;
  }

  ValuePool pool_;
  std::vector<Value> consts_;
  Domain infinite_ = Domain::Infinite();
};

TEST_F(ImplicationDifferentialTest, KernelAgreesWithChase) {
  Rng rng(20081);
  size_t implied = 0;
  size_t not_implied = 0;
  for (int n = 0; n < 6000; ++n) {
    const size_t arity = 1 + rng.Below(8);
    std::vector<CFD> sigma = RandomSigma(rng, arity, 10);
    CFD phi = RandomPhi(rng, sigma, arity);
    // Half the cases pass a DomainsOf-style vector: every entry a
    // non-null infinite domain, which must route to the kernel as well.
    AttrDomains domains;
    if (rng.Percent(50)) domains.assign(arity, &infinite_);

    const bool expected = ChaseAnswer(sigma, phi, arity, domains);
    auto kernel = Implies(sigma, phi, arity, domains);
    ASSERT_TRUE(kernel.ok()) << kernel.status();
    ASSERT_EQ(*kernel, expected) << "case " << n << "\n"
                                 << Describe(sigma, phi);
    ++(expected ? implied : not_implied);
  }
  // Both answers are common, so neither side can pass by being constant.
  EXPECT_GT(implied, 1000u);
  EXPECT_GT(not_implied, 1000u);
}

TEST_F(ImplicationDifferentialTest, VacuousTruthFromConflictingConstants) {
  // Sigma pins B to a; phi's LHS asks for B = b, which no tuple has, so
  // phi holds vacuously whatever its RHS. A second pair of rules bind C to
  // two constants on every tuple, so Sigma has no tuple at all.
  const PatternValue wc = PatternValue::Wildcard();
  const PatternValue a = PatternValue::Constant(consts_[0]);
  const PatternValue b = PatternValue::Constant(consts_[1]);
  const CFD pin_b = CFD::Make(0, {}, {}, 1, a).value();
  const CFD phi = CFD::Make(0, {1}, {b}, 2, wc).value();
  const CFD c_is_a = CFD::Make(0, {0}, {wc}, 2, a).value();
  const CFD c_is_b = CFD::Make(0, {0}, {wc}, 2, b).value();
  const CFD eq = CFD::Equality(0, 0, 3);
  for (const auto& [sigma, goal] :
       std::vector<std::pair<std::vector<CFD>, CFD>>{
           {{pin_b}, phi}, {{c_is_a, c_is_b}, eq}, {{}, phi}}) {
    ASSERT_EQ(*Implies(sigma, goal, 4), ChaseAnswer(sigma, goal, 4, {}));
  }
  EXPECT_TRUE(*Implies({pin_b}, phi, 4));
  EXPECT_TRUE(*Implies({c_is_a, c_is_b}, eq, 4));
  EXPECT_FALSE(*Implies({}, phi, 4));
}

TEST_F(ImplicationDifferentialTest, WideTemplates) {
  constexpr size_t kArity = 80;
  // A chain A0 -> A1 -> ... -> A79 listed backwards: one chase pass per
  // link before A0 -> A79 follows.
  std::vector<CFD> chain;
  for (AttrIndex a = kArity - 1; a > 0; --a) {
    chain.push_back(CFD::FD(0, {a - 1}, a).value());
  }
  const CFD end_to_end = CFD::FD(0, {0}, kArity - 1).value();
  EXPECT_TRUE(*Implies(chain, end_to_end, kArity));
  EXPECT_TRUE(ChaseAnswer(chain, end_to_end, kArity, {}));
  chain.erase(chain.begin() + 40);
  EXPECT_FALSE(*Implies(chain, end_to_end, kArity));
  EXPECT_FALSE(ChaseAnswer(chain, end_to_end, kArity, {}));

  Rng rng(8080);
  const AttrDomains domains(kArity, &infinite_);
  for (int n = 0; n < 60; ++n) {
    std::vector<CFD> sigma = RandomSigma(rng, kArity, 60);
    CFD phi = RandomPhi(rng, sigma, kArity);
    const bool expected = ChaseAnswer(sigma, phi, kArity, domains);
    ASSERT_EQ(*Implies(sigma, phi, kArity, domains), expected)
        << "case " << n << "\n" << Describe(sigma, phi);
  }
}

TEST_F(ImplicationDifferentialTest, TesterMaskAndDroppedAttribute) {
  // ImplicationTester's alive mask and dropped LHS attribute against
  // the chase on the explicit Sigma' and phi'.
  Rng rng(4242);
  for (int n = 0; n < 1500; ++n) {
    const size_t arity = 1 + rng.Below(8);
    std::vector<CFD> sigma = RandomSigma(rng, arity, 10);
    CFD phi = RandomCFD(rng, arity);
    std::vector<uint8_t> alive;
    std::vector<CFD> live;
    for (const CFD& c : sigma) {
      alive.push_back(rng.Percent(75) ? 1 : 0);
      if (alive.back() != 0) live.push_back(c);
    }
    size_t drop = SIZE_MAX;
    CFD dropped = phi;
    if (!phi.is_special_x() && !phi.lhs.empty() && rng.Percent(70)) {
      drop = rng.Below(phi.lhs.size());
      dropped.lhs.erase(dropped.lhs.begin() + drop);
      dropped.lhs_pats.erase(dropped.lhs_pats.begin() + drop);
    }
    const AttrDomains all_infinite;
    ImplicationTester tester(arity, all_infinite, {});
    auto got = tester.Implies(sigma, alive, phi, drop);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(*got, ChaseAnswer(live, dropped, arity, {}))
        << "case " << n << " drop " << drop << "\n"
        << Describe(live, dropped);
  }
}

TEST_F(ImplicationDifferentialTest, MinCoverIsIdenticalOnBothPaths) {
  Rng rng(1608);
  MinCoverOptions chase;
  chase.implication.general_setting = true;
  for (int n = 0; n < 400; ++n) {
    const size_t arity = 2 + rng.Below(7);
    std::vector<CFD> sigma = RandomSigma(rng, arity, 14);
    auto kernel = MinCover(sigma, arity);
    auto reference = MinCover(sigma, arity, {}, chase);
    ASSERT_TRUE(kernel.ok()) << kernel.status();
    ASSERT_TRUE(reference.ok()) << reference.status();
    ASSERT_EQ(*kernel, *reference) << "case " << n;

    auto kept = RemoveRedundantCFDs(sigma, arity);
    auto kept_reference = RemoveRedundantCFDs(sigma, arity, {}, chase);
    ASSERT_TRUE(kept.ok() && kept_reference.ok());
    ASSERT_EQ(*kept, *kept_reference) << "case " << n;
  }
}

}  // namespace
}  // namespace cfdprop
