// Differential test of Implies and IsSatisfiable, which run on the flat
// chase kernel, against the reference chase of tests/reference: the
// template of the paper's proofs built as a SymbolicInstance, chased by
// Chase, and searched by its own ExistsChaseBranch in the general
// setting. The two must agree on every (Sigma, phi), with and without
// finite domains, in both settings; MinCover, whose output is a
// function of its implication answers, must produce identical covers in
// both settings when no domain is finite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/cfd/implication.h"
#include "src/cfd/mincover.h"
#include "tests/reference/chase.h"

namespace cfdprop {
namespace {

class ImplicationDifferentialTest : public ::testing::Test {
 protected:
  ImplicationDifferentialTest() {
    for (const char* text : {"a", "b", "c"}) {
      consts_.push_back(pool_.Intern(text));
    }
    const Value a = consts_[0], b = consts_[1], c = consts_[2];
    finite_.push_back(Domain::Finite("ab", {a, b}));
    finite_.push_back(Domain::Finite("bc", {b, c}));
    finite_.push_back(Domain::Finite("ca", {c, a}));
    finite_.push_back(Domain::Finite("abc", {a, b, c}));
    finite_.push_back(Domain::Finite("b", {b}));
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

  /// Up to `max_finite` attributes with a finite domain over the
  /// constants' pool, the rest infinite (null or a non-null infinite
  /// domain).
  AttrDomains RandomDomains(Rng& rng, size_t arity, size_t max_finite) {
    AttrDomains domains(arity, rng.Percent(50) ? &infinite_ : nullptr);
    size_t finite = 0;
    for (size_t i = 0; i < arity && finite < max_finite; ++i) {
      if (rng.Percent(45)) {
        domains[i] = &finite_[rng.Below(finite_.size())];
        ++finite;
      }
    }
    return domains;
  }

  /// A row of `arity` fresh cells of relation 0 with `domains`.
  static std::vector<CellId> ReferenceRow(SymbolicInstance& inst,
                                          size_t arity,
                                          const AttrDomains& domains) {
    std::vector<CellId> cells;
    for (size_t i = 0; i < arity; ++i) {
      cells.push_back(inst.NewCell(i < domains.size() ? domains[i] : nullptr));
    }
    inst.AddRow(0, cells);
    return cells;
  }

  /// The reference answer to Sigma |= phi: the two-row template (one
  /// row for special-x phi) as a SymbolicInstance, chased once, or
  /// searched by the reference ExistsChaseBranch in the general setting.
  bool ReferenceImplies(const std::vector<CFD>& sigma, const CFD& phi,
                        size_t arity, const AttrDomains& domains,
                        bool general) {
    SymbolicInstance base;
    const std::vector<CellId> t1 = ReferenceRow(base, arity, domains);
    std::vector<CellId> t2 = t1;
    if (!phi.is_special_x()) {
      t2 = ReferenceRow(base, arity, domains);
      for (size_t i = 0; i < phi.lhs.size(); ++i) {
        const AttrIndex a = phi.lhs[i];
        base.Union(t1[a], t2[a]);
        if (phi.lhs_pats[i].is_constant()) {
          base.BindConst(t1[a], phi.lhs_pats[i].value());
        }
      }
    }
    auto holds = [&](SymbolicInstance& inst) {
      if (phi.is_special_x()) {
        return inst.EqualCells(t1[phi.lhs[0]], t1[phi.rhs]);
      }
      if (!inst.EqualCells(t1[phi.rhs], t2[phi.rhs])) return false;
      return !phi.rhs_pat.is_constant() ||
             inst.ConstOf(t1[phi.rhs]) == phi.rhs_pat.value();
    };
    if (!general) {
      auto outcome = Chase(base, sigma);
      EXPECT_TRUE(outcome.ok()) << outcome.status();
      return *outcome == ChaseOutcome::kContradiction || holds(base);
    }
    auto counterexample = ExistsChaseBranch(
        base, sigma, [&](SymbolicInstance& leaf) { return !holds(leaf); });
    EXPECT_TRUE(counterexample.ok()) << counterexample.status();
    return counterexample.ok() && !*counterexample;
  }

  /// The reference answer to "is Sigma satisfiable": some tuple, a
  /// one-row template, survives the chase (of some instantiation).
  bool ReferenceSatisfiable(const std::vector<CFD>& sigma, size_t arity,
                            const AttrDomains& domains, bool general) {
    SymbolicInstance base;
    ReferenceRow(base, arity, domains);
    if (!general) {
      auto outcome = Chase(base, sigma);
      EXPECT_TRUE(outcome.ok()) << outcome.status();
      return *outcome == ChaseOutcome::kFixpoint;
    }
    auto witness = ExistsChaseBranch(
        base, sigma, [](SymbolicInstance&) { return true; });
    EXPECT_TRUE(witness.ok()) << witness.status();
    return witness.ok() && *witness;
  }

  /// The reference answer in the general setting.
  bool ChaseAnswer(const std::vector<CFD>& sigma, const CFD& phi,
                   size_t arity, const AttrDomains& domains) {
    return ReferenceImplies(sigma, phi, arity, domains, /*general=*/true);
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
  std::vector<Domain> finite_;
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

TEST_F(ImplicationDifferentialTest, FiniteDomainsInBothSettings) {
  // Implies and IsSatisfiable with finite domains on some attributes,
  // outside and inside the general setting, against the reference; and
  // how often the domains change the infinite-domain answer.
  Rng rng(3207);
  size_t finite_cases = 0;
  size_t implied = 0, not_implied = 0;
  size_t general_flips = 0, domain_flips = 0;
  size_t satisfiable = 0, unsatisfiable = 0, satisfiable_flips = 0;
  ImplicationOptions general;
  general.general_setting = true;
  for (int n = 0; n < 3000; ++n) {
    const size_t arity = 1 + rng.Below(6);
    std::vector<CFD> sigma = RandomSigma(rng, arity, 8);
    CFD phi = RandomPhi(rng, sigma, arity);
    const AttrDomains domains = RandomDomains(rng, arity, 4);
    finite_cases += std::any_of(
        domains.begin(), domains.end(),
        [](const Domain* d) { return d != nullptr && d->finite(); });

    auto infinite = Implies(sigma, phi, arity);
    auto with_domains = Implies(sigma, phi, arity, domains);
    auto in_general = Implies(sigma, phi, arity, domains, general);
    ASSERT_TRUE(infinite.ok() && with_domains.ok() && in_general.ok());
    ASSERT_EQ(*with_domains,
              ReferenceImplies(sigma, phi, arity, domains, false))
        << "case " << n << "\n" << Describe(sigma, phi);
    ASSERT_EQ(*in_general,
              ReferenceImplies(sigma, phi, arity, domains, true))
        << "case " << n << " (general)\n" << Describe(sigma, phi);
    ++(*in_general ? implied : not_implied);
    domain_flips += *with_domains != *infinite;
    general_flips += *in_general != *infinite;

    if (sigma.empty()) continue;
    auto sat = IsSatisfiable(sigma, arity, domains);
    auto sat_general = IsSatisfiable(sigma, arity, domains, general);
    auto sat_infinite = IsSatisfiable(sigma, arity);
    ASSERT_TRUE(sat.ok() && sat_general.ok() && sat_infinite.ok());
    ASSERT_EQ(*sat, ReferenceSatisfiable(sigma, arity, domains, false))
        << "case " << n << "\n" << Describe(sigma, phi);
    ASSERT_EQ(*sat_general,
              ReferenceSatisfiable(sigma, arity, domains, true))
        << "case " << n << " (general)\n" << Describe(sigma, phi);
    ++(*sat_general ? satisfiable : unsatisfiable);
    satisfiable_flips += *sat_general != *sat_infinite;
  }
  // The finite cases ran, both answers are common, and the domains
  // changed the infinite-domain answer often enough to be tested.
  EXPECT_GT(finite_cases, 2000u);
  EXPECT_GT(implied, 1000u);
  EXPECT_GT(not_implied, 500u);
  EXPECT_GT(general_flips, 100u);
  EXPECT_GT(domain_flips, 60u);
  EXPECT_GT(satisfiable, 1000u);
  EXPECT_GT(unsatisfiable, 200u);
  EXPECT_GT(satisfiable_flips, 100u);
}

TEST_F(ImplicationDifferentialTest, FiniteDomainTesterMask) {
  // ImplicationTester's alive mask and dropped attribute in the general
  // setting, where MinCover's tests no longer copy the live Sigma.
  Rng rng(5151);
  ImplicationOptions general;
  general.general_setting = true;
  for (int n = 0; n < 1000; ++n) {
    const size_t arity = 1 + rng.Below(6);
    std::vector<CFD> sigma = RandomSigma(rng, arity, 8);
    CFD phi = RandomCFD(rng, arity);
    const AttrDomains domains = RandomDomains(rng, arity, 4);
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
    ImplicationTester tester(arity, domains, general);
    auto got = tester.Implies(sigma, alive, phi, drop);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(*got, ReferenceImplies(live, dropped, arity, domains, true))
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
