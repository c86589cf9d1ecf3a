#include "src/cover/rbr.h"

#include <gtest/gtest.h>

#include "src/cfd/implication.h"

namespace cfdprop {
namespace {

constexpr size_t kArity = 8;

class RBRTest : public ::testing::Test {
 protected:
  Value V(const char* s) { return pool_.Intern(s); }
  CFD FD(std::vector<AttrIndex> lhs, AttrIndex rhs) {
    return CFD::FD(0, std::move(lhs), rhs).value();
  }
  CFD Pat(std::vector<AttrIndex> lhs, std::vector<PatternValue> pats,
          AttrIndex rhs, PatternValue rp) {
    return CFD::Make(0, std::move(lhs), std::move(pats), rhs, rp).value();
  }
  std::vector<CFD> Run(std::vector<CFD> sigma, std::vector<AttrIndex> drop) {
    auto r = RBR(std::move(sigma), drop, kArity);
    EXPECT_TRUE(r.ok()) << r.status();
    EXPECT_FALSE(r->truncated);
    return r.ok() ? r->cover : std::vector<CFD>{};
  }

  ValuePool pool_;
};

TEST_F(RBRTest, Example42ResolventFromThePaper) {
  // phi1 = ([A1,A2] -> A, (_, c || a)), phi2 = ([A,A2,B1] -> B,
  // (_, c, b || _)); the paper's A-resolvent is
  // ([A1,A2,B1] -> B, (_, c, b || _)). Our constant-RHS canonicalization
  // first reduces phi1 to ([A2] -> A, (c || a)) (the wildcard A1 is
  // redundant for a constant RHS), so the computed resolvent is the
  // strictly stronger ([A2,B1] -> B, (c, b || _)), which implies the
  // paper's. Attribute ids: A1=0, A2=1, A=2, B1=3, B=4.
  PatternValue wc = PatternValue::Wildcard();
  PatternValue pc = PatternValue::Constant(V("c"));
  PatternValue pa = PatternValue::Constant(V("a"));
  PatternValue pb = PatternValue::Constant(V("b"));
  CFD phi1 = Pat({0, 1}, {wc, pc}, 2, pa);
  EXPECT_EQ(phi1.lhs, (std::vector<AttrIndex>{1}));  // canonicalized
  CFD phi2 = Pat({2, 1, 3}, {wc, pc, pb}, 4, wc);

  auto r = Resolvent(phi1, phi2, 2);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->lhs, (std::vector<AttrIndex>{1, 3}));
  EXPECT_EQ(r->lhs_pats[0], pc);
  EXPECT_EQ(r->lhs_pats[1], pb);
  EXPECT_EQ(r->rhs, 4u);
  EXPECT_EQ(r->rhs_pat, wc);

  // The paper's resolvent follows from ours.
  CFD paper = Pat({0, 1, 3}, {wc, pc, pb}, 4, wc);
  auto implied = Implies({*r}, paper, kArity);
  ASSERT_TRUE(implied.ok());
  EXPECT_TRUE(*implied);
}

TEST_F(RBRTest, ResolventRequiresOrderCondition) {
  // t1[A] = 'a' but t2's LHS pattern at A is 'b': a !<= b, undefined.
  PatternValue wc = PatternValue::Wildcard();
  CFD phi1 = Pat({0}, {wc}, 2, PatternValue::Constant(V("a")));
  CFD phi2 = Pat({2}, {PatternValue::Constant(V("b"))}, 3, wc);
  EXPECT_FALSE(Resolvent(phi1, phi2, 2).has_value());

  // With matching constants it is defined.
  CFD phi2b = Pat({2}, {PatternValue::Constant(V("a"))}, 3, wc);
  EXPECT_TRUE(Resolvent(phi1, phi2b, 2).has_value());

  // Wildcard RHS is <= only a wildcard LHS pattern.
  CFD phi1w = Pat({0}, {wc}, 2, wc);
  CFD phi2w = Pat({2}, {wc}, 3, wc);
  EXPECT_TRUE(Resolvent(phi1w, phi2w, 2).has_value());
  EXPECT_FALSE(Resolvent(phi1w, phi2b, 2).has_value());
}

TEST_F(RBRTest, ResolventUndefinedOnIncomparableOverlap) {
  // Shared attribute 1 carries 'a' in phi1 and 'b' in phi2: oplus fails.
  PatternValue wc = PatternValue::Wildcard();
  CFD phi1 = Pat({0, 1}, {wc, PatternValue::Constant(V("a"))}, 2, wc);
  CFD phi2 = Pat({2, 1}, {wc, PatternValue::Constant(V("b"))}, 3, wc);
  EXPECT_FALSE(Resolvent(phi1, phi2, 2).has_value());
}

TEST_F(RBRTest, DropSingleAttributeShortcutsFDs) {
  // {A -> B, B -> C}, drop B: cover of {A, C} must contain A -> C.
  std::vector<CFD> cover = Run({FD({0}, 1), FD({1}, 2)}, {1});
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], FD({0}, 2));
}

TEST_F(RBRTest, DropPreservesUnrelatedCFDs) {
  std::vector<CFD> cover = Run({FD({0}, 1), FD({2}, 3)}, {5});
  EXPECT_EQ(cover.size(), 2u);
}

TEST_F(RBRTest, ChainOfDrops) {
  // A -> B -> C -> D, drop {B, C}: A -> D survives.
  std::vector<CFD> cover =
      Run({FD({0}, 1), FD({1}, 2), FD({2}, 3)}, {1, 2});
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], FD({0}, 3));
}

TEST_F(RBRTest, OutputNeverMentionsDroppedAttributes) {
  std::vector<CFD> sigma = {FD({0, 1}, 2), FD({2}, 3), FD({3, 4}, 5),
                            FD({0}, 4)};
  std::vector<CFD> cover = Run(sigma, {2, 3});
  for (const CFD& c : cover) {
    EXPECT_FALSE(c.Mentions(2));
    EXPECT_FALSE(c.Mentions(3));
  }
}

TEST_F(RBRTest, CoverIsSoundAndCompleteOnY) {
  // Proposition 4.4: RBR(Sigma, U-Y) covers Sigma+[Y]. Here Y = {0,3,4}.
  std::vector<CFD> sigma = {FD({0}, 1), FD({1}, 2), FD({2}, 3),
                            FD({0, 3}, 4)};
  std::vector<CFD> cover = Run(sigma, {1, 2});
  // A -> D (via B, C) must be derivable from the cover.
  auto implied = Implies(cover, FD({0}, 3), kArity);
  ASSERT_TRUE(implied.ok());
  EXPECT_TRUE(*implied);
  // And A -> E via A -> D and AD -> E.
  implied = Implies(cover, FD({0}, 4), kArity);
  ASSERT_TRUE(implied.ok());
  EXPECT_TRUE(*implied);
  // Soundness: everything in the cover is implied by sigma.
  for (const CFD& c : cover) {
    auto r = Implies(sigma, c, kArity);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(*r) << "unsound member of RBR cover";
  }
}

TEST_F(RBRTest, ConstantsBlockResolution) {
  // ([A=a] -> B=b) and ([B=c] -> C) cannot resolve on B (b !<= c);
  // dropping B leaves nothing involving A, C.
  PatternValue wc = PatternValue::Wildcard();
  CFD f1 = Pat({0}, {PatternValue::Constant(V("a"))}, 1,
               PatternValue::Constant(V("b")));
  CFD f2 = Pat({1}, {PatternValue::Constant(V("c"))}, 2, wc);
  std::vector<CFD> cover = Run({f1, f2}, {1});
  EXPECT_TRUE(cover.empty());

  // With aligned constants the resolvent survives.
  CFD f2b = Pat({1}, {PatternValue::Constant(V("b"))}, 2,
                PatternValue::Constant(V("d")));
  cover = Run({f1, f2b}, {1});
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].lhs, (std::vector<AttrIndex>{0}));
  EXPECT_EQ(cover[0].rhs, 2u);
  EXPECT_EQ(cover[0].rhs_pat, PatternValue::Constant(V("d")));
}

TEST_F(RBRTest, EmptyLhsConstantResolves) {
  // (() -> B=b) with ([B=b] -> C=c): dropping B yields (() -> C=c).
  CFD k;
  k.relation = 0;
  k.rhs = 1;
  k.rhs_pat = PatternValue::Constant(V("b"));
  CFD f = Pat({1}, {PatternValue::Constant(V("b"))}, 2,
              PatternValue::Constant(V("c")));
  std::vector<CFD> cover = Run({k, f}, {1});
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_TRUE(cover[0].lhs.empty());
  EXPECT_EQ(cover[0].rhs, 2u);
  EXPECT_EQ(cover[0].rhs_pat, PatternValue::Constant(V("c")));
}

TEST_F(RBRTest, TruncationModeReturnsSubset) {
  // Example 4.1 blow-up with n = 6: Ai -> Ci, Bi -> Ci, C1..C6 -> D over
  // 19 attributes; dropping all Ci forces 2^6 combinations.
  const size_t n = 6;
  const size_t arity = 3 * n + 1;
  std::vector<CFD> sigma;
  std::vector<AttrIndex> cs;
  for (size_t i = 0; i < n; ++i) {
    AttrIndex a = i, b = n + i, c = 2 * n + i;
    sigma.push_back(CFD::FD(0, {a}, c).value());
    sigma.push_back(CFD::FD(0, {b}, c).value());
    cs.push_back(c);
  }
  sigma.push_back(CFD::FD(0, cs, 3 * n).value());

  RBROptions tight;
  tight.max_cover_size = 16;
  tight.on_budget = RBROptions::OnBudget::kTruncate;
  tight.intermediate_mincover = false;
  std::vector<AttrIndex> drop(cs.begin(), cs.end());
  auto r = RBR(sigma, drop, arity, tight);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truncated);
  for (const CFD& c : r->cover) {
    for (AttrIndex d : drop) EXPECT_FALSE(c.Mentions(d));
  }

  RBROptions err;
  err.max_cover_size = 16;
  err.on_budget = RBROptions::OnBudget::kError;
  err.intermediate_mincover = false;
  auto r2 = RBR(sigma, drop, arity, err);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(RBRTest, RejectsSpecialX) {
  auto r = RBR({CFD::Equality(0, 0, 1)}, {0}, kArity);
  EXPECT_FALSE(r.ok());
}

TEST_F(RBRTest, IsForbiddenPatternDetection) {
  PatternValue pa = PatternValue::Constant(V("a"));
  PatternValue pb = PatternValue::Constant(V("b"));
  CFD forbidden = Pat({0, 1}, {pa, pb}, 0, pb);  // [A=a,B=b] -> A=b
  EXPECT_TRUE(forbidden.IsForbiddenPattern());

  CFD normal = Pat({0}, {pa}, 1, pb);
  EXPECT_FALSE(normal.IsForbiddenPattern());
  CFD fd = FD({0}, 1);
  EXPECT_FALSE(fd.IsForbiddenPattern());
}

TEST_F(RBRTest, ForbiddenResolventFromConflictingProducers) {
  // ([A=a] -> C=1) and ([B=b] -> C=2): tuples with A=a and B=b would need
  // C = 1 = 2, so the pattern (A=a, B=b) is forbidden.
  PatternValue pa = PatternValue::Constant(V("a"));
  PatternValue pb = PatternValue::Constant(V("b"));
  CFD p1 = Pat({0}, {pa}, 2, PatternValue::Constant(V("1")));
  CFD p2 = Pat({1}, {pb}, 2, PatternValue::Constant(V("2")));

  bool unconditional = false;
  auto fb = ForbiddenResolvent(p1, p2, 2, &unconditional);
  ASSERT_TRUE(fb.has_value());
  EXPECT_FALSE(unconditional);
  EXPECT_TRUE(fb->IsForbiddenPattern());
  EXPECT_FALSE(fb->Mentions(2));
  // Same constants: no conflict.
  CFD p3 = Pat({1}, {pb}, 2, PatternValue::Constant(V("1")));
  EXPECT_FALSE(ForbiddenResolvent(p1, p3, 2, &unconditional).has_value());
}

TEST_F(RBRTest, ForbiddenResolventUnconditional) {
  // Two unconditional producers with distinct constants: every tuple is
  // forbidden — the relation is inconsistent.
  CFD k1, k2;
  k1.relation = k2.relation = 0;
  k1.rhs = k2.rhs = 2;
  k1.rhs_pat = PatternValue::Constant(V("1"));
  k2.rhs_pat = PatternValue::Constant(V("2"));
  bool unconditional = false;
  auto fb = ForbiddenResolvent(k1, k2, 2, &unconditional);
  EXPECT_FALSE(fb.has_value());
  EXPECT_TRUE(unconditional);

  auto r = RBR({k1, k2}, {2}, kArity);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->inconsistent);
}

TEST_F(RBRTest, ForbiddenConstraintSurvivesProjection) {
  // ([A=6] -> C=2) + ([] -> C=4): dropping C must keep "no tuple with
  // A=6" — the completeness gap that motivated forbidden resolvents.
  PatternValue p6 = PatternValue::Constant(V("6"));
  CFD c1 = Pat({0}, {p6}, 2, PatternValue::Constant(V("2")));
  CFD c2;
  c2.relation = 0;
  c2.rhs = 2;
  c2.rhs_pat = PatternValue::Constant(V("4"));

  std::vector<CFD> cover = Run({c1, c2}, {2});
  ASSERT_FALSE(cover.empty());
  // The forbidden pattern implies [A=6] -> B = anything (vacuously).
  CFD probe = Pat({0}, {p6}, 1, PatternValue::Constant(V("99")));
  auto implied = Implies(cover, probe, kArity);
  ASSERT_TRUE(implied.ok());
  EXPECT_TRUE(*implied);
}

TEST_F(RBRTest, ForbiddenProjectionThroughProducer) {
  // Forbidden pattern (A=a, D=d) + producer ([B=b] -> D=d): dropping D
  // must forbid (A=a, B=b).
  PatternValue pa = PatternValue::Constant(V("a"));
  PatternValue pb = PatternValue::Constant(V("b"));
  PatternValue pd = PatternValue::Constant(V("d"));
  // Encode "no tuple with A=a and D=d" as [A=a, D=d] -> A=zz.
  CFD forbidden =
      Pat({0, 3}, {pa, pd}, 0, PatternValue::Constant(V("zz")));
  ASSERT_TRUE(forbidden.IsForbiddenPattern());
  CFD producer = Pat({1}, {pb}, 3, pd);

  bool unconditional = false;
  auto projected = ForbiddenProjection(forbidden, producer, 3,
                                       &unconditional);
  ASSERT_TRUE(projected.has_value());
  EXPECT_FALSE(projected->Mentions(3));
  EXPECT_TRUE(projected->IsForbiddenPattern());

  // End to end through RBR: probe that (A=a, B=b) is forbidden.
  std::vector<CFD> cover = Run({forbidden, producer}, {3});
  CFD probe = CFD::Make(0, {0, 1}, {pa, pb}, 2,
                        PatternValue::Constant(V("q")))
                  .value();
  auto implied = Implies(cover, probe, kArity);
  ASSERT_TRUE(implied.ok());
  EXPECT_TRUE(*implied);
}

TEST_F(RBRTest, ForbiddenProjectionRequiresMatchingConstant) {
  PatternValue pa = PatternValue::Constant(V("a"));
  PatternValue pb = PatternValue::Constant(V("b"));
  PatternValue pd = PatternValue::Constant(V("d"));
  PatternValue pe = PatternValue::Constant(V("e"));
  CFD forbidden =
      Pat({0, 3}, {pa, pd}, 0, PatternValue::Constant(V("zz")));
  // Producer forces D = e != d: its matches never hit the forbidden
  // pattern, so no projection.
  CFD producer = Pat({1}, {pb}, 3, pe);
  bool unconditional = false;
  EXPECT_FALSE(ForbiddenProjection(forbidden, producer, 3, &unconditional)
                   .has_value());
}

TEST_F(RBRTest, IntermediateMinCoverDoesNotChangeSemantics) {
  std::vector<CFD> sigma = {FD({0}, 1), FD({1}, 2), FD({2}, 3),
                            FD({0, 1}, 3), FD({1, 2}, 0)};
  RBROptions with_opt;
  with_opt.intermediate_mincover = true;
  with_opt.mincover_partition = 2;
  RBROptions without_opt;
  without_opt.intermediate_mincover = false;

  auto r1 = RBR(sigma, {1}, kArity, with_opt);
  auto r2 = RBR(sigma, {1}, kArity, without_opt);
  ASSERT_TRUE(r1.ok() && r2.ok());
  // The two covers must be equivalent.
  for (const CFD& c : r1->cover) {
    auto imp = Implies(r2->cover, c, kArity);
    ASSERT_TRUE(imp.ok());
    EXPECT_TRUE(*imp);
  }
  for (const CFD& c : r2->cover) {
    auto imp = Implies(r1->cover, c, kArity);
    ASSERT_TRUE(imp.ok());
    EXPECT_TRUE(*imp);
  }
}

// Example 4.1 with n = 4 (A1..A4 -> C1..C4 <- B1..B4, C1..C4 -> E) plus
// an attribute Z with four producers, one of them redundant, and three
// consumers. Dropping C1..C3 and then Z grows Gamma from 16 to 22 CFDs,
// so the intermediate minimization (k0 = 6) runs before C4 is dropped:
// its chunk holding {A1} -> G3 and {A1, B2} -> G3 drops the latter, and
// the drop of C4 then runs on the rebuilt index. Pins the output order.
TEST_F(RBRTest, IntermediateMinCoverMidRunKeepsOrder) {
  constexpr AttrIndex kE = 12, kZ = 13;
  std::vector<CFD> sigma;
  std::vector<AttrIndex> cs;
  for (AttrIndex i = 0; i < 4; ++i) {
    sigma.push_back(FD({i}, 8 + i));
    sigma.push_back(FD({4 + i}, 8 + i));
    cs.push_back(8 + i);
  }
  sigma.push_back(FD(cs, kE));
  for (const std::vector<AttrIndex>& lhs :
       std::vector<std::vector<AttrIndex>>{{0}, {0, 5}, {4}, {1}}) {
    sigma.push_back(FD(lhs, kZ));
  }
  for (AttrIndex g = 14; g <= 16; ++g) sigma.push_back(FD({kZ}, g));
  const std::vector<AttrIndex> drop = {8, 9, 10, 11, kZ};

  RBROptions options;
  options.mincover_partition = 6;
  auto r = RBR(sigma, drop, 17, options);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->truncated);
  const std::vector<CFD> expected = {
      FD({0}, 14),
      FD({0}, 15),
      FD({0}, 16),
      FD({4}, 14),
      FD({4}, 15),
      FD({4}, 16),
      FD({1}, 14),
      FD({1}, 15),
      FD({1}, 16),
      FD({0, 1, 2, 3}, 12),
      FD({1, 2, 3, 4}, 12),
      FD({0, 2, 3, 5}, 12),
      FD({2, 3, 4, 5}, 12),
      FD({0, 1, 3, 6}, 12),
      FD({1, 3, 4, 6}, 12),
      FD({0, 3, 5, 6}, 12),
      FD({3, 4, 5, 6}, 12),
      FD({0, 1, 2, 7}, 12),
      FD({1, 2, 4, 7}, 12),
      FD({0, 2, 5, 7}, 12),
      FD({2, 4, 5, 7}, 12),
      FD({0, 1, 6, 7}, 12),
      FD({1, 4, 6, 7}, 12),
      FD({0, 5, 6, 7}, 12),
      FD({4, 5, 6, 7}, 12)};
  EXPECT_EQ(r->cover, expected);

  // Without the minimization the redundant producer's three resolvents
  // survive.
  options.intermediate_mincover = false;
  auto plain = RBR(sigma, drop, 17, options);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(plain->cover.size(), expected.size() + 3);
}

// Example 4.1 with n = 3 under a budget of 12: dropping C1 and C2 stays
// within it, and dropping C3 (two producers, four consumers each) crosses
// it at the seventh resolvent, the third of the second producer. The
// truncated cover is exactly the resolvents made so far, in order.
TEST_F(RBRTest, TruncationStopsAtTheCrossingResolvent) {
  std::vector<CFD> sigma;
  std::vector<AttrIndex> cs;
  for (AttrIndex i = 0; i < 3; ++i) {
    sigma.push_back(FD({i}, 6 + i));
    sigma.push_back(FD({3 + i}, 6 + i));
    cs.push_back(6 + i);
  }
  sigma.push_back(FD(cs, 9));

  RBROptions tight;
  tight.max_cover_size = 12;
  tight.on_budget = RBROptions::OnBudget::kTruncate;
  tight.intermediate_mincover = false;
  auto r = RBR(sigma, cs, 10, tight);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->truncated);
  const std::vector<CFD> expected = {
      FD({0, 1, 2}, 9),
      FD({1, 2, 3}, 9),
      FD({0, 2, 4}, 9),
      FD({2, 3, 4}, 9),
      FD({0, 1, 5}, 9),
      FD({1, 3, 5}, 9),
      FD({0, 4, 5}, 9)};
  EXPECT_EQ(r->cover, expected);

  // One more slot admits the eighth resolvent, the last of the drop.
  tight.max_cover_size = 13;
  auto r13 = RBR(sigma, cs, 10, tight);
  ASSERT_TRUE(r13.ok()) << r13.status();
  ASSERT_EQ(r13->cover.size(), 8u);
  EXPECT_EQ(r13->cover.back(), FD({3, 4, 5}, 9));
}

}  // namespace
}  // namespace cfdprop
