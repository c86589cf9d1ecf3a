#include "src/cover/propcfd_spc.h"

#include <gtest/gtest.h>

#include "src/cfd/implication.h"
#include "src/propagation/propagation.h"

namespace cfdprop {
namespace {

class PropCoverTest : public ::testing::Test {
 protected:
  PatternValue Wc() { return PatternValue::Wildcard(); }
  PatternValue Const(const char* s) {
    return PatternValue::Constant(cat_.pool().Intern(s));
  }

  /// Every CFD of a computed cover must pass the independent
  /// propagation test — soundness of PropCFD_SPC.
  void ExpectSound(const SPCView& view, const std::vector<CFD>& sigma,
                   const std::vector<CFD>& cover) {
    for (const CFD& c : cover) {
      auto r = IsPropagated(cat_, view, sigma, c);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_TRUE(*r) << "unsound cover member: " << c.ToString(cat_);
    }
  }

  Catalog cat_;
};

TEST_F(PropCoverTest, Example43FromThePaper) {
  // Sources R1(B'1,B2), R2(A1,A2,A), R3(A',A'2,B1,B);
  // V = pi_Y(sigma_F(R1 x R2 x R3)), Y = {B1,B2,B'1,A1,A2,B},
  // F = (B1=B'1 and A=A' and A2=A'2);
  // Sigma = { psi1 = R2([A1,A2] -> A, (_, c || a)),
  //           psi2 = R3([A',A'2,B1] -> B, (_, c, b || _)) }.
  ASSERT_TRUE(cat_.AddRelation("R1", {"Bp1", "B2"}).ok());
  ASSERT_TRUE(cat_.AddRelation("R2", {"A1", "A2", "A"}).ok());
  ASSERT_TRUE(cat_.AddRelation("R3", {"Ap", "Ap2", "B1", "B"}).ok());

  SPCViewBuilder b(cat_);
  size_t r1 = b.AddAtom(0), r2 = b.AddAtom(1), r3 = b.AddAtom(2);
  ASSERT_TRUE(b.SelectEq(r3, "B1", r1, "Bp1").ok());
  ASSERT_TRUE(b.SelectEq(r2, "A", r3, "Ap").ok());
  ASSERT_TRUE(b.SelectEq(r2, "A2", r3, "Ap2").ok());
  ASSERT_TRUE(b.Project(r3, "B1").ok());   // out 0
  ASSERT_TRUE(b.Project(r1, "B2").ok());   // out 1
  ASSERT_TRUE(b.Project(r1, "Bp1").ok());  // out 2
  ASSERT_TRUE(b.Project(r2, "A1").ok());   // out 3
  ASSERT_TRUE(b.Project(r2, "A2").ok());   // out 4
  ASSERT_TRUE(b.Project(r3, "B").ok());    // out 5
  auto view = b.Build();
  ASSERT_TRUE(view.ok());

  std::vector<CFD> sigma = {
      CFD::Make(1, {0, 1}, {Wc(), Const("c")}, 2, Const("a")).value(),
      CFD::Make(2, {0, 1, 2}, {Wc(), Const("c"), Const("b")}, 3, Wc())
          .value()};

  auto result = PropagationCoverSPC(cat_, *view, sigma);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->always_empty);
  EXPECT_FALSE(result->truncated);

  // The paper's cover: phi = ([A1,A2,B1] -> B, (_, c, b || _)) and
  // phi' = (B1 -> B'1, (x || x)).
  CFD phi = CFD::Make(kViewSchemaId, {3, 4, 0},
                      {Wc(), Const("c"), Const("b")}, 5, Wc())
                .value();
  CFD phi_prime = CFD::Equality(kViewSchemaId, 0, 2);

  ASSERT_EQ(result->cover.size(), 2u);
  auto implied1 = Implies(result->cover, phi, view->OutputArity());
  auto implied2 = Implies(result->cover, phi_prime, view->OutputArity());
  ASSERT_TRUE(implied1.ok() && implied2.ok());
  EXPECT_TRUE(*implied1);
  EXPECT_TRUE(*implied2);

  ExpectSound(*view, sigma, result->cover);
}

TEST_F(PropCoverTest, Example41ExponentialCover) {
  // Fischer-Jou-Tsou: Ai -> Ci, Bi -> Ci, C1..Cn -> D; project out the
  // Ci. Every eta1..etan -> D with etai in {Ai, Bi} is in the cover.
  const size_t n = 3;
  std::vector<std::string> names;
  for (size_t i = 0; i < n; ++i) names.push_back("A" + std::to_string(i));
  for (size_t i = 0; i < n; ++i) names.push_back("B" + std::to_string(i));
  for (size_t i = 0; i < n; ++i) names.push_back("C" + std::to_string(i));
  names.push_back("D");
  ASSERT_TRUE(cat_.AddRelation("R", names).ok());

  std::vector<CFD> sigma;
  std::vector<AttrIndex> cs;
  for (size_t i = 0; i < n; ++i) {
    sigma.push_back(CFD::FD(0, {static_cast<AttrIndex>(i)},
                            static_cast<AttrIndex>(2 * n + i))
                        .value());
    sigma.push_back(CFD::FD(0, {static_cast<AttrIndex>(n + i)},
                            static_cast<AttrIndex>(2 * n + i))
                        .value());
    cs.push_back(static_cast<AttrIndex>(2 * n + i));
  }
  sigma.push_back(CFD::FD(0, cs, static_cast<AttrIndex>(3 * n)).value());

  SPCViewBuilder b(cat_);
  size_t atom = b.AddAtom(0);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(b.Project(atom, "A" + std::to_string(i)).ok());
    ASSERT_TRUE(b.Project(atom, "B" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(b.Project(atom, "D").ok());
  auto view = b.Build();
  ASSERT_TRUE(view.ok());
  // Output columns: A0=0 B0=1 A1=2 B1=3 A2=4 B2=5 D=6.

  auto result = PropagationCoverSPC(cat_, *view, sigma);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->cover.size(), 8u);  // 2^3 combinations

  // Each of the 2^n choices must be implied by the cover.
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<AttrIndex> lhs;
    for (size_t i = 0; i < n; ++i) {
      bool use_b = (mask >> i) & 1;
      lhs.push_back(static_cast<AttrIndex>(2 * i + (use_b ? 1 : 0)));
    }
    CFD choice = CFD::FD(kViewSchemaId, lhs, 6).value();
    auto implied = Implies(result->cover, choice, view->OutputArity());
    ASSERT_TRUE(implied.ok());
    EXPECT_TRUE(*implied) << "missing combination " << mask;
  }
  ExpectSound(*view, sigma, result->cover);
}

TEST_F(PropCoverTest, ConstantColumnsFromRc) {
  // The paper's Q1 = {(CC:44)} x R1 contributes RV(CC -> CC, (_ || 44)).
  ASSERT_TRUE(cat_.AddRelation("R", {"A", "B"}).ok());
  SPCViewBuilder b(cat_);
  size_t a = b.AddAtom(0);
  ASSERT_TRUE(b.Project(a, "A").ok());
  ASSERT_TRUE(b.Project(a, "B").ok());
  ASSERT_TRUE(b.ProjectConstant("CC", "44").ok());
  auto view = b.Build();
  ASSERT_TRUE(view.ok());

  std::vector<CFD> sigma = {CFD::FD(0, {0}, 1).value()};
  auto result = PropagationCoverSPC(cat_, *view, sigma);
  ASSERT_TRUE(result.ok());

  CFD cc = CFD::ConstantColumn(kViewSchemaId, 2, cat_.pool().Intern("44"));
  CFD ab = CFD::FD(kViewSchemaId, {0}, 1).value();
  auto i1 = Implies(result->cover, cc, 3);
  auto i2 = Implies(result->cover, ab, 3);
  ASSERT_TRUE(i1.ok() && i2.ok());
  EXPECT_TRUE(*i1);
  EXPECT_TRUE(*i2);
  ExpectSound(*view, sigma, result->cover);
}

TEST_F(PropCoverTest, InconsistencyReturnsLemma45Pair) {
  ASSERT_TRUE(cat_.AddRelation("R", {"A", "B"}).ok());
  SPCViewBuilder b(cat_);
  size_t a = b.AddAtom(0);
  ASSERT_TRUE(b.SelectConst(a, "B", "b2").ok());
  auto view = b.Build();
  ASSERT_TRUE(view.ok());

  std::vector<CFD> sigma = {
      CFD::Make(0, {0}, {Wc()}, 1, Const("b1")).value()};
  auto result = PropagationCoverSPC(cat_, *view, sigma);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->always_empty);
  EXPECT_TRUE(IsEmptyViewCover(result->cover));
}

TEST_F(PropCoverTest, SigmaVRejectsAnEqThatContradictsSigma) {
  // R(A, B) with Sigma = { R([] -> B, (|| b)) }: every tuple has B = b,
  // so ComputeEQ keys B's class to b. A hand-built EQ that keys it to c
  // instead would make the CFD force b against c on every view tuple,
  // which ComputeEQ's chase rules out: BuildSigmaV reports it.
  ASSERT_TRUE(cat_.AddRelation("R", {"A", "B"}).ok());
  SPCViewBuilder b(cat_);
  size_t r = b.AddAtom(0);
  ASSERT_TRUE(b.Project(r, "A").ok());
  auto view = b.Build();
  ASSERT_TRUE(view.ok());
  const Value vb = cat_.pool().Intern("b");
  const std::vector<CFD> sigma = {CFD::ConstantColumn(0, 1, vb)};

  auto eq = ComputeEQ(cat_, *view, sigma);
  ASSERT_TRUE(eq.ok()) << eq.status();
  ASSERT_FALSE(eq->inconsistent);
  EXPECT_EQ(eq->Key(1), vb);
  auto sv = BuildSigmaV(cat_, *view, sigma, *eq);
  ASSERT_TRUE(sv.ok()) << sv.status();
  EXPECT_TRUE(sv->cfds.empty());  // implied by the key

  EqClasses forged;
  forged.rep = {0, 1};
  forged.key = {kNoValue, cat_.pool().Intern("c")};
  auto bad = BuildSigmaV(cat_, *view, sigma, forged);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInternal);

  forged.inconsistent = true;
  EXPECT_EQ(BuildSigmaV(cat_, *view, sigma, forged).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PropCoverTest, SelectionConstantSimplifiesConditionalCFD) {
  // sigma: ([A=a] -> B), view selects A='a': the condition is always met
  // on the view, so plain B-determinacy is propagated.
  ASSERT_TRUE(cat_.AddRelation("R", {"A", "B", "C"}).ok());
  SPCViewBuilder b(cat_);
  size_t a = b.AddAtom(0);
  ASSERT_TRUE(b.SelectConst(a, "A", "a").ok());
  ASSERT_TRUE(b.Project(a, "B").ok());
  ASSERT_TRUE(b.Project(a, "C").ok());
  auto view = b.Build();
  ASSERT_TRUE(view.ok());

  std::vector<CFD> sigma = {
      CFD::Make(0, {0, 1}, {Const("a"), Wc()}, 2, Wc()).value()};
  auto result = PropagationCoverSPC(cat_, *view, sigma);
  ASSERT_TRUE(result.ok());

  CFD bc = CFD::FD(kViewSchemaId, {0}, 1).value();  // B -> C on the view
  auto implied = Implies(result->cover, bc, 2);
  ASSERT_TRUE(implied.ok());
  EXPECT_TRUE(*implied);
  ExpectSound(*view, sigma, result->cover);
}

TEST_F(PropCoverTest, MismatchedSelectionDropsConditionalCFD) {
  // sigma: ([A=a] -> B=p); view selects A='z' (z != a): the CFD is
  // vacuous on the view and must not constrain it.
  ASSERT_TRUE(cat_.AddRelation("R", {"A", "B", "C"}).ok());
  SPCViewBuilder b(cat_);
  size_t a = b.AddAtom(0);
  ASSERT_TRUE(b.SelectConst(a, "A", "z").ok());
  ASSERT_TRUE(b.Project(a, "B").ok());
  ASSERT_TRUE(b.Project(a, "C").ok());
  auto view = b.Build();
  ASSERT_TRUE(view.ok());

  std::vector<CFD> sigma = {
      CFD::Make(0, {0}, {Const("a")}, 1, Const("p")).value()};
  auto result = PropagationCoverSPC(cat_, *view, sigma);
  ASSERT_TRUE(result.ok());

  CFD bp = CFD::ConstantColumn(kViewSchemaId, 0, cat_.pool().Intern("p"));
  auto implied = Implies(result->cover, bp, 2);
  ASSERT_TRUE(implied.ok());
  EXPECT_FALSE(*implied);
  ExpectSound(*view, sigma, result->cover);
}

TEST_F(PropCoverTest, KeySimplificationPreservesEquivalence) {
  ASSERT_TRUE(cat_.AddRelation("R", {"A", "B", "C", "D"}).ok());
  SPCViewBuilder b(cat_);
  size_t a = b.AddAtom(0);
  ASSERT_TRUE(b.SelectConst(a, "A", "k").ok());
  ASSERT_TRUE(b.Project(a, "B").ok());
  ASSERT_TRUE(b.Project(a, "C").ok());
  ASSERT_TRUE(b.Project(a, "D").ok());
  auto view = b.Build();
  ASSERT_TRUE(view.ok());

  std::vector<CFD> sigma = {
      CFD::Make(0, {0, 1}, {Const("k"), Wc()}, 2, Wc()).value(),
      CFD::FD(0, {2}, 3).value()};

  PropCoverOptions with_keys;
  with_keys.simplify_with_keys = true;
  PropCoverOptions without_keys;
  without_keys.simplify_with_keys = false;

  auto r1 = PropagationCoverSPC(cat_, *view, sigma, with_keys);
  auto r2 = PropagationCoverSPC(cat_, *view, sigma, without_keys);
  ASSERT_TRUE(r1.ok() && r2.ok());

  size_t arity = view->OutputArity();
  for (const CFD& c : r1->cover) {
    auto imp = Implies(r2->cover, c, arity);
    ASSERT_TRUE(imp.ok());
    EXPECT_TRUE(*imp) << "missing in no-keys cover: " << c.ToString(cat_);
  }
  for (const CFD& c : r2->cover) {
    auto imp = Implies(r1->cover, c, arity);
    ASSERT_TRUE(imp.ok());
    EXPECT_TRUE(*imp) << "missing in keys cover: " << c.ToString(cat_);
  }
  ExpectSound(*view, sigma, r1->cover);
  ExpectSound(*view, sigma, r2->cover);
}

TEST_F(PropCoverTest, SPCUCoverIsSoundAcrossDisjuncts) {
  // Union of two selections on A: per-disjunct constants must be
  // filtered out; shared source FDs survive.
  ASSERT_TRUE(cat_.AddRelation("R", {"A", "B", "C"}).ok());

  auto make_disjunct = [&](const char* c) {
    SPCViewBuilder b(cat_);
    size_t a = b.AddAtom(0);
    EXPECT_TRUE(b.SelectConst(a, "A", c).ok());
    auto v = b.Build();
    EXPECT_TRUE(v.ok());
    return *v;
  };
  SPCUView u;
  u.disjuncts = {make_disjunct("1"), make_disjunct("2")};

  std::vector<CFD> sigma = {CFD::FD(0, {1}, 2).value()};  // B -> C
  auto result = PropagationCoverSPCU(cat_, u, sigma);
  ASSERT_TRUE(result.ok()) << result.status();

  size_t arity = u.OutputArity();
  CFD bc = CFD::FD(kViewSchemaId, {1}, 2).value();
  auto implied = Implies(result->cover, bc, arity);
  ASSERT_TRUE(implied.ok());
  EXPECT_TRUE(*implied);

  // A = '1' holds only on the first disjunct: must not be in the cover.
  CFD a1 = CFD::ConstantColumn(kViewSchemaId, 0, cat_.pool().Intern("1"));
  implied = Implies(result->cover, a1, arity);
  ASSERT_TRUE(implied.ok());
  EXPECT_FALSE(*implied);

  for (const CFD& c : result->cover) {
    auto r = IsPropagated(cat_, u, sigma, c);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(*r);
  }
}

TEST_F(PropCoverTest, SPCUCoverRecoversThePaperCFDs) {
  // Example 1.1 end to end: the union cover must imply phi1..phi5, via
  // the constant-column guards that discriminate the disjuncts.
  std::vector<std::string> attrs = {"AC",    "phn",  "name",
                                    "street", "city", "zip"};
  for (const char* name : {"R1", "R2", "R3"}) {
    ASSERT_TRUE(cat_.AddRelation(name, attrs).ok());
  }
  std::vector<CFD> sigma = {
      CFD::FD(0, {5}, 3).value(),  // f1: R1 zip -> street
      CFD::FD(0, {0}, 4).value(),  // f2: R1 AC -> city
      CFD::FD(2, {0}, 4).value(),  // f3: R3 AC -> city
      CFD::Make(0, {0}, {Const("20")}, 4, Const("ldn")).value(),
      CFD::Make(2, {0}, {Const("20")}, 4, Const("Amsterdam")).value()};

  SPCUView view;
  const char* ccs[3] = {"44", "01", "31"};
  for (int i = 0; i < 3; ++i) {
    SPCViewBuilder b(cat_);
    size_t atom = b.AddAtom(static_cast<RelationId>(i));
    for (const std::string& a : attrs) ASSERT_TRUE(b.Project(atom, a).ok());
    ASSERT_TRUE(b.ProjectConstant("CC", ccs[i]).ok());
    auto v = b.Build();
    ASSERT_TRUE(v.ok());
    view.disjuncts.push_back(*v);
  }

  auto result = PropagationCoverSPCU(cat_, view, sigma);
  ASSERT_TRUE(result.ok()) << result.status();

  const size_t arity = 7;  // AC phn name street city zip CC
  std::vector<CFD> expected = {
      CFD::Make(kViewSchemaId, {6, 5}, {Const("44"), Wc()}, 3, Wc()).value(),
      CFD::Make(kViewSchemaId, {6, 0}, {Const("44"), Wc()}, 4, Wc()).value(),
      CFD::Make(kViewSchemaId, {6, 0}, {Const("31"), Wc()}, 4, Wc()).value(),
      CFD::Make(kViewSchemaId, {6, 0}, {Const("44"), Const("20")}, 4,
                Const("ldn"))
          .value(),
      CFD::Make(kViewSchemaId, {6, 0}, {Const("31"), Const("20")}, 4,
                Const("Amsterdam"))
          .value()};
  for (const CFD& phi : expected) {
    auto implied = Implies(result->cover, phi, arity);
    ASSERT_TRUE(implied.ok());
    EXPECT_TRUE(*implied) << "cover misses " << phi.ToString(cat_);
  }
  // And no unconditioned leakage.
  CFD plain_ac = CFD::FD(kViewSchemaId, {0}, 4).value();
  auto implied = Implies(result->cover, plain_ac, arity);
  ASSERT_TRUE(implied.ok());
  EXPECT_FALSE(*implied);
}

TEST_F(PropCoverTest, StatsAreReported) {
  ASSERT_TRUE(cat_.AddRelation("R", {"A", "B", "C"}).ok());
  SPCViewBuilder b(cat_);
  size_t a = b.AddAtom(0);
  ASSERT_TRUE(b.Project(a, "A").ok());
  ASSERT_TRUE(b.Project(a, "C").ok());
  auto view = b.Build();
  ASSERT_TRUE(view.ok());

  std::vector<CFD> sigma = {CFD::FD(0, {0}, 1).value(),
                            CFD::FD(0, {1}, 2).value()};
  auto result = PropagationCoverSPC(cat_, *view, sigma);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->input_cfds, 2u);
  EXPECT_EQ(result->sigma_v_size, 2u);
  EXPECT_GE(result->rbr_output_size, 1u);
  ASSERT_EQ(result->cover.size(), 1u);  // A -> C on the view
  EXPECT_EQ(result->cover[0], CFD::FD(kViewSchemaId, {0}, 1).value());
}

TEST_F(PropCoverTest, MinCoverSigmaRejectsUnknownRelation) {
  ASSERT_TRUE(cat_.AddRelation("R", {"A", "B"}).ok());
  const std::vector<CFD> sigma = {CFD::FD(0, {0}, 1).value(),
                                  CFD::FD(1, {0}, 1).value()};
  EXPECT_EQ(MinCoverSigma(cat_, sigma).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MinCoverSigmaRelation(cat_, {}, sigma, 0).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cfdprop
