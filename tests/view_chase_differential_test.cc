// Differential test of the flat chase kernel on view tableaux against
// the reference chase of tests/reference (SymbolicInstance,
// BuildViewTableau, Chase and ExistsChaseBranch). ComputeEQ, IsPropagated
// (free and through a PropagationTester) and IsAlwaysEmpty run on the
// kernel, whose cells carry the atoms' domains; they must agree with the
// reference on seeded random catalogs (some with finite domains), views
// (constant and column-equality selections, constant output columns,
// repeated atoms) and source CFDs (special-x, constant-RHS,
// forbidden-pattern, contradicting ones), in the infinite-domain reading
// and in the general setting, where both sides search the instantiations
// of the finite-domain cells.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/cover/compute_eq.h"
#include "src/cover/propcfd_spc.h"
#include "src/gen/generators.h"
#include "src/propagation/emptiness.h"
#include "src/propagation/propagation.h"
#include "src/tableau/tableau.h"
#include "tests/reference/chase.h"
#include "tests/reference/view_tableau.h"

namespace cfdprop {
namespace {

/// One random case: a catalog, Sigma over it and a union view.
struct World {
  Catalog catalog;
  std::vector<Value> consts;
  std::vector<CFD> sigma;
  SPCUView view;
};

class ViewChaseDifferentialTest : public ::testing::Test {
 protected:
  PatternValue RandomPattern(Rng& rng, const World& w, uint32_t wildcard_pct) {
    if (rng.Percent(wildcard_pct)) return PatternValue::Wildcard();
    return PatternValue::Constant(w.consts[rng.Below(w.consts.size())]);
  }

  /// A source CFD on a random relation: special-x, empty-LHS constant,
  /// forbidden-pattern, or a random LHS with a wildcard or constant RHS.
  CFD RandomSourceCFD(Rng& rng, const World& w) {
    const RelationId r =
        static_cast<RelationId>(rng.Below(w.catalog.num_relations()));
    const size_t arity = w.catalog.relation(r).arity();
    auto attr = [&] { return static_cast<AttrIndex>(rng.Below(arity)); };
    const uint32_t kind = static_cast<uint32_t>(rng.Below(100));
    if (kind < 10) return CFD::Equality(r, attr(), attr());
    if (kind < 25) {
      return CFD::ConstantColumn(r, attr(), w.consts[rng.Below(
                                                w.consts.size())]);
    }
    while (true) {
      std::vector<AttrIndex> lhs;
      std::vector<PatternValue> pats;
      const size_t size = rng.Below(std::min<size_t>(arity, 3) + 1);
      for (size_t i = 0; i < size; ++i) {
        lhs.push_back(attr());
        pats.push_back(RandomPattern(rng, w, 55));
      }
      AttrIndex rhs = attr();
      PatternValue rhs_pat = RandomPattern(rng, w, 50);
      if (kind < 35) {
        // Forbidden pattern: rhs in the LHS with constant e, rhs_pat a
        // constant f != e.
        const Value e = w.consts[0];
        lhs.push_back(rhs);
        pats.push_back(PatternValue::Constant(e));
        rhs_pat = PatternValue::Constant(w.consts[1]);
      }
      auto made = CFD::Make(r, lhs, pats, rhs, rhs_pat);
      if (made.ok()) return std::move(made).value();
    }
  }

  /// An SPC view over 1-3 atoms (relations may repeat) with
  /// `outputs` output columns.
  SPCView RandomView(Rng& rng, const World& w, size_t outputs) {
    SPCView v;
    const size_t atoms = 1 + rng.Below(3);
    size_t u = 0;
    for (size_t j = 0; j < atoms; ++j) {
      v.atoms.push_back(
          static_cast<RelationId>(rng.Below(w.catalog.num_relations())));
      u += w.catalog.relation(v.atoms.back()).arity();
    }
    auto col = [&] { return static_cast<ColumnId>(rng.Below(u)); };
    const size_t selections = rng.Below(5);
    for (size_t s = 0; s < selections; ++s) {
      if (rng.Percent(50)) {
        v.selections.push_back(Selection::ColumnEq(col(), col()));
      } else {
        v.selections.push_back(Selection::ConstantEq(
            col(), w.consts[rng.Below(w.consts.size())]));
      }
    }
    for (size_t i = 0; i < outputs; ++i) {
      const std::string name = "o" + std::to_string(i);
      if (rng.Percent(20)) {
        v.output.push_back(OutputColumn::Constant(
            name, w.consts[rng.Below(w.consts.size())]));
      } else {
        v.output.push_back(OutputColumn::Projected(name, col()));
      }
    }
    return v;
  }

  World RandomWorld(Rng& rng) {
    World w;
    SchemaGenOptions schema;
    schema.num_relations = 1 + rng.Below(3);
    schema.min_arity = 2;
    schema.max_arity = 5;
    schema.finite_pct = rng.Percent(30) ? 25 : 0;
    schema.finite_domain_size = 2;
    w.catalog = GenerateSchema(schema, rng.Next());
    // d0/d1 are the finite domains' values; x lies outside them.
    for (const char* text : {"d0", "d1", "x"}) {
      w.consts.push_back(w.catalog.pool().Intern(text));
    }
    const size_t size = rng.Below(9);
    for (size_t i = 0; i < size; ++i) {
      w.sigma.push_back(RandomSourceCFD(rng, w));
    }
    const size_t outputs = 1 + rng.Below(4);
    const size_t disjuncts = 1 + rng.Below(3);
    for (size_t d = 0; d < disjuncts; ++d) {
      w.view.disjuncts.push_back(RandomView(rng, w, outputs));
    }
    return w;
  }

  /// Appends up to two case splits to Sigma: on a finite attribute F of
  /// a relation, one CFD per value of dom(F) forcing another attribute
  /// to one constant (a conclusion only the general setting draws), or,
  /// a third of the time, two conflicting constants per value (the
  /// relation then has no tuple in the general setting).
  void AddCaseSplits(Rng& rng, World& w) {
    const size_t splits = rng.Below(3);
    for (size_t k = 0; k < splits; ++k) {
      const RelationId r =
          static_cast<RelationId>(rng.Below(w.catalog.num_relations()));
      const RelationSchema& schema = w.catalog.relation(r);
      std::vector<AttrIndex> finite;
      for (AttrIndex a = 0; a < schema.arity(); ++a) {
        if (schema.attr(a).domain.finite()) finite.push_back(a);
      }
      if (finite.empty()) continue;
      const AttrIndex f = finite[rng.Below(finite.size())];
      const AttrIndex b = static_cast<AttrIndex>(
          (f + 1 + rng.Below(schema.arity() - 1)) % schema.arity());
      const size_t n = w.consts.size();
      const size_t ci = rng.Below(n);
      const Value c = w.consts[ci];
      const bool conflict = rng.Percent(33);
      for (Value v : schema.attr(f).domain.values()) {
        const PatternValue when = PatternValue::Constant(v);
        w.sigma.push_back(
            CFD::Make(r, {f}, {when}, b, PatternValue::Constant(c)).value());
        if (conflict) {
          const Value other = w.consts[(ci + 1 + rng.Below(n - 1)) % n];
          w.sigma.push_back(CFD::Make(r, {f}, {when}, b,
                                      PatternValue::Constant(other))
                                .value());
        }
      }
    }
  }

  /// A view CFD over `arity` output columns.
  CFD RandomViewCFD(Rng& rng, const World& w, size_t arity) {
    auto attr = [&] { return static_cast<AttrIndex>(rng.Below(arity)); };
    if (rng.Percent(15)) return CFD::Equality(kViewSchemaId, attr(), attr());
    while (true) {
      std::vector<AttrIndex> lhs;
      std::vector<PatternValue> pats;
      const size_t size = rng.Below(std::min<size_t>(arity, 3) + 1);
      for (size_t i = 0; i < size; ++i) {
        lhs.push_back(attr());
        pats.push_back(RandomPattern(rng, w, 60));
      }
      auto made = CFD::Make(kViewSchemaId, lhs, pats, attr(),
                            RandomPattern(rng, w, 60));
      if (made.ok()) return std::move(made).value();
    }
  }

  /// The union assembly's candidates: every per-disjunct cover member,
  /// and a copy guarded by the disjunct's constant output columns.
  std::vector<CFD> UnionCandidates(World& w) {
    std::vector<CFD> out;
    PropCoverOptions options;
    for (const SPCView& d : w.view.disjuncts) {
      auto r = PropagationCoverSPC(w.catalog, d, w.sigma, options);
      if (!r.ok()) continue;
      for (const CFD& c : r->cover) {
        out.push_back(c);
        if (c.is_special_x()) continue;
        std::vector<AttrIndex> lhs = c.lhs;
        std::vector<PatternValue> pats = c.lhs_pats;
        for (size_t i = 0; i < d.output.size(); ++i) {
          const AttrIndex a = static_cast<AttrIndex>(i);
          if (d.output[i].is_constant && c.FindLhs(a) == SIZE_MAX) {
            lhs.push_back(a);
            pats.push_back(PatternValue::Constant(d.output[i].value));
          }
        }
        auto guarded = CFD::Make(kViewSchemaId, lhs, pats, c.rhs, c.rhs_pat);
        if (guarded.ok()) out.push_back(std::move(guarded).value());
      }
    }
    return out;
  }

  // ---------------------------------------------------------- reference

  EqClasses ReferenceEQ(const World& w, const SPCView& view) {
    SymbolicInstance inst;
    auto tableau = BuildViewTableau(w.catalog, view, inst);
    EXPECT_TRUE(tableau.ok()) << tableau.status();
    auto outcome = Chase(inst, w.sigma);
    EXPECT_TRUE(outcome.ok()) << outcome.status();
    EqClasses eq;
    if (*outcome == ChaseOutcome::kContradiction) {
      eq.inconsistent = true;
      return eq;
    }
    const size_t u = tableau->ec_cells.size();
    eq.rep.resize(u);
    eq.key.resize(u, kNoValue);
    std::unordered_map<CellId, ColumnId> first;
    for (ColumnId c = 0; c < u; ++c) {
      const CellId cell = tableau->ec_cells[c];
      eq.rep[c] = first.emplace(inst.Find(cell), c).first->second;
      eq.key[c] = inst.ConstOf(cell).value_or(kNoValue);
    }
    return eq;
  }

  /// Does phi's RHS condition hold on a chased pair of summaries?
  static bool Holds(SymbolicInstance& inst, const CFD& phi,
                    const std::vector<CellId>& t1,
                    const std::vector<CellId>& t2) {
    if (phi.is_special_x()) return inst.EqualCells(t1[phi.lhs[0]], t1[phi.rhs]);
    if (!inst.EqualCells(t1[phi.rhs], t2[phi.rhs])) return false;
    return !phi.rhs_pat.is_constant() ||
           inst.ConstOf(t1[phi.rhs]) == phi.rhs_pat.value();
  }

  bool ReferencePropagated(const World& w, const CFD& phi) {
    const auto& ds = w.view.disjuncts;
    for (size_t i = 0; i < ds.size(); ++i) {
      // Special-x phi checks each disjunct alone, others every i <= j.
      const size_t end = phi.is_special_x() ? i + 1 : ds.size();
      for (size_t j = i; j < end; ++j) {
        SymbolicInstance inst;
        auto ti = BuildViewTableau(w.catalog, ds[i], inst);
        EXPECT_TRUE(ti.ok()) << ti.status();
        std::vector<CellId> t2 = ti->summary;
        if (!phi.is_special_x()) {
          auto tj = BuildViewTableau(w.catalog, ds[j], inst);
          EXPECT_TRUE(tj.ok()) << tj.status();
          t2 = tj->summary;
          for (size_t l = 0; l < phi.lhs.size(); ++l) {
            const AttrIndex a = phi.lhs[l];
            inst.Union(ti->summary[a], t2[a]);
            if (phi.lhs_pats[l].is_constant()) {
              inst.BindConst(ti->summary[a], phi.lhs_pats[l].value());
            }
          }
        }
        auto outcome = Chase(inst, w.sigma);
        EXPECT_TRUE(outcome.ok()) << outcome.status();
        if (*outcome == ChaseOutcome::kContradiction) continue;
        if (!Holds(inst, phi, ti->summary, t2)) return false;
      }
    }
    return true;
  }

  /// Sigma |=_V phi in the general setting, by the reference search;
  /// ResourceExhausted past `budget` nodes for one combination.
  Result<bool> ReferencePropagatedGeneral(const World& w, const CFD& phi,
                                          const InstantiationOptions& budget) {
    const auto& ds = w.view.disjuncts;
    for (size_t i = 0; i < ds.size(); ++i) {
      const size_t end = phi.is_special_x() ? i + 1 : ds.size();
      for (size_t j = i; j < end; ++j) {
        SymbolicInstance inst;
        auto ti = BuildViewTableau(w.catalog, ds[i], inst);
        EXPECT_TRUE(ti.ok()) << ti.status();
        std::vector<CellId> t2 = ti->summary;
        if (!phi.is_special_x()) {
          auto tj = BuildViewTableau(w.catalog, ds[j], inst);
          EXPECT_TRUE(tj.ok()) << tj.status();
          t2 = tj->summary;
          for (size_t l = 0; l < phi.lhs.size(); ++l) {
            const AttrIndex a = phi.lhs[l];
            inst.Union(ti->summary[a], t2[a]);
            if (phi.lhs_pats[l].is_constant()) {
              inst.BindConst(ti->summary[a], phi.lhs_pats[l].value());
            }
          }
        }
        CFDPROP_ASSIGN_OR_RETURN(
            bool counterexample,
            ExistsChaseBranch(
                inst, w.sigma,
                [&](SymbolicInstance& leaf) {
                  return !Holds(leaf, phi, ti->summary, t2);
                },
                budget));
        if (counterexample) return false;
      }
    }
    return true;
  }

  /// IsAlwaysEmpty in the general setting, by the reference search.
  Result<bool> ReferenceEmptyGeneral(const World& w,
                                     const InstantiationOptions& budget) {
    for (const SPCView& d : w.view.disjuncts) {
      SymbolicInstance inst;
      EXPECT_TRUE(BuildViewTableau(w.catalog, d, inst).ok());
      CFDPROP_ASSIGN_OR_RETURN(
          bool witness,
          ExistsChaseBranch(
              inst, w.sigma, [](SymbolicInstance&) { return true; },
              budget));
      if (witness) return false;
    }
    return true;
  }

  bool ReferenceEmpty(const World& w) {
    for (const SPCView& d : w.view.disjuncts) {
      SymbolicInstance inst;
      EXPECT_TRUE(BuildViewTableau(w.catalog, d, inst).ok());
      auto outcome = Chase(inst, w.sigma);
      EXPECT_TRUE(outcome.ok()) << outcome.status();
      if (*outcome == ChaseOutcome::kFixpoint) return false;
    }
    return true;
  }

  static std::string Describe(const World& w, const CFD* phi) {
    std::string out = "view = " + w.view.ToString(w.catalog) + "\nsigma =";
    for (const CFD& c : w.sigma) out += "\n  " + c.ToString(w.catalog);
    if (phi != nullptr) out += "\nphi = " + phi->ToString(w.catalog);
    return out;
  }
};

TEST_F(ViewChaseDifferentialTest, KernelAgreesWithSymbolicInstanceChase) {
  Rng rng(20260);
  size_t kernel_views = 0, finite_views = 0;
  size_t inconsistent = 0, consistent = 0;
  size_t propagated = 0, not_propagated = 0;
  size_t empty = 0, nonempty = 0;
  for (int n = 0; n < 2500; ++n) {
    World w = RandomWorld(rng);
    ASSERT_TRUE(w.view.Validate(w.catalog).ok());

    // ComputeEQ on every disjunct.
    for (const SPCView& d : w.view.disjuncts) {
      ++(HasOnlyInfiniteAtoms(w.catalog, d) ? kernel_views : finite_views);
      auto got = ComputeEQ(w.catalog, d, w.sigma);
      ASSERT_TRUE(got.ok()) << got.status();
      const EqClasses want = ReferenceEQ(w, d);
      ASSERT_EQ(got->inconsistent, want.inconsistent)
          << "case " << n << "\n" << Describe(w, nullptr);
      ASSERT_EQ(got->rep, want.rep) << "case " << n << "\n"
                                    << Describe(w, nullptr);
      ASSERT_EQ(got->key, want.key) << "case " << n << "\n"
                                    << Describe(w, nullptr);
      ++(want.inconsistent ? inconsistent : consistent);
    }

    // IsAlwaysEmpty on the union.
    auto is_empty = IsAlwaysEmpty(w.catalog, w.view, w.sigma);
    ASSERT_TRUE(is_empty.ok()) << is_empty.status();
    ASSERT_EQ(*is_empty, ReferenceEmpty(w))
        << "case " << n << "\n" << Describe(w, nullptr);
    ++(*is_empty ? empty : nonempty);

    // IsPropagated on the union candidates and on random view CFDs,
    // through one tester and through the free function.
    std::vector<CFD> phis = UnionCandidates(w);
    for (int k = 0; k < 6; ++k) {
      phis.push_back(RandomViewCFD(rng, w, w.view.OutputArity()));
    }
    auto tester = PropagationTester::Make(w.catalog, w.view, w.sigma);
    ASSERT_TRUE(tester.ok()) << tester.status();
    for (const CFD& phi : phis) {
      const bool want = ReferencePropagated(w, phi);
      auto got = tester->IsPropagated(phi);
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_EQ(*got, want) << "case " << n << "\n" << Describe(w, &phi);
      auto once = IsPropagated(w.catalog, w.view, w.sigma, phi);
      ASSERT_TRUE(once.ok()) << once.status();
      ASSERT_EQ(*once, want) << "case " << n << "\n" << Describe(w, &phi);
      ++(want ? propagated : not_propagated);
    }
  }
  // Every outcome is common, so no side can pass by being constant, and
  // views with and without finite-domain atoms ran.
  EXPECT_GT(kernel_views, 1000u);
  EXPECT_GT(finite_views, 300u);
  EXPECT_GT(inconsistent, 300u);
  EXPECT_GT(consistent, 1000u);
  EXPECT_GT(empty, 100u);
  EXPECT_GT(nonempty, 1000u);
  EXPECT_GT(propagated, 3000u);
  EXPECT_GT(not_propagated, 3000u);
}

TEST_F(ViewChaseDifferentialTest, GeneralSettingAgreesWithReferenceSearch) {
  // IsAlwaysEmpty and IsPropagated with general_setting = true against
  // the reference ExistsChaseBranch. The two searches may branch in
  // different orders, so a case where either exceeds the node budget is
  // not compared; the test bounds how many such cases there are.
  Rng rng(32071);
  InstantiationOptions budget;
  budget.max_instantiations = 1u << 14;
  EmptinessOptions empty_general;
  empty_general.general_setting = true;
  empty_general.instantiation = budget;
  PropagationOptions general;
  general.general_setting = true;
  general.instantiation = budget;
  size_t finite_worlds = 0, compared = 0, exhausted = 0;
  size_t empty = 0, nonempty = 0, empty_flips = 0;
  size_t propagated = 0, not_propagated = 0, propagated_flips = 0;
  for (int n = 0; n < 1500; ++n) {
    World w = RandomWorld(rng);
    ASSERT_TRUE(w.view.Validate(w.catalog).ok());
    finite_worlds += w.catalog.HasFiniteDomainAttr();
    AddCaseSplits(rng, w);

    auto is_empty = IsAlwaysEmpty(w.catalog, w.view, w.sigma, empty_general);
    auto want_empty = ReferenceEmptyGeneral(w, budget);
    if (!is_empty.ok() || !want_empty.ok()) {
      ASSERT_EQ(is_empty.ok() ? want_empty.status().code()
                              : is_empty.status().code(),
                StatusCode::kResourceExhausted);
      ++exhausted;
    } else {
      ASSERT_EQ(*is_empty, *want_empty)
          << "case " << n << "\n" << Describe(w, nullptr);
      ++(*is_empty ? empty : nonempty);
      empty_flips += *is_empty != ReferenceEmpty(w);
    }

    std::vector<CFD> phis = UnionCandidates(w);
    for (int k = 0; k < 6; ++k) {
      phis.push_back(RandomViewCFD(rng, w, w.view.OutputArity()));
    }
    auto tester = PropagationTester::Make(w.catalog, w.view, w.sigma, general);
    ASSERT_TRUE(tester.ok()) << tester.status();
    for (const CFD& phi : phis) {
      auto want = ReferencePropagatedGeneral(w, phi, budget);
      auto got = tester->IsPropagated(phi);
      auto once = IsPropagated(w.catalog, w.view, w.sigma, phi, general);
      if (!want.ok() || !got.ok() || !once.ok()) {
        for (const Status& st : {want.status(), got.status(), once.status()}) {
          ASSERT_TRUE(st.ok() || st.code() == StatusCode::kResourceExhausted)
              << st;
        }
        ++exhausted;
        continue;
      }
      ASSERT_EQ(*got, *want) << "case " << n << "\n" << Describe(w, &phi);
      ASSERT_EQ(*once, *want) << "case " << n << "\n" << Describe(w, &phi);
      ++compared;
      ++(*want ? propagated : not_propagated);
      propagated_flips += *want != ReferencePropagated(w, phi);
    }
  }
  // Finite-domain worlds ran, every outcome is common, the general
  // setting changed the infinite-domain answer in enough cases to be
  // tested, and few cases went uncompared.
  EXPECT_GT(finite_worlds, 300u);
  EXPECT_GT(compared, 10000u);
  EXPECT_LT(exhausted, compared / 100);
  EXPECT_GT(empty, 50u);
  EXPECT_GT(nonempty, 500u);
  EXPECT_GT(empty_flips, 15u);
  EXPECT_GT(propagated, 2000u);
  EXPECT_GT(not_propagated, 2000u);
  EXPECT_GT(propagated_flips, 100u);
}

}  // namespace
}  // namespace cfdprop
