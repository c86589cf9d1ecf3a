#include "src/propagation/propagation.h"

#include <algorithm>

#include "src/tableau/tableau.h"

namespace cfdprop {

namespace {

/// Checks one chased fork of a two-copy instance against phi's RHS.
/// `t1`/`t2` are the two summary rows.
Result<bool> PairPasses(SymbolicInstance& fork, const std::vector<CFD>& sigma,
                        const CFD& phi, const std::vector<CellId>& t1,
                        const std::vector<CellId>& t2) {
  CFDPROP_ASSIGN_OR_RETURN(ChaseOutcome outcome, Chase(fork, sigma));
  if (outcome == ChaseOutcome::kContradiction) {
    return true;  // no Sigma-satisfying source produces this pair
  }
  if (phi.is_special_x()) {
    return fork.EqualCells(t1[phi.lhs[0]], t1[phi.rhs]);
  }
  if (!fork.EqualCells(t1[phi.rhs], t2[phi.rhs])) return false;
  if (phi.rhs_pat.is_constant()) {
    auto c = fork.ConstOf(t1[phi.rhs]);
    if (!c.has_value() || *c != phi.rhs_pat.value()) return false;
  }
  return true;
}

/// Does a chased, fully-instantiated leaf violate phi's RHS condition?
bool LeafViolates(SymbolicInstance& leaf, const CFD& phi,
                  const std::vector<CellId>& t1,
                  const std::vector<CellId>& t2) {
  if (phi.is_special_x()) {
    return !leaf.EqualCells(t1[phi.lhs[0]], t1[phi.rhs]);
  }
  if (!leaf.EqualCells(t1[phi.rhs], t2[phi.rhs])) return true;
  if (phi.rhs_pat.is_constant()) {
    auto c = leaf.ConstOf(t1[phi.rhs]);
    if (!c.has_value() || *c != phi.rhs_pat.value()) return true;
  }
  return false;
}

/// Runs the pass/fail check over the finite-domain instantiation space
/// (branch-and-prune in the general setting, a single chase otherwise).
/// Returns true iff no instantiation violates phi.
Result<bool> AllInstantiationsPass(const SymbolicInstance& base,
                                   const std::vector<CFD>& sigma,
                                   const CFD& phi,
                                   const std::vector<CellId>& t1,
                                   const std::vector<CellId>& t2,
                                   const PropagationOptions& options) {
  if (!options.general_setting) {
    SymbolicInstance fork = base;
    return PairPasses(fork, sigma, phi, t1, t2);
  }
  CFDPROP_ASSIGN_OR_RETURN(
      bool counterexample,
      ExistsChaseBranch(
          base, sigma,
          [&](SymbolicInstance& leaf) {
            return LeafViolates(leaf, phi, t1, t2);
          },
          options.instantiation));
  return !counterexample;
}

/// The single-copy check for special-x phi (A = B on the view): every
/// view tuple of every disjunct must have equal A/B cells.
Result<bool> CheckEqualityCFD(const Catalog& catalog, const SPCUView& view,
                              const std::vector<CFD>& sigma, const CFD& phi,
                              const PropagationOptions& options) {
  for (const SPCView& disjunct : view.disjuncts) {
    SymbolicInstance base;
    CFDPROP_ASSIGN_OR_RETURN(ViewTableau t,
                             BuildViewTableau(catalog, disjunct, base));
    CFDPROP_ASSIGN_OR_RETURN(
        bool pass, AllInstantiationsPass(base, sigma, phi, t.summary,
                                         t.summary, options));
    if (!pass) return false;
  }
  return true;
}

}  // namespace

PropagationOptions AutoOptions(const Catalog& catalog, const SPCUView& view) {
  PropagationOptions options;
  for (const SPCView& v : view.disjuncts) {
    if (!HasOnlyInfiniteAtoms(catalog, v)) {
      options.general_setting = true;
      return options;
    }
  }
  return options;
}

Result<PropagationTester> PropagationTester::Make(
    const Catalog& catalog, const SPCUView& view,
    const std::vector<CFD>& sigma, const PropagationOptions& options) {
  CFDPROP_RETURN_NOT_OK(view.Validate(catalog));
  for (const CFD& c : sigma) {
    if (c.relation >= catalog.num_relations()) {
      return Status::InvalidArgument("source CFD with unknown relation");
    }
    CFDPROP_RETURN_NOT_OK(
        c.Validate(catalog.relation(c.relation).arity()));
  }
  return PropagationTester(catalog, view, sigma, options);
}

PropagationTester::PropagationTester(const Catalog& catalog,
                                     const SPCUView& view,
                                     const std::vector<CFD>& sigma,
                                     const PropagationOptions& options)
    : catalog_(&catalog),
      view_(&view),
      sigma_(&sigma),
      options_(options),
      kernel_(!options.general_setting) {
  std::vector<RelationId> relations;  // of the atoms, distinct
  for (const SPCView& d : view.disjuncts) {
    kernel_ = kernel_ && HasOnlyInfiniteAtoms(catalog, d);
    for (RelationId r : d.atoms) {
      if (std::find(relations.begin(), relations.end(), r) ==
          relations.end()) {
        relations.push_back(r);
      }
    }
  }
  if (!kernel_) return;
  rules_.Build(sigma, relations);
  const size_t k = view.disjuncts.size();
  singles_.resize(k);
  pairs_.resize(k * k);
}

Result<PropagationTester::Base*> PropagationTester::BaseOf(size_t i,
                                                           size_t j,
                                                           bool single) {
  Base& base = single ? singles_[i] : pairs_[i * view_->disjuncts.size() + j];
  if (base.built) return &base;
  FlatTableau& t = base.chased;
  AddViewCopy(*catalog_, view_->disjuncts[i], t, &base.t1);
  if (!single) AddViewCopy(*catalog_, view_->disjuncts[j], t, &base.t2);
  t.GroupRows();
  CFDPROP_ASSIGN_OR_RETURN(base.contradiction, ChaseToFixpoint(t, rules_));
  base.work = t;
  base.built = true;
  return &base;
}

Result<bool> PropagationTester::KernelPasses(const CFD& phi) {
  if (phi.is_special_x()) {
    // The single-copy check: every view tuple of every disjunct must
    // have equal A/B cells.
    for (size_t i = 0; i < view_->disjuncts.size(); ++i) {
      CFDPROP_ASSIGN_OR_RETURN(Base* base, BaseOf(i, i, /*single=*/true));
      if (base->contradiction) continue;  // the disjunct is always empty
      if (!base->chased.Equal(base->t1[phi.lhs[0]], base->t1[phi.rhs])) {
        return false;
      }
    }
    return true;
  }
  const size_t k = view_->disjuncts.size();
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i; j < k; ++j) {
      CFDPROP_ASSIGN_OR_RETURN(Base* base, BaseOf(i, j, /*single=*/false));
      if (base->contradiction) continue;  // no pair from e_i, e_j at all
      FlatTableau& work = base->work;
      work.CopyCellsFrom(base->chased);
      const std::vector<uint32_t>& t1 = base->t1;
      const std::vector<uint32_t>& t2 = base->t2;
      // rho1/rho2 as in the SymbolicInstance path below.
      for (size_t l = 0; l < phi.lhs.size(); ++l) {
        const AttrIndex a = phi.lhs[l];
        work.Union(t1[a], t2[a]);
        if (phi.lhs_pats[l].is_constant()) {
          work.Bind(t1[a], phi.lhs_pats[l].value());
        }
      }
      auto concludes = [&] {
        const uint32_t b1 = t1[phi.rhs];
        if (!work.Equal(b1, t2[phi.rhs])) return false;
        return !phi.rhs_pat.is_constant() ||
               work.BoundTo(b1, phi.rhs_pat.value());
      };
      CFDPROP_ASSIGN_OR_RETURN(bool pass,
                               ChaseUntil(work, rules_, concludes));
      if (!pass) return false;
    }
  }
  return true;
}

Result<bool> PropagationTester::IsPropagated(const CFD& phi) {
  CFDPROP_RETURN_NOT_OK(phi.Validate(view_->OutputArity()));
  if (phi.relation != kViewSchemaId) {
    return Status::InvalidArgument("phi must be a view CFD (kViewSchemaId)");
  }
  if (kernel_) return KernelPasses(phi);

  const Catalog& catalog = *catalog_;
  const SPCUView& view = *view_;
  const std::vector<CFD>& sigma = *sigma_;
  if (phi.is_special_x()) {
    return CheckEqualityCFD(catalog, view, sigma, phi, options_);
  }

  // All k^2 ordered disjunct combinations (t1 from e_i, t2 from e_j);
  // (i, j) and (j, i) are symmetric, so i <= j suffices.
  const size_t k = view.disjuncts.size();
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i; j < k; ++j) {
      SymbolicInstance base;
      CFDPROP_ASSIGN_OR_RETURN(
          ViewTableau ti, BuildViewTableau(catalog, view.disjuncts[i], base));
      CFDPROP_ASSIGN_OR_RETURN(
          ViewTableau tj, BuildViewTableau(catalog, view.disjuncts[j], base));

      // rho1/rho2: identify the copies on phi's LHS and bind pattern
      // constants. Conflicts mark the instance contradictory, which
      // PairPasses reads as "pair impossible".
      for (size_t l = 0; l < phi.lhs.size(); ++l) {
        AttrIndex a = phi.lhs[l];
        base.Union(ti.summary[a], tj.summary[a]);
        if (phi.lhs_pats[l].is_constant()) {
          base.BindConst(ti.summary[a], phi.lhs_pats[l].value());
        }
      }

      CFDPROP_ASSIGN_OR_RETURN(
          bool pass, AllInstantiationsPass(base, sigma, phi, ti.summary,
                                           tj.summary, options_));
      if (!pass) return false;
    }
  }
  return true;
}

Result<bool> IsPropagated(const Catalog& catalog, const SPCUView& view,
                          const std::vector<CFD>& sigma, const CFD& phi,
                          const PropagationOptions& options) {
  CFDPROP_ASSIGN_OR_RETURN(
      PropagationTester tester,
      PropagationTester::Make(catalog, view, sigma, options));
  return tester.IsPropagated(phi);
}

Result<bool> IsPropagated(const Catalog& catalog, const SPCView& view,
                          const std::vector<CFD>& sigma, const CFD& phi,
                          const PropagationOptions& options) {
  return IsPropagated(catalog, SPCUView(view), sigma, phi, options);
}

}  // namespace cfdprop
