#include "src/propagation/propagation.h"

#include <utility>

#include "src/tableau/tableau.h"

namespace cfdprop {

namespace {

/// Whether no instantiation of `work`'s finite-domain variables leaves a
/// chased leaf where `concludes` fails. Kept out of line, as
/// NoCounterexample in src/cfd/implication.cc is: inlined, the branch
/// search's chase made GCC call FlatTableau::Apply out of line on the
/// infinite-domain path too.
template <typename Concludes>
[[gnu::noinline]] Result<bool> NoCounterexample(
    FlatTableau& work, const SigmaGroups& sigma,
    const Concludes& concludes, const InstantiationOptions& options) {
  CFDPROP_ASSIGN_OR_RETURN(
      bool counterexample,
      ExistsChaseBranch(
          work, GroupRules(work, sigma),
          [&](const FlatTableau& leaf) { return !concludes(leaf); },
          options));
  return !counterexample;
}

/// Whether phi passes on `work`, a tableau at or past its copies'
/// fixpoint with phi's LHS applied: outside the general setting, whether
/// the chase forces `concludes`; in it, whether no instantiation's chase
/// leaves a leaf where it fails. A contradiction means no
/// Sigma-satisfying source produces the pair, which passes.
template <typename Concludes>
Result<bool> Passes(FlatTableau& work, const SigmaGroups& sigma,
                    const PropagationOptions& options,
                    const Concludes& concludes) {
  if (!options.general_setting) {
    return ChaseUntil(work, GroupRules(work, sigma),
                      [&] { return concludes(work); });
  }
  return NoCounterexample(work, sigma, concludes, options.instantiation);
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
    const Catalog& catalog, const SPCUView& view, SigmaGroups sigma,
    const PropagationOptions& options) {
  CFDPROP_RETURN_NOT_OK(view.Validate(catalog));
  return PropagationTester(catalog, view, std::move(sigma), options);
}

Result<PropagationTester> PropagationTester::Make(
    const Catalog& catalog, const SPCUView& view,
    const std::vector<CFD>& sigma, const PropagationOptions& options) {
  CFDPROP_ASSIGN_OR_RETURN(SigmaGroups groups,
                           SigmaGroups::Make(&catalog, sigma));
  return Make(catalog, view, std::move(groups), options);
}

PropagationTester::PropagationTester(const Catalog& catalog,
                                     const SPCUView& view,
                                     SigmaGroups sigma,
                                     const PropagationOptions& options)
    : catalog_(&catalog),
      view_(&view),
      options_(options),
      sigma_(std::move(sigma)),
      singles_(view.disjuncts.size()),
      pairs_(view.disjuncts.size() * view.disjuncts.size()) {}

Result<PropagationTester::Base*> PropagationTester::BaseOf(size_t i,
                                                           size_t j,
                                                           bool single) {
  Base& base = single ? singles_[i] : pairs_[i * view_->disjuncts.size() + j];
  if (base.built) return &base;
  FlatTableau& t = base.chased;
  AddViewCopy(*catalog_, view_->disjuncts[i], t, &base.t1);
  if (!single) AddViewCopy(*catalog_, view_->disjuncts[j], t, &base.t2);
  t.GroupRows();
  CFDPROP_ASSIGN_OR_RETURN(base.contradiction, ChaseToFixpoint(t, sigma_));
  base.work = t;
  base.built = true;
  return &base;
}

Result<bool> PropagationTester::IsPropagated(const CFD& phi) {
  CFDPROP_RETURN_NOT_OK(phi.Validate(view_->OutputArity()));
  if (phi.relation != kViewSchemaId) {
    return Status::InvalidArgument("phi must be a view CFD (kViewSchemaId)");
  }
  const size_t k = view_->disjuncts.size();
  if (phi.is_special_x()) {
    // The single-copy check: every view tuple of every disjunct must
    // have equal A/B cells.
    for (size_t i = 0; i < k; ++i) {
      CFDPROP_ASSIGN_OR_RETURN(Base* base, BaseOf(i, i, /*single=*/true));
      if (base->contradiction) continue;  // the disjunct is always empty
      const std::vector<uint32_t>& t1 = base->t1;
      auto concludes = [&](const FlatTableau& c) {
        return c.Equal(t1[phi.lhs[0]], t1[phi.rhs]);
      };
      // The copy is at its fixpoint, which decides outside the general
      // setting.
      if (!options_.general_setting) {
        if (!concludes(base->chased)) return false;
        continue;
      }
      base->work.CopyCellsFrom(base->chased);
      CFDPROP_ASSIGN_OR_RETURN(
          bool pass, NoCounterexample(base->work, sigma_, concludes,
                                      options_.instantiation));
      if (!pass) return false;
    }
    return true;
  }
  // All k^2 ordered disjunct combinations (t1 from e_i, t2 from e_j);
  // (i, j) and (j, i) are symmetric, so i <= j suffices.
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i; j < k; ++j) {
      CFDPROP_ASSIGN_OR_RETURN(Base* base, BaseOf(i, j, /*single=*/false));
      if (base->contradiction) continue;  // no pair from e_i, e_j at all
      FlatTableau& work = base->work;
      work.CopyCellsFrom(base->chased);
      const std::vector<uint32_t>& t1 = base->t1;
      const std::vector<uint32_t>& t2 = base->t2;
      // rho1/rho2: identify the copies on phi's LHS and bind pattern
      // constants. A conflict makes work contradictory: the pair is
      // impossible.
      for (size_t l = 0; l < phi.lhs.size(); ++l) {
        const AttrIndex a = phi.lhs[l];
        work.Union(t1[a], t2[a]);
        if (phi.lhs_pats[l].is_constant()) {
          work.Bind(t1[a], phi.lhs_pats[l].value());
        }
      }
      auto concludes = [&](const FlatTableau& c) {
        const uint32_t b1 = t1[phi.rhs];
        if (!c.Equal(b1, t2[phi.rhs])) return false;
        return !phi.rhs_pat.is_constant() ||
               c.BoundTo(b1, phi.rhs_pat.value());
      };
      CFDPROP_ASSIGN_OR_RETURN(bool pass,
                               Passes(work, sigma_, options_, concludes));
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
