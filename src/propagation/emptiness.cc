#include "src/propagation/emptiness.h"

#include "src/tableau/tableau.h"

namespace cfdprop {

namespace {

/// Can this disjunct produce a tuple under some Sigma-satisfying source?
Result<bool> DisjunctNonEmpty(const Catalog& catalog, const SPCView& view,
                              const SigmaGroups& sigma,
                              const EmptinessOptions& options) {
  FlatTableau t;
  AddViewCopy(catalog, view, t, /*summary=*/nullptr);
  t.GroupRows();
  if (!options.general_setting) {
    CFDPROP_ASSIGN_OR_RETURN(bool contradiction, ChaseToFixpoint(t, sigma));
    return !contradiction;
  }
  // Non-empty iff the branch-and-prune search reaches any
  // contradiction-free leaf (a witness instantiation).
  return ExistsChaseBranch(
      t, GroupRules(t, sigma), [](const FlatTableau&) { return true; },
      options.instantiation);
}

}  // namespace

Result<bool> IsAlwaysEmpty(const Catalog& catalog, const SPCUView& view,
                           const std::vector<CFD>& sigma,
                           const EmptinessOptions& options) {
  CFDPROP_RETURN_NOT_OK(view.Validate(catalog));
  CFDPROP_ASSIGN_OR_RETURN(SigmaGroups groups,
                           SigmaGroups::Make(&catalog, sigma));
  for (const SPCView& disjunct : view.disjuncts) {
    CFDPROP_ASSIGN_OR_RETURN(
        bool nonempty, DisjunctNonEmpty(catalog, disjunct, groups, options));
    if (nonempty) return false;
  }
  return true;
}

Result<bool> IsAlwaysEmpty(const Catalog& catalog, const SPCView& view,
                           const std::vector<CFD>& sigma,
                           const EmptinessOptions& options) {
  return IsAlwaysEmpty(catalog, SPCUView(view), sigma, options);
}

}  // namespace cfdprop
