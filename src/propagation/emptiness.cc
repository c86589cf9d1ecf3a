#include "src/propagation/emptiness.h"

#include "src/tableau/tableau.h"

namespace cfdprop {

namespace {

/// Can this disjunct produce a tuple under some Sigma-satisfying source?
Result<bool> DisjunctNonEmpty(const Catalog& catalog, const SPCView& view,
                              const std::vector<CFD>& sigma,
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
  const RelationRules rules = RulesFor(t, sigma);
  return ExistsChaseBranch(
      t, GroupRules(t, rules), [](const FlatTableau&) { return true; },
      options.instantiation);
}

}  // namespace

Result<bool> IsAlwaysEmpty(const Catalog& catalog, const SPCUView& view,
                           const std::vector<CFD>& sigma,
                           const EmptinessOptions& options) {
  CFDPROP_RETURN_NOT_OK(view.Validate(catalog));
  for (const CFD& c : sigma) {
    if (c.relation >= catalog.num_relations()) {
      return Status::InvalidArgument("source CFD with unknown relation");
    }
    CFDPROP_RETURN_NOT_OK(c.Validate(catalog.relation(c.relation).arity()));
  }
  for (const SPCView& disjunct : view.disjuncts) {
    CFDPROP_ASSIGN_OR_RETURN(
        bool nonempty, DisjunctNonEmpty(catalog, disjunct, sigma, options));
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
