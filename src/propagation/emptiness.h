// The emptiness problem for CFDs and views (Section 3.3).
//
// Given a view V over R and source CFDs Sigma, is V(D) empty for *every*
// instance D |= Sigma? (Example 3.1: a CFD forcing B = b1 on all source
// tuples plus a selection B = b2 makes the view unconditionally empty —
// and then every view CFD is vacuously propagated.)
//
// Decided by chasing each disjunct's tableau with Sigma: an undefined
// (contradictory) chase means the disjunct yields no tuple; otherwise
// the fixpoint instantiates to a witness source producing a view tuple.
// The chase runs on the flat kernel (src/chase/flat_tableau.h). PTIME
// without finite-domain attributes (Theorem 3.8); with them the general
// setting's non-emptiness test instantiates finite-domain variables
// (ExistsChaseBranch), NP overall (Theorem 3.7).

#ifndef CFDPROP_PROPAGATION_EMPTINESS_H_
#define CFDPROP_PROPAGATION_EMPTINESS_H_

#include <vector>

#include "src/algebra/view.h"
#include "src/base/status.h"
#include "src/cfd/cfd.h"
#include "src/chase/flat_tableau.h"
#include "src/schema/schema.h"

namespace cfdprop {

struct EmptinessOptions {
  /// Instantiate finite-domain variables (general setting, Theorem 3.7).
  bool general_setting = false;
  InstantiationOptions instantiation;
};

/// True iff V(D) is empty for every D |= sigma.
Result<bool> IsAlwaysEmpty(const Catalog& catalog, const SPCUView& view,
                           const std::vector<CFD>& sigma,
                           const EmptinessOptions& options = {});

/// Convenience overload for SPC views.
Result<bool> IsAlwaysEmpty(const Catalog& catalog, const SPCView& view,
                           const std::vector<CFD>& sigma,
                           const EmptinessOptions& options = {});

}  // namespace cfdprop

#endif  // CFDPROP_PROPAGATION_EMPTINESS_H_
