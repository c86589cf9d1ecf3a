// Tableau representation of SPC views (appendix, Fig. 9 / Theorem 1).
//
// The tableau of pi_Y(Rc x sigma_F(R1 x ... x Rn)) on the flat chase
// kernel (src/chase/flat_tableau.h): one free-tuple row per relation
// atom Rj (fresh variable cells carrying the source attributes'
// domains), the selection condition F applied as cell unions (A = B) and
// constant bindings (A = 'a'), and a summary mapping every output column
// of the view to a cell. Building two tableaux of (possibly different)
// disjuncts into one FlatTableau is how the propagation test constructs
// the rho1/rho2 copies of the Theorem 3.1 proof. ComputeEQ,
// IsAlwaysEmpty and IsPropagated build their tableaux here.

#ifndef CFDPROP_TABLEAU_TABLEAU_H_
#define CFDPROP_TABLEAU_TABLEAU_H_

#include <vector>

#include "src/algebra/view.h"
#include "src/chase/flat_tableau.h"
#include "src/schema/schema.h"

namespace cfdprop {

/// Appends one tableau copy of a validated `view` to `t`: one row per
/// atom at consecutive offsets, so Ec column c is cell (returned first
/// cell + c), with the atoms' attribute domains, and the selections
/// applied. A constant conflict in F (or a constant outside a finite
/// domain) makes `t` contradictory: the view is unconditionally empty.
/// When `summary` is non-null it receives the cell of every output
/// column, a new constant cell for a constant column. Call t.GroupRows()
/// after the last copy.
uint32_t AddViewCopy(const Catalog& catalog, const SPCView& view,
                     FlatTableau& t, std::vector<uint32_t>* summary);

/// Whether no atom's relation of `view` has a finite-domain attribute:
/// its tableau then has no cell for the general setting to instantiate.
/// `view` must be validated.
bool HasOnlyInfiniteAtoms(const Catalog& catalog, const SPCView& view);

}  // namespace cfdprop

#endif  // CFDPROP_TABLEAU_TABLEAU_H_
