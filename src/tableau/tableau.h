// Tableau representation of SPC views (appendix, Fig. 9 / Theorem 1).
//
// The tableau of pi_Y(Rc x sigma_F(R1 x ... x Rn)) materialized into a
// SymbolicInstance: one free-tuple row per relation atom Rj (fresh
// variable cells carrying the source attributes' domains), the selection
// condition F applied as cell unions (A = B) and constant bindings
// (A = 'a'), and a summary mapping every output column of the view to a
// cell. Building two tableaux of (possibly different) disjuncts into one
// instance is how the propagation test constructs the rho1/rho2 copies of
// the Theorem 3.1 proof.
//
// AddViewCopy builds the same tableau on the flat chase kernel
// (src/chase/flat_tableau.h), which the infinite-domain callers use:
// ComputeEQ, IsAlwaysEmpty and IsPropagated.

#ifndef CFDPROP_TABLEAU_TABLEAU_H_
#define CFDPROP_TABLEAU_TABLEAU_H_

#include <vector>

#include "src/algebra/view.h"
#include "src/base/status.h"
#include "src/chase/flat_tableau.h"
#include "src/chase/symbolic_instance.h"
#include "src/schema/schema.h"

namespace cfdprop {

/// Cell handles of one tableau copy inside a SymbolicInstance.
struct ViewTableau {
  /// Cell per Ec column (index = ColumnId).
  std::vector<CellId> ec_cells;
  /// Cell per output column of the view schema; constant output columns
  /// map to constant cells.
  std::vector<CellId> summary;
};

/// Appends one tableau copy of `view` to `instance`: rows tagged with the
/// source relation ids (so source CFDs chase against them), selections
/// applied. A constant conflict in F marks the instance contradictory
/// (the view is unconditionally empty), which callers observe via
/// instance.contradiction().
Result<ViewTableau> BuildViewTableau(const Catalog& catalog,
                                     const SPCView& view,
                                     SymbolicInstance& instance);

/// Appends one tableau copy of a validated `view` to `t`: one row per
/// atom at consecutive offsets, so Ec column c is cell (returned first
/// cell + c), and the selections applied. When `summary` is non-null it
/// receives the cell of every output column, a new constant cell for a
/// constant column. Call t.GroupRows() after the last copy.
uint32_t AddViewCopy(const Catalog& catalog, const SPCView& view,
                     FlatTableau& t, std::vector<uint32_t>* summary);

/// Whether `view`'s tableau can be chased on the flat kernel: no atom's
/// relation has a finite-domain attribute (those cells need
/// SymbolicInstance's domains). `view` must be validated.
bool HasOnlyInfiniteAtoms(const Catalog& catalog, const SPCView& view);

}  // namespace cfdprop

#endif  // CFDPROP_TABLEAU_TABLEAU_H_
