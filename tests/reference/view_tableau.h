// The reference tableau of an SPC view (appendix, Fig. 9 / Theorem 1),
// materialized into a SymbolicInstance: one free-tuple row per relation
// atom Rj (fresh variable cells carrying the source attributes'
// domains), the selection condition F applied as cell unions (A = B) and
// constant bindings (A = 'a'), and a summary mapping every output column
// of the view to a cell. Building two tableaux of (possibly different)
// disjuncts into one instance is how the propagation test constructs the
// rho1/rho2 copies of the Theorem 3.1 proof. The library builds the same
// tableau on the flat kernel with AddViewCopy (src/tableau/tableau.h).

#ifndef CFDPROP_TESTS_REFERENCE_VIEW_TABLEAU_H_
#define CFDPROP_TESTS_REFERENCE_VIEW_TABLEAU_H_

#include <vector>

#include "src/algebra/view.h"
#include "src/base/status.h"
#include "src/schema/schema.h"
#include "tests/reference/symbolic_instance.h"

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

}  // namespace cfdprop

#endif  // CFDPROP_TESTS_REFERENCE_VIEW_TABLEAU_H_
