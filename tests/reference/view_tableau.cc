#include "tests/reference/view_tableau.h"

namespace cfdprop {

Result<ViewTableau> BuildViewTableau(const Catalog& catalog,
                                     const SPCView& view,
                                     SymbolicInstance& instance) {
  CFDPROP_RETURN_NOT_OK(view.Validate(catalog));

  ViewTableau t;
  t.ec_cells.reserve(view.NumEcColumns(catalog));

  // One free-tuple row of fresh variable cells per relation atom.
  for (RelationId rel : view.atoms) {
    const RelationSchema& schema = catalog.relation(rel);
    std::vector<CellId> row;
    row.reserve(schema.arity());
    for (AttrIndex i = 0; i < schema.arity(); ++i) {
      CellId c = instance.NewCell(&schema.attr(i).domain);
      row.push_back(c);
      t.ec_cells.push_back(c);
    }
    instance.AddRow(rel, std::move(row));
  }

  // Apply the selection condition F.
  for (const Selection& s : view.selections) {
    if (s.kind == Selection::Kind::kColumnEq) {
      instance.Union(t.ec_cells[s.left], t.ec_cells[s.right]);
    } else {
      instance.BindConst(t.ec_cells[s.left], s.value);
    }
  }

  // Summary row: the view tuple.
  t.summary.reserve(view.output.size());
  for (const OutputColumn& o : view.output) {
    if (o.is_constant) {
      t.summary.push_back(instance.NewConstCell(o.value));
    } else {
      t.summary.push_back(t.ec_cells[o.ec_column]);
    }
  }
  return t;
}

}  // namespace cfdprop
