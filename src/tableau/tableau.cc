#include "src/tableau/tableau.h"

#include <algorithm>

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

uint32_t AddViewCopy(const Catalog& catalog, const SPCView& view,
                     FlatTableau& t, std::vector<uint32_t>* summary) {
  const uint32_t first = static_cast<uint32_t>(t.num_cells());
  for (RelationId rel : view.atoms) {
    t.AddRow(rel, catalog.relation(rel).arity());
  }
  for (const Selection& s : view.selections) {
    if (s.kind == Selection::Kind::kColumnEq) {
      t.Union(first + s.left, first + s.right);
    } else {
      t.Bind(first + s.left, s.value);
    }
  }
  if (summary != nullptr) {
    summary->clear();
    for (const OutputColumn& o : view.output) {
      summary->push_back(o.is_constant ? t.AddConstCell(o.value)
                                       : first + o.ec_column);
    }
  }
  return first;
}

bool HasOnlyInfiniteAtoms(const Catalog& catalog, const SPCView& view) {
  return std::none_of(view.atoms.begin(), view.atoms.end(),
                      [&](RelationId r) {
                        return catalog.relation(r).HasFiniteDomainAttr();
                      });
}

}  // namespace cfdprop
