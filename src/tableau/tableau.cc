#include "src/tableau/tableau.h"

#include <algorithm>

namespace cfdprop {

uint32_t AddViewCopy(const Catalog& catalog, const SPCView& view,
                     FlatTableau& t, std::vector<uint32_t>* summary) {
  const uint32_t first = static_cast<uint32_t>(t.num_cells());
  std::vector<const Domain*> domains;
  for (RelationId rel : view.atoms) {
    const RelationSchema& schema = catalog.relation(rel);
    if (!schema.HasFiniteDomainAttr()) {
      t.AddRow(rel, schema.arity());
      continue;
    }
    domains.clear();
    for (const Attribute& a : schema.attrs()) domains.push_back(&a.domain);
    t.AddRow(rel, schema.arity(), domains);
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
