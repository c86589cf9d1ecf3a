#include "src/cover/compute_eq.h"

#include <unordered_map>

#include "src/tableau/tableau.h"

namespace cfdprop {

Result<EqClasses> ComputeEQ(const Catalog& catalog, const SPCView& view,
                            const std::vector<CFD>& sigma) {
  CFDPROP_RETURN_NOT_OK(view.Validate(catalog));
  // Ec column c is cell c, and no constant cell follows (constant output
  // columns are not Ec columns).
  FlatTableau t;
  AddViewCopy(catalog, view, t, /*summary=*/nullptr);
  t.GroupRows();
  CFDPROP_ASSIGN_OR_RETURN(bool contradiction, ChaseToFixpoint(t, sigma));

  EqClasses eq;
  if (contradiction) {
    eq.inconsistent = true;
    return eq;
  }
  const size_t u = t.num_cells();
  eq.rep.assign(u, kNoAttr);
  eq.key.resize(u);
  // Canonical representative per chase class: the smallest column id,
  // i.e. the first member met in column order. Every root is a column of
  // its class, so rep[root] holds that first member from the moment it
  // is met (and keeps it when the scan reaches the root itself).
  for (ColumnId c = 0; c < u; ++c) {
    ColumnId& first = eq.rep[t.Root(c)];
    if (first == kNoAttr) first = c;
    eq.rep[c] = first;
    eq.key[c] = t.ConstOf(c);
  }
  return eq;
}

std::vector<CFD> EQ2CFD(const Catalog& catalog, const SPCView& view,
                        const EqClasses& eq) {
  (void)catalog;
  std::vector<CFD> out;

  // Group projected output columns by their EQ class representative.
  std::unordered_map<ColumnId, std::vector<AttrIndex>> by_class;
  for (size_t i = 0; i < view.output.size(); ++i) {
    const OutputColumn& o = view.output[i];
    if (o.is_constant) {
      // The Rc part: each constant column yields RV(A -> A, (_ || a)).
      out.push_back(CFD::ConstantColumn(kViewSchemaId,
                                        static_cast<AttrIndex>(i), o.value));
    } else {
      by_class[eq.Rep(o.ec_column)].push_back(static_cast<AttrIndex>(i));
    }
  }

  // The classes go out in by_class's iteration order, which the served
  // covers depend on (see the header): keep this container and its
  // insertion sequence as they are.
  for (auto& [rep, members] : by_class) {
    Value key = eq.Key(rep);
    if (key != kNoValue) {
      // Keyed class: every member column is the constant key(eq).
      for (AttrIndex a : members) {
        out.push_back(CFD::ConstantColumn(kViewSchemaId, a, key));
      }
    } else if (members.size() > 1) {
      // Unkeyed class: members are pairwise equal; a chain through the
      // first member suffices (MinCover would thin the full clique).
      for (size_t i = 1; i < members.size(); ++i) {
        out.push_back(CFD::Equality(kViewSchemaId, members[0], members[i]));
      }
    }
  }
  return out;
}

std::vector<CFD> MakeEmptyViewCover(Catalog& catalog, const SPCView& view) {
  (void)view;
  // Lemma 4.5: an always-empty view satisfies every CFD; two conflicting
  // constant CFDs on one column imply them all.
  Value a = catalog.pool().Intern("0");
  Value b = catalog.pool().Intern("1");
  return {CFD::ConstantColumn(kViewSchemaId, 0, a),
          CFD::ConstantColumn(kViewSchemaId, 0, b)};
}

bool IsEmptyViewCover(const std::vector<CFD>& cover) {
  // Two unconditional constant CFDs forcing distinct values on the same
  // column (canonical form: empty LHS).
  for (size_t i = 0; i < cover.size(); ++i) {
    const CFD& c1 = cover[i];
    if (!c1.rhs_pat.is_constant() || !c1.lhs.empty()) continue;
    for (size_t j = i + 1; j < cover.size(); ++j) {
      const CFD& c2 = cover[j];
      if (c2.rhs != c1.rhs || !c2.rhs_pat.is_constant() || !c2.lhs.empty()) {
        continue;
      }
      if (c2.rhs_pat.value() != c1.rhs_pat.value()) return true;
    }
  }
  return false;
}

}  // namespace cfdprop
