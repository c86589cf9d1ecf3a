#include "src/cover/compute_eq.h"

#include <unordered_map>

#include "src/chase/chase.h"
#include "src/tableau/tableau.h"

namespace cfdprop {

Result<EqClasses> ComputeEQ(const Catalog& catalog, const SPCView& view,
                            const std::vector<CFD>& sigma) {
  SymbolicInstance inst;
  CFDPROP_ASSIGN_OR_RETURN(ViewTableau tableau,
                           BuildViewTableau(catalog, view, inst));
  CFDPROP_ASSIGN_OR_RETURN(ChaseOutcome outcome, Chase(inst, sigma));

  EqClasses eq;
  if (outcome == ChaseOutcome::kContradiction) {
    eq.inconsistent = true;
    return eq;
  }

  const size_t u = tableau.ec_cells.size();
  eq.rep.resize(u);
  eq.key.resize(u, kNoValue);

  // Canonical representative per chase class: the smallest column id.
  std::unordered_map<CellId, ColumnId> root_to_rep;
  for (ColumnId c = 0; c < u; ++c) {
    CellId root = inst.Find(tableau.ec_cells[c]);
    auto [it, inserted] = root_to_rep.emplace(root, c);
    eq.rep[c] = it->second;
    auto key = inst.ConstOf(tableau.ec_cells[c]);
    if (key.has_value()) eq.key[c] = *key;
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
