#include "src/cfd/implication.h"

#include <algorithm>

namespace cfdprop {

namespace {

/// Adds a row of `arity` fresh variable cells for `relation`.
std::vector<CellId> AddTemplateRow(SymbolicInstance& inst, size_t arity,
                                   RelationId relation,
                                   const AttrDomains& domains) {
  std::vector<CellId> cells;
  cells.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    const Domain* d = i < domains.size() ? domains[i] : nullptr;
    cells.push_back(inst.NewCell(d));
  }
  inst.AddRow(relation, cells);
  return cells;
}

/// Chases `inst` and reports whether phi holds on it. `t1`/`t2` are the
/// template rows' cells; for special-x phi only t1 is used.
Result<bool> HoldsAfterChase(SymbolicInstance& inst,
                             const std::vector<CFD>& sigma, const CFD& phi,
                             const std::vector<CellId>& t1,
                             const std::vector<CellId>& t2) {
  CFDPROP_ASSIGN_OR_RETURN(ChaseOutcome outcome, Chase(inst, sigma));
  if (outcome == ChaseOutcome::kContradiction) {
    // The premise (a pair/tuple matching phi's LHS) is unsatisfiable
    // under sigma, so phi holds vacuously on this branch.
    return true;
  }
  if (phi.is_special_x()) {
    return inst.EqualCells(t1[phi.lhs[0]], t1[phi.rhs]);
  }
  if (!inst.EqualCells(t1[phi.rhs], t2[phi.rhs])) return false;
  if (phi.rhs_pat.is_constant()) {
    auto c = inst.ConstOf(t1[phi.rhs]);
    if (!c.has_value() || *c != phi.rhs_pat.value()) return false;
  }
  return true;
}

/// Sigma |= phi' on a SymbolicInstance template, where phi' is phi
/// without its LHS attribute at position `drop_lhs` (none: SIZE_MAX).
Result<bool> ChaseImplies(const std::vector<CFD>& sigma, const CFD& phi,
                          size_t drop_lhs, size_t arity,
                          const AttrDomains& domains,
                          const ImplicationOptions& options) {
  // Build the template. For a normal phi = (X -> A, tp): two rows that
  // agree on X and match tp[X]. For special-x phi (A = B): one generic
  // row (CFDs are closed under sub-instances, so a single arbitrary tuple
  // is the canonical counterexample).
  SymbolicInstance base;
  std::vector<CellId> t1 =
      AddTemplateRow(base, arity, phi.relation, domains);
  std::vector<CellId> t2;
  if (!phi.is_special_x()) {
    t2 = AddTemplateRow(base, arity, phi.relation, domains);
    for (size_t i = 0; i < phi.lhs.size(); ++i) {
      if (i == drop_lhs) continue;
      AttrIndex a = phi.lhs[i];
      base.Union(t1[a], t2[a]);
      if (phi.lhs_pats[i].is_constant()) {
        base.BindConst(t1[a], phi.lhs_pats[i].value());
      }
    }
    if (base.contradiction()) return true;  // LHS pattern unsatisfiable
  }

  if (!options.general_setting) {
    return HoldsAfterChase(base, sigma, phi, t1, t2);
  }

  // General setting: phi is implied iff no instantiation of the
  // finite-domain variables yields a counterexample. Branch-and-prune:
  // chase first, branch on surviving unbound finite cells only.
  CFDPROP_ASSIGN_OR_RETURN(
      bool counterexample,
      ExistsChaseBranch(
          base, sigma,
          [&](SymbolicInstance& leaf) {
            // Leaf is already chased and contradiction-free; phi fails
            // on it iff the RHS condition is not forced.
            if (phi.is_special_x()) {
              return !leaf.EqualCells(t1[phi.lhs[0]], t1[phi.rhs]);
            }
            if (!leaf.EqualCells(t1[phi.rhs], t2[phi.rhs])) return true;
            if (phi.rhs_pat.is_constant()) {
              auto c = leaf.ConstOf(t1[phi.rhs]);
              if (!c.has_value() || *c != phi.rhs_pat.value()) return true;
            }
            return false;
          },
          options.instantiation));
  return !counterexample;
}

/// The implication kernel: Sigma' |= phi' in the infinite-domain
/// setting, with Sigma', phi' and `drop_lhs` as in
/// ImplicationTester::Implies, on the flat chase kernel
/// (src/chase/flat_tableau.h). Allocates nothing once `t` has grown to
/// 2 * arity cells.
Result<bool> KernelImplies(FlatTableau& t, const std::vector<CFD>& sigma,
                           const std::vector<uint8_t>& alive,
                           const CFD& phi, size_t drop_lhs, size_t arity) {
  // The template of ChaseImplies: two rows that agree on phi's LHS and
  // match its pattern, or one row for special-x phi.
  t.Clear();
  const uint32_t t1 = t.AddRow(phi.relation, arity);
  const uint32_t t2 = phi.is_special_x() ? t1 : t.AddRow(phi.relation, arity);
  t.GroupRows();
  if (!phi.is_special_x()) {
    for (size_t i = 0; i < phi.lhs.size(); ++i) {
      if (i == drop_lhs) continue;
      const uint32_t a1 = t1 + phi.lhs[i];
      t.Union(a1, t2 + phi.lhs[i]);
      if (phi.lhs_pats[i].is_constant()) {
        t.Bind(a1, phi.lhs_pats[i].value());
      }
    }
  }
  // Whether phi's conclusion holds on the template.
  auto concludes = [&] {
    if (phi.is_special_x()) return t.Equal(t1 + phi.lhs[0], t1 + phi.rhs);
    const uint32_t a1 = t1 + phi.rhs;
    if (!t.Equal(a1, t2 + phi.rhs)) return false;
    return !phi.rhs_pat.is_constant() || t.BoundTo(a1, phi.rhs_pat.value());
  };
  // Chase to a fixpoint, but stop as soon as phi's conclusion holds. A
  // contradiction means no tuple pair matches phi's LHS under sigma, so
  // phi holds vacuously.
  return ChaseUntil(
      t,
      [&](const auto& visit) {
        for (size_t k = 0; k < sigma.size(); ++k) {
          if (!alive.empty() && alive[k] == 0) continue;
          if (!visit(sigma[k], 0)) return;
        }
      },
      concludes);
}

bool AllInfinite(const AttrDomains& domains) {
  return std::all_of(domains.begin(), domains.end(), [](const Domain* d) {
    return d == nullptr || !d->finite();
  });
}

}  // namespace

AttrDomains DomainsOf(const Catalog& catalog, RelationId relation) {
  const RelationSchema& schema = catalog.relation(relation);
  AttrDomains out(schema.arity(), nullptr);
  for (size_t i = 0; i < schema.arity(); ++i) {
    out[i] = &schema.attr(static_cast<AttrIndex>(i)).domain;
  }
  return out;
}

Status ValidateImplicationInput(const std::vector<CFD>& sigma,
                                RelationId relation, size_t arity) {
  for (const CFD& c : sigma) {
    CFDPROP_RETURN_NOT_OK(c.Validate(arity));
    if (c.relation != relation) {
      return Status::InvalidArgument(
          "implication requires all CFDs on the same relation");
    }
  }
  return Status::OK();
}

Result<bool> Implies(const std::vector<CFD>& sigma, const CFD& phi,
                     size_t arity, const AttrDomains& domains,
                     const ImplicationOptions& options) {
  CFDPROP_RETURN_NOT_OK(phi.Validate(arity));
  CFDPROP_RETURN_NOT_OK(ValidateImplicationInput(sigma, phi.relation, arity));
  return ImplicationTester(arity, domains, options).Implies(sigma, {}, phi);
}

ImplicationTester::ImplicationTester(size_t arity,
                                     const AttrDomains& domains,
                                     const ImplicationOptions& options)
    : arity_(arity),
      domains_(domains),
      options_(options),
      kernel_(!options.general_setting && AllInfinite(domains)) {}

Result<bool> ImplicationTester::Implies(const std::vector<CFD>& sigma,
                                        const std::vector<uint8_t>& alive,
                                        const CFD& phi, size_t drop_lhs) {
  if (kernel_) {
    return KernelImplies(tableau_, sigma, alive, phi, drop_lhs, arity_);
  }
  if (alive.empty()) {
    return ChaseImplies(sigma, phi, drop_lhs, arity_, domains_, options_);
  }
  std::vector<CFD> live;
  for (size_t k = 0; k < sigma.size(); ++k) {
    if (alive[k] != 0) live.push_back(sigma[k]);
  }
  return ChaseImplies(live, phi, drop_lhs, arity_, domains_, options_);
}

Result<bool> IsSatisfiable(const std::vector<CFD>& sigma, size_t arity,
                           const AttrDomains& domains,
                           const ImplicationOptions& options) {
  if (sigma.empty()) return true;
  RelationId rel = sigma.front().relation;
  for (const CFD& c : sigma) {
    CFDPROP_RETURN_NOT_OK(c.Validate(arity));
    if (c.relation != rel) {
      return Status::InvalidArgument(
          "satisfiability requires all CFDs on the same relation");
    }
  }

  SymbolicInstance base;
  AddTemplateRow(base, arity, rel, domains);

  if (!options.general_setting) {
    SymbolicInstance fork = base;
    CFDPROP_ASSIGN_OR_RETURN(ChaseOutcome outcome, Chase(fork, sigma));
    return outcome == ChaseOutcome::kFixpoint;
  }

  // Satisfiable iff some instantiation survives the chase: any
  // contradiction-free leaf is a witness tuple.
  return ExistsChaseBranch(
      base, sigma, [](SymbolicInstance&) { return true; },
      options.instantiation);
}

}  // namespace cfdprop
