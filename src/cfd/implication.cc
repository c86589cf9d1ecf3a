#include "src/cfd/implication.h"

namespace cfdprop {

namespace {

/// The general setting's answer on a template: whether no instantiation
/// of its finite-domain variables yields a counterexample. Kept out of
/// line: inlined, the branch search's chase made GCC call
/// FlatTableau::Apply out of line on the infinite-domain path too, and
/// MinCover 2-5% slower in paired runs.
template <typename ForEachRule, typename Concludes>
[[gnu::noinline]] Result<bool> NoCounterexample(
    FlatTableau& t, const ForEachRule& for_each_rule,
    const Concludes& concludes, const InstantiationOptions& options) {
  CFDPROP_ASSIGN_OR_RETURN(
      bool counterexample,
      ExistsChaseBranch(
          t, for_each_rule,
          [&](const FlatTableau& leaf) { return !concludes(leaf); },
          options));
  return !counterexample;
}

/// Sigma' |= phi', with Sigma', phi' and `drop_lhs` as in
/// ImplicationTester::Implies. Allocates nothing once `t` has grown to
/// 2 * arity cells, outside the general setting's branching.
Result<bool> TemplateImplies(FlatTableau& t, const std::vector<CFD>& sigma,
                             const std::vector<uint8_t>& alive,
                             const CFD& phi, size_t drop_lhs, size_t arity,
                             const AttrDomains& domains,
                             const ImplicationOptions& options) {
  // The template: for a normal phi = (X -> A, tp), two rows that agree
  // on X and match tp[X]. For special-x phi (A = B), one generic row
  // (CFDs are closed under sub-instances, so a single arbitrary tuple
  // is the canonical counterexample).
  t.Clear();
  const uint32_t t1 = t.AddRow(phi.relation, arity, domains);
  const uint32_t t2 = phi.is_special_x()
                          ? t1
                          : t.AddRow(phi.relation, arity, domains);
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
  // Whether phi's conclusion holds on a chase of the template.
  auto concludes = [&](const FlatTableau& c) {
    if (phi.is_special_x()) return c.Equal(t1 + phi.lhs[0], t1 + phi.rhs);
    const uint32_t a1 = t1 + phi.rhs;
    if (!c.Equal(a1, t2 + phi.rhs)) return false;
    return !phi.rhs_pat.is_constant() || c.BoundTo(a1, phi.rhs_pat.value());
  };
  auto for_each_rule = [&](const auto& visit) {
    for (size_t k = 0; k < sigma.size(); ++k) {
      if (!alive.empty() && alive[k] == 0) continue;
      if (!visit(sigma[k], 0)) return;
    }
  };
  // A contradiction means no tuple pair matches phi's LHS under sigma,
  // so phi holds vacuously.
  if (!options.general_setting) {
    // Chase to a fixpoint, but stop as soon as phi's conclusion holds.
    return ChaseUntil(t, for_each_rule, [&] { return concludes(t); });
  }
  return NoCounterexample(t, for_each_rule, concludes, options.instantiation);
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
    : arity_(arity), domains_(domains), options_(options) {}

Result<bool> ImplicationTester::Implies(const std::vector<CFD>& sigma,
                                        const std::vector<uint8_t>& alive,
                                        const CFD& phi, size_t drop_lhs) {
  return TemplateImplies(tableau_, sigma, alive, phi, drop_lhs, arity_,
                         domains_, options_);
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

  // One generic row: sigma is satisfiable iff some tuple is.
  FlatTableau t;
  t.AddRow(rel, arity, domains);
  t.GroupRows();
  auto for_each_rule = [&](const auto& visit) {
    for (const CFD& c : sigma) {
      if (!visit(c, 0)) return;
    }
  };
  if (!options.general_setting) {
    CFDPROP_ASSIGN_OR_RETURN(
        bool contradiction,
        ChaseUntil(t, for_each_rule, [] { return false; }));
    return !contradiction;
  }
  // Satisfiable iff some instantiation survives the chase: any
  // contradiction-free leaf is a witness tuple.
  return ExistsChaseBranch(
      t, for_each_rule, [](const FlatTableau&) { return true; },
      options.instantiation);
}

}  // namespace cfdprop
