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

/// The implication kernel's template: `rows` (1 or 2) rows of `arity`
/// cells in the caller's scratch buffer, cell r * arity + a holding row
/// r's attribute a. A union-find in which every cell names its class's
/// root directly (a union relabels the absorbed class, so a lookup is one
/// load), with one constant slot per root. Apart from the buffer it
/// keeps the rules of SymbolicInstance on infinite-domain cells: merging
/// or binding two distinct constants is a contradiction, and two cells
/// are equal when they share a class or are bound to the same constant.
class Template {
 public:
  Template(std::vector<uint32_t>& scratch, size_t arity, size_t rows)
      : arity_(arity), rows_(rows), cells_(arity * rows) {
    scratch.resize(2 * cells_);
    root_ = scratch.data();
    const_ = root_ + cells_;
    for (size_t c = 0; c < cells_; ++c) {
      root_[c] = static_cast<uint32_t>(c);
      const_[c] = kNoValue;
    }
  }

  size_t rows() const { return rows_; }
  bool contradiction() const { return contradiction_; }

  /// Whether anything merged or bound since the last call.
  bool TakeChanged() {
    bool changed = changed_;
    changed_ = false;
    return changed;
  }

  uint32_t Cell(size_t row, AttrIndex attr) const {
    return static_cast<uint32_t>(row * arity_ + attr);
  }

  bool BoundTo(uint32_t cell, Value v) const {
    Value k = const_[root_[cell]];
    return k != kNoValue && k == v;
  }

  /// Does the cell match pattern `p`?  '_' matches everything; a
  /// constant matches only a cell bound to it.
  bool Matches(uint32_t cell, const PatternValue& p) const {
    return p.is_wildcard() || (p.is_constant() && BoundTo(cell, p.value()));
  }

  bool Equal(uint32_t a, uint32_t b) const {
    uint32_t ra = root_[a];
    uint32_t rb = root_[b];
    return ra == rb || (const_[ra] != kNoValue && const_[ra] == const_[rb]);
  }

  void Union(uint32_t a, uint32_t b) {
    uint32_t ra = root_[a];
    uint32_t rb = root_[b];
    if (ra == rb) return;
    if (const_[rb] != kNoValue) {
      if (const_[ra] != kNoValue && const_[ra] != const_[rb]) {
        contradiction_ = true;
        return;
      }
      const_[ra] = const_[rb];
    }
    for (size_t c = 0; c < cells_; ++c) {
      if (root_[c] == rb) root_[c] = ra;
    }
    changed_ = true;
  }

  void Bind(uint32_t cell, Value v) {
    Value& k = const_[root_[cell]];
    if (k == v) return;
    if (k != kNoValue) {
      contradiction_ = true;
      return;
    }
    k = v;
    changed_ = true;
  }

 private:
  size_t arity_;
  size_t rows_;
  size_t cells_;
  uint32_t* root_ = nullptr;
  Value* const_ = nullptr;
  bool changed_ = false;
  bool contradiction_ = false;
};

/// Chase's single-tuple rule on row `row`.
void ApplySingle(Template& t, const CFD& psi, size_t row) {
  if (!psi.rhs_pat.is_constant()) return;  // binds nothing
  for (size_t i = 0; i < psi.lhs.size(); ++i) {
    if (!t.Matches(t.Cell(row, psi.lhs[i]), psi.lhs_pats[i])) return;
  }
  t.Bind(t.Cell(row, psi.rhs), psi.rhs_pat.value());
}

/// Chase's pair rule on the template's two rows.
void ApplyPair(Template& t, const CFD& psi) {
  for (size_t i = 0; i < psi.lhs.size(); ++i) {
    uint32_t a1 = t.Cell(0, psi.lhs[i]);
    if (!t.Equal(a1, t.Cell(1, psi.lhs[i]))) return;
    if (!t.Matches(a1, psi.lhs_pats[i])) return;
  }
  t.Union(t.Cell(0, psi.rhs), t.Cell(1, psi.rhs));
  if (t.contradiction()) return;
  if (psi.rhs_pat.is_constant()) {
    t.Bind(t.Cell(0, psi.rhs), psi.rhs_pat.value());
  }
}

/// Applies one CFD of sigma to the template, in Chase's order.
void Apply(Template& t, const CFD& psi) {
  if (psi.is_special_x()) {
    // Equality rule: every row gets cell[A] = cell[B].
    for (size_t r = 0; r < t.rows() && !t.contradiction(); ++r) {
      t.Union(t.Cell(r, psi.lhs[0]), t.Cell(r, psi.rhs));
    }
    return;
  }
  ApplySingle(t, psi, 0);
  if (t.rows() == 2) {
    ApplyPair(t, psi);
    ApplySingle(t, psi, 1);
  }
}

/// Whether phi's conclusion holds on the template.
bool Concludes(const Template& t, const CFD& phi) {
  if (phi.is_special_x()) {
    return t.Equal(t.Cell(0, phi.lhs[0]), t.Cell(0, phi.rhs));
  }
  uint32_t a1 = t.Cell(0, phi.rhs);
  if (!t.Equal(a1, t.Cell(1, phi.rhs))) return false;
  return !phi.rhs_pat.is_constant() || t.BoundTo(a1, phi.rhs_pat.value());
}

/// The implication kernel: Sigma' |= phi' in the infinite-domain
/// setting, with Sigma', phi' and `drop_lhs` as in
/// ImplicationTester::Implies. Allocates nothing once `scratch` has
/// grown to 4 * arity cells.
Result<bool> KernelImplies(std::vector<uint32_t>& scratch,
                           const std::vector<CFD>& sigma,
                           const std::vector<uint8_t>& alive,
                           const CFD& phi, size_t drop_lhs, size_t arity) {
  // The template of ChaseImplies: two rows that agree on phi's LHS and
  // match its pattern, or one row for special-x phi.
  Template t(scratch, arity, phi.is_special_x() ? 1 : 2);
  if (!phi.is_special_x()) {
    for (size_t i = 0; i < phi.lhs.size(); ++i) {
      if (i == drop_lhs) continue;
      uint32_t a1 = t.Cell(0, phi.lhs[i]);
      t.Union(a1, t.Cell(1, phi.lhs[i]));
      if (phi.lhs_pats[i].is_constant()) {
        t.Bind(a1, phi.lhs_pats[i].value());
      }
    }
  }
  // Chase to a fixpoint, but stop as soon as phi's conclusion holds:
  // the chase only adds equalities and constants, so a conclusion once
  // reached stays. A contradiction means no tuple pair matches phi's LHS
  // under sigma, so phi holds vacuously.
  if (t.contradiction() || Concludes(t, phi)) return true;
  const uint64_t max_passes = ChaseOptions{}.max_passes;
  for (uint64_t pass = 1;; ++pass) {
    if (pass > max_passes) {
      return Status::Internal("chase exceeded max_passes; likely a bug");
    }
    bool changed = false;
    for (size_t k = 0; k < sigma.size(); ++k) {
      if (!alive.empty() && alive[k] == 0) continue;
      Apply(t, sigma[k]);
      if (t.contradiction()) return true;
      if (t.TakeChanged()) {
        if (Concludes(t, phi)) return true;
        changed = true;
      }
    }
    if (!changed) return false;
  }
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
    return KernelImplies(scratch_, sigma, alive, phi, drop_lhs, arity_);
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
