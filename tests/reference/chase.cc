#include "tests/reference/chase.h"

namespace cfdprop {

namespace {

/// Does the row's cell at `attr` match pattern `p`?  '_' matches
/// everything; a constant matches only a cell bound to that constant.
bool CellMatches(SymbolicInstance& inst, const SymbolicInstance::Row& row,
                 AttrIndex attr, const PatternValue& p) {
  if (p.is_wildcard()) return true;
  auto c = inst.ConstOf(row.cells[attr]);
  return c.has_value() && p.is_constant() && *c == p.value();
}

/// Single-tuple application of a normal-form CFD.
void ApplySingle(SymbolicInstance& inst, const CFD& cfd,
                 const SymbolicInstance::Row& row) {
  for (size_t i = 0; i < cfd.lhs.size(); ++i) {
    if (!CellMatches(inst, row, cfd.lhs[i], cfd.lhs_pats[i])) return;
  }
  if (cfd.rhs_pat.is_constant()) {
    inst.BindConst(row.cells[cfd.rhs], cfd.rhs_pat.value());
  }
}

/// Pair application of a normal-form CFD.
void ApplyPair(SymbolicInstance& inst, const CFD& cfd,
               const SymbolicInstance::Row& r1,
               const SymbolicInstance::Row& r2) {
  for (size_t i = 0; i < cfd.lhs.size(); ++i) {
    AttrIndex a = cfd.lhs[i];
    if (!inst.EqualCells(r1.cells[a], r2.cells[a])) return;
    if (!CellMatches(inst, r1, a, cfd.lhs_pats[i])) return;
  }
  if (!inst.Union(r1.cells[cfd.rhs], r2.cells[cfd.rhs])) return;
  if (cfd.rhs_pat.is_constant()) {
    inst.BindConst(r1.cells[cfd.rhs], cfd.rhs_pat.value());
  }
}

}  // namespace

Result<ChaseOutcome> Chase(SymbolicInstance& inst,
                           const std::vector<CFD>& sigma,
                           const ChaseOptions& options) {
  uint64_t passes = 0;
  uint64_t last_version = UINT64_MAX;
  while (!inst.contradiction() && inst.version() != last_version) {
    last_version = inst.version();
    if (++passes > options.max_passes) {
      return Status::Internal("chase exceeded max_passes; likely a bug");
    }
    for (const CFD& cfd : sigma) {
      if (inst.contradiction()) break;
      if (cfd.is_special_x()) {
        // Equality rule: every row must have cell[A] = cell[B].
        for (size_t i = 0; i < inst.num_rows(); ++i) {
          const auto& row = inst.row(i);
          if (row.relation != cfd.relation) continue;
          inst.Union(row.cells[cfd.lhs[0]], row.cells[cfd.rhs]);
          if (inst.contradiction()) break;
        }
        continue;
      }
      for (size_t i = 0; i < inst.num_rows() && !inst.contradiction(); ++i) {
        const auto& r1 = inst.row(i);
        if (r1.relation != cfd.relation) continue;
        ApplySingle(inst, cfd, r1);
        for (size_t j = i + 1;
             j < inst.num_rows() && !inst.contradiction(); ++j) {
          const auto& r2 = inst.row(j);
          if (r2.relation != cfd.relation) continue;
          ApplyPair(inst, cfd, r1, r2);
        }
      }
    }
  }
  return inst.contradiction() ? ChaseOutcome::kContradiction
                              : ChaseOutcome::kFixpoint;
}

namespace {

/// Recursive worker for ExistsChaseBranch. Returns true when a
/// satisfying leaf was found; `nodes` tracks the budget.
Result<bool> BranchSearch(
    SymbolicInstance inst, const std::vector<CFD>& sigma,
    const std::function<bool(SymbolicInstance&)>& leaf_predicate,
    uint64_t max_nodes, uint64_t* nodes) {
  if (++*nodes > max_nodes) {
    return Status::ResourceExhausted(
        "branch-and-prune node budget exceeded");
  }
  CFDPROP_ASSIGN_OR_RETURN(ChaseOutcome outcome, Chase(inst, sigma));
  if (outcome == ChaseOutcome::kContradiction) return false;  // closed

  // Branch on one unbound finite cell; prefer the smallest domain
  // (fail-first heuristic).
  std::vector<CellId> cells = inst.UnboundFiniteCells();
  if (cells.empty()) {
    return leaf_predicate(inst);
  }
  CellId pick = cells.front();
  size_t best = SIZE_MAX;
  for (CellId c : cells) {
    const auto& dom = inst.FiniteDomainOf(c);
    if (dom->size() < best) {
      best = dom->size();
      pick = c;
    }
  }
  // Copy the domain: binding mutates the instance.
  std::vector<Value> values = *inst.FiniteDomainOf(pick);
  for (Value v : values) {
    SymbolicInstance fork = inst;
    fork.BindConst(pick, v);
    CFDPROP_ASSIGN_OR_RETURN(
        bool found,
        BranchSearch(std::move(fork), sigma, leaf_predicate, max_nodes,
                     nodes));
    if (found) return true;
  }
  return false;
}

}  // namespace

Result<bool> ExistsChaseBranch(
    const SymbolicInstance& base, const std::vector<CFD>& sigma,
    const std::function<bool(SymbolicInstance&)>& leaf_predicate,
    const InstantiationOptions& options) {
  uint64_t nodes = 0;
  return BranchSearch(base, sigma, leaf_predicate,
                      options.max_instantiations, &nodes);
}

}  // namespace cfdprop
