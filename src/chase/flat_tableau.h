// The chase, extended to CFDs (appendix, proofs of Theorems 3.1-3.8),
// on a flat tableau with no per-cell allocation.
//
// Rules applied until fixpoint, for each CFD psi = R(W -> C, sp) and rows
// of relation R:
//
//   * single-tuple rule: if t[W] matches sp[W] (a variable cell matches
//     only '_'; a bound cell matches '_' or its own constant), then t[C]
//     must match sp[C]: when sp[C] is a constant it is bound into t[C]
//     (conflict => contradiction, the "undefined" chase);
//   * pair rule: if t1[W] = t2[W] (cell-equal) and matches sp[W], then
//     t1[C] and t2[C] are merged, and additionally bound to sp[C] when it
//     is a constant;
//   * equality rule (view CFDs R(A -> B, (x || x))): t[A] and t[B] are
//     merged in every row.
//
// A variable cell matching only '_' is what makes the chase sound in the
// infinite-domain setting: fresh variables denote pairwise-distinct
// values outside every pattern constant. In the general setting a
// finite-domain variable will take one of finitely many values and may
// then match a constant pattern, so ExistsChaseBranch instantiates those
// variables, one class at a time, between chases.
//
// A FlatTableau is a bag of rows (one per relation atom, or the rows of
// an implication template) plus cells outside every row bound to a
// constant (a view's constant output columns). Row r's cells are
// contiguous from its first cell, so a cell is (first cell + attribute).
// Equalities live in a union-find in which every cell names its class's
// root directly (a union relabels the smaller class along a circular
// member list, so a lookup is one load), with one constant slot per
// root. Merging or binding two distinct constants is a contradiction,
// and two cells are equal when they share a class or are bound to the
// same constant (two such classes stay distinct classes).
//
// A root also has a domain slot: infinite, or a finite list of values.
// Merging two classes intersects their domains, in the order of the
// first class's values; an empty intersection, or a constant outside
// the domain, is a contradiction. A tableau with no finite cell keeps no
// domain slots at all, and pays one predictable branch per Union or Bind
// for them.
//
// The chase rules are monotone, so every fair order of rule firings
// reaches the same fixpoint, or the same contradiction. Sigma is
// bucketed by relation first (RelationRules), so a pass applies each
// CFD to the row group of its relation only; callers that chase many
// tableaux against one Sigma bucket it once. Every decision procedure
// runs on this one chase: Implies and IsSatisfiable (the two-row and
// one-row templates), ComputeEQ and IsAlwaysEmpty (one row per atom) and
// IsPropagated (two view copies plus constant summary cells), in both
// settings.

#ifndef CFDPROP_CHASE_FLAT_TABLEAU_H_
#define CFDPROP_CHASE_FLAT_TABLEAU_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/cfd/cfd.h"
#include "src/schema/domain.h"

namespace cfdprop {

/// Upper bound on the passes of one chase. The chase of a fixed tableau
/// always terminates (each pass that changes anything merges classes or
/// binds constants, both bounded), so this only guards against bugs.
inline constexpr uint64_t kMaxChasePasses = 1u << 20;

struct InstantiationOptions {
  /// Budget on the nodes ExistsChaseBranch visits; the general-setting
  /// procedures are coNP-/NP-complete (Theorems 3.2, 3.3, 3.7), so the
  /// search is exponential in the worst case.
  uint64_t max_instantiations = 1u << 22;
};

class FlatTableau {
 public:
  static constexpr uint32_t kNoCell = UINT32_MAX;

  /// Empties the tableau, keeping its buffers.
  void Clear();

  /// Appends a row of `arity` fresh variable cells of `relation` and
  /// returns its first cell. `domains` holds the domains of the row's
  /// leading attributes; a null or infinite entry, or none, leaves a
  /// cell infinite, and an empty finite one is a contradiction.
  /// Invalidates the row grouping.
  uint32_t AddRow(RelationId relation, size_t arity,
                  std::span<const Domain* const> domains = {});

  /// Appends a cell outside every row, bound to `v`.
  uint32_t AddConstCell(Value v);

  /// Groups the rows by relation, in first-seen order. Call after the
  /// last AddRow and before Apply.
  void GroupRows();

  size_t num_cells() const { return cells_.size(); }
  size_t num_groups() const { return groups_.size(); }
  RelationId group_relation(size_t g) const { return groups_[g].relation; }

  bool contradiction() const { return contradiction_; }

  /// Whether anything merged or bound since the last call.
  bool TakeChanged() {
    const bool changed = changed_;
    changed_ = false;
    return changed;
  }

  /// The root of `cell`'s class.
  uint32_t Root(uint32_t cell) const { return cells_[cell].root; }

  /// The constant bound to `cell`'s class, or kNoValue.
  Value ConstOf(uint32_t cell) const {
    return cells_[cells_[cell].root].constant;
  }

  bool BoundTo(uint32_t cell, Value v) const {
    const Value k = ConstOf(cell);
    return k != kNoValue && k == v;
  }

  /// Does the cell match pattern `p`?  '_' matches everything; a
  /// constant matches only a cell bound to it.
  bool Matches(uint32_t cell, const PatternValue& p) const {
    return p.is_wildcard() || (p.is_constant() && BoundTo(cell, p.value()));
  }

  /// Whether `cell`'s class ranges over a finite domain.
  bool IsFinite(uint32_t cell) const {
    return !doms_.empty() && doms_[Root(cell)].size != kInfinite;
  }

  /// The values of `cell`'s finite domain, in order; empty when the
  /// domain is infinite.
  std::span<const Value> DomainOf(uint32_t cell) const {
    if (!IsFinite(cell)) return {};
    const DomainSlot d = doms_[Root(cell)];
    return {dom_values_.data() + d.begin, d.size};
  }

  /// The unbound finite-domain root with the smallest domain (the first
  /// in cell order on a tie), or kNoCell when every finite class is
  /// bound: the cell ExistsChaseBranch branches on.
  uint32_t BranchCell() const;

  bool Equal(uint32_t a, uint32_t b) const {
    const uint32_t ra = cells_[a].root;
    const uint32_t rb = cells_[b].root;
    if (ra == rb) return true;
    const Value ka = cells_[ra].constant;
    return ka != kNoValue && ka == cells_[rb].constant;
  }

  /// Merges the classes of `a` and `b`; distinct constants on the two,
  /// or disjoint finite domains, make the tableau contradictory.
  void Union(uint32_t a, uint32_t b);

  /// Binds `cell`'s class to `v`; another constant there, or a finite
  /// domain without `v`, is a contradiction.
  void Bind(uint32_t cell, Value v);

  /// Resets every cell to its state in `other`, a tableau with the same
  /// rows (a copy of this one, say): one copy of the cells and their
  /// domains, none of the rows or groups.
  void CopyCellsFrom(const FlatTableau& other) {
    cells_ = other.cells_;
    if (!doms_.empty() || !other.doms_.empty()) {
      doms_ = other.doms_;
      dom_values_ = other.dom_values_;
    }
    changed_ = other.changed_;
    contradiction_ = other.contradiction_;
  }

  /// Applies `psi`, a CFD on group g's relation, to group g's rows with
  /// the chase rules: the equality rule on every row for special-x psi,
  /// else the single-tuple rule on every row and the pair rule on every
  /// pair of rows.
  void Apply(const CFD& psi, size_t group);

 private:
  struct Row {
    RelationId relation;
    uint32_t first;  // first cell
  };
  struct Group {
    RelationId relation;
    uint32_t begin;  // into rows_, which GroupRows orders by group
    uint32_t end;
  };

  /// The group of `relation`'s rows, or SIZE_MAX when it has none.
  size_t GroupOf(RelationId relation) const {
    for (size_t g = 0; g < groups_.size(); ++g) {
      if (groups_[g].relation == relation) return g;
    }
    return SIZE_MAX;
  }

  void ApplySingle(const CFD& psi, uint32_t row);
  void ApplyPair(const CFD& psi, uint32_t row1, uint32_t row2);

  struct Cell {
    uint32_t root;
    uint32_t next;      // circular member list of the class
    uint32_t size;      // class size, at roots
    Value constant;     // class constant or kNoValue, at roots
  };
  /// A finite domain, dom_values_[begin, begin + size), or an infinite
  /// one (size kInfinite).
  struct DomainSlot {
    uint32_t begin;
    uint32_t size;
  };
  static constexpr uint32_t kInfinite = UINT32_MAX;

  /// Gives the cells added since the last domain slot an infinite one,
  /// once some cell is finite.
  void PadDomains() {
    if (!doms_.empty()) {
      doms_.resize(cells_.size(), DomainSlot{0, kInfinite});
    }
  }
  /// The domain of the union of roots `ra` and `rb` (ra's values first),
  /// written to both; false when it cannot hold `k` (or, for k ==
  /// kNoValue, is empty).
  bool MergeDomains(uint32_t ra, uint32_t rb, Value k);
  bool Admits(DomainSlot d, Value v) const;

  std::vector<Cell> cells_;
  std::vector<DomainSlot> doms_;  // per cell, read at roots; empty while
                                  // no cell is finite
  std::vector<Value> dom_values_;
  std::vector<Row> rows_;
  std::vector<Group> groups_;
  bool changed_ = false;
  bool contradiction_ = false;
};

inline void FlatTableau::ApplySingle(const CFD& psi, uint32_t row) {
  if (!psi.rhs_pat.is_constant()) return;  // binds nothing
  for (size_t i = 0; i < psi.lhs.size(); ++i) {
    if (!Matches(row + psi.lhs[i], psi.lhs_pats[i])) return;
  }
  Bind(row + psi.rhs, psi.rhs_pat.value());
}

inline void FlatTableau::ApplyPair(const CFD& psi, uint32_t row1,
                                   uint32_t row2) {
  for (size_t i = 0; i < psi.lhs.size(); ++i) {
    const uint32_t a1 = row1 + psi.lhs[i];
    if (!Equal(a1, row2 + psi.lhs[i])) return;
    if (!Matches(a1, psi.lhs_pats[i])) return;
  }
  Union(row1 + psi.rhs, row2 + psi.rhs);
  if (contradiction_) return;
  if (psi.rhs_pat.is_constant()) Bind(row1 + psi.rhs, psi.rhs_pat.value());
}

inline void FlatTableau::Apply(const CFD& psi, size_t group) {
  const Row* rows = rows_.data() + groups_[group].begin;
  const size_t n = groups_[group].end - groups_[group].begin;
  if (n == 2 && !psi.is_special_x()) {
    // The implication template's shape: the calls the loop below makes
    // for two rows, in its order, written out. Implies runs only this
    // shape, and MinCover is 30-60% slower through the loop (paired
    // BM_MinCover runs, sigma=64 and 256).
    ApplySingle(psi, rows[0].first);
    ApplyPair(psi, rows[0].first, rows[1].first);
    if (!contradiction_) ApplySingle(psi, rows[1].first);
    return;
  }
  if (psi.is_special_x()) {
    // Equality rule: every row gets cell[A] = cell[B].
    for (size_t r = 0; r < n && !contradiction_; ++r) {
      Union(rows[r].first + psi.lhs[0], rows[r].first + psi.rhs);
    }
    return;
  }
  for (size_t r = 0; r < n && !contradiction_; ++r) {
    ApplySingle(psi, rows[r].first);
    for (size_t s = r + 1; s < n && !contradiction_; ++s) {
      ApplyPair(psi, rows[r].first, rows[s].first);
    }
  }
}

/// Sigma bucketed by relation, in Sigma order within a bucket: the CFDs
/// the chase can fire on rows of one relation. Holds pointers into the
/// Sigma it was built from, which must outlive it.
class RelationRules {
 public:
  /// Buckets the CFDs of `sigma` on `relations` (distinct ids); CFDs on
  /// any other relation are left out.
  void Build(const std::vector<CFD>& sigma,
             const std::vector<RelationId>& relations);

  /// The bucket of relation r (empty when r was not built).
  const CFD* const* begin(RelationId r) const;
  const CFD* const* end(RelationId r) const;

 private:
  size_t Slot(RelationId r) const;

  std::vector<RelationId> relations_;
  std::vector<uint32_t> offsets_;  // bucket i is [offsets_[i], offsets_[i+1])
  std::vector<const CFD*> cfds_;
};

/// Chases `t` to a fixpoint, or until `goal()` holds after a change (the
/// chase only adds equalities and constants, so a goal once reached
/// stays). `for_each_rule(visit)` makes one pass: it calls visit(psi, g)
/// for each CFD psi to apply to row group g, and stops when visit
/// returns false. Returns true when `t` became contradictory or the goal
/// holds (also on entry), false at a fixpoint where it does not.
template <typename ForEachRule, typename Goal>
Result<bool> ChaseUntil(FlatTableau& t, const ForEachRule& for_each_rule,
                        const Goal& goal) {
  if (t.contradiction() || goal()) return true;
  t.TakeChanged();
  for (uint64_t pass = 1;; ++pass) {
    if (pass > kMaxChasePasses) {
      return Status::Internal("chase exceeded max_passes; likely a bug");
    }
    bool changed = false;
    bool done = false;
    for_each_rule([&](const CFD& psi, size_t group) {
      t.Apply(psi, group);
      if (t.contradiction()) {
        done = true;
      } else if (t.TakeChanged()) {
        changed = true;
        done = goal();
      }
      return !done;
    });
    if (done) return true;
    if (!changed) return false;
  }
}

/// The pass of ChaseUntil that visits every row group of `t` (or of a
/// tableau with the same rows) with the CFDs `rules` holds for its
/// relation. `t` must be grouped (FlatTableau::GroupRows).
inline auto GroupRules(const FlatTableau& t, const RelationRules& rules) {
  return [&t, &rules](const auto& visit) {
    for (size_t g = 0; g < t.num_groups(); ++g) {
      const RelationId r = t.group_relation(g);
      const CFD* const* end = rules.end(r);
      for (const CFD* const* it = rules.begin(r); it != end; ++it) {
        if (!visit(**it, g)) return;
      }
    }
  };
}

/// ChaseUntil over every row group with the CFDs `rules` holds for its
/// relation.
template <typename Goal>
Result<bool> ChaseUntil(FlatTableau& t, const RelationRules& rules,
                        const Goal& goal) {
  return ChaseUntil(t, GroupRules(t, rules), goal);
}

/// Chases `t` to its fixpoint with `rules`; true iff it became
/// contradictory.
inline Result<bool> ChaseToFixpoint(FlatTableau& t,
                                    const RelationRules& rules) {
  return ChaseUntil(t, rules, [] { return false; });
}

/// Chases `t` to its fixpoint with the CFDs of `sigma` on its rows'
/// relations; true iff it became contradictory. `t` must be grouped.
Result<bool> ChaseToFixpoint(FlatTableau& t, const std::vector<CFD>& sigma);

/// The CFDs of `sigma` on the relations of `t`'s rows, bucketed. `t`
/// must be grouped.
RelationRules RulesFor(const FlatTableau& t, const std::vector<CFD>& sigma);

namespace flat_internal {

template <typename ForEachRule, typename Leaf>
Result<bool> BranchSearch(FlatTableau& t,
                          std::vector<std::unique_ptr<FlatTableau>>& forks,
                          size_t depth, const ForEachRule& for_each_rule,
                          const Leaf& leaf, uint64_t max_nodes,
                          uint64_t& nodes) {
  if (++nodes > max_nodes) {
    return Status::ResourceExhausted(
        "branch-and-prune node budget exceeded");
  }
  CFDPROP_ASSIGN_OR_RETURN(bool contradiction,
                           ChaseUntil(t, for_each_rule, [] { return false; }));
  if (contradiction) return false;  // closed
  const uint32_t pick = t.BranchCell();
  if (pick == FlatTableau::kNoCell) return leaf(std::as_const(t));
  // The children share one tableau a level down; t is left as it is
  // while they run, so its domain values stay put.
  if (forks.size() == depth) {
    forks.push_back(std::make_unique<FlatTableau>(t));
  }
  FlatTableau& child = *forks[depth];
  for (Value v : t.DomainOf(pick)) {
    child.CopyCellsFrom(t);
    child.Bind(pick, v);
    CFDPROP_ASSIGN_OR_RETURN(
        bool found, BranchSearch(child, forks, depth + 1, for_each_rule,
                                 leaf, max_nodes, nodes));
    if (found) return true;
  }
  return false;
}

}  // namespace flat_internal

/// Branch-and-prune search over the finite instantiations of `t`: the
/// engine behind the general-setting decision procedures.
///
/// Equivalent to "for every instantiation of the unbound finite-domain
/// classes, chase, and test the contradiction-free leaves with `leaf`;
/// return whether any leaf satisfied it". Instead of enumerating the
/// exponential assignment space up front, it chases first and branches
/// on one still-unbound finite class at a time (the smallest domain),
/// DPLL-style: the chase closes contradictory branches early and binds
/// further classes along the way, which collapses most of the 2^k space
/// the appendix proofs enumerate (and makes the Theorem 3.2 3SAT
/// construction tractable for small formulas; see
/// src/propagation/reductions.h).
///
/// `for_each_rule` is a ChaseUntil pass, and must serve every copy of
/// `t`'s rows (GroupRules, say). `leaf(const FlatTableau&)` is called on
/// fixpoints with no unbound finite class; contradictory branches never
/// reach it. `t` is chased in place and is the root of the search; each
/// level below it works in one copy. The budget counts visited search
/// nodes, the root included.
template <typename ForEachRule, typename Leaf>
Result<bool> ExistsChaseBranch(FlatTableau& t,
                               const ForEachRule& for_each_rule,
                               const Leaf& leaf,
                               const InstantiationOptions& options) {
  std::vector<std::unique_ptr<FlatTableau>> forks;
  uint64_t nodes = 0;
  return flat_internal::BranchSearch(t, forks, 0, for_each_rule, leaf,
                                     options.max_instantiations, nodes);
}

}  // namespace cfdprop

#endif  // CFDPROP_CHASE_FLAT_TABLEAU_H_
