// The flat chase kernel: the chase of src/chase/chase.h on a tableau of
// infinite-domain cells, with no per-cell allocation.
//
// A FlatTableau is a bag of rows (one per relation atom, or the rows of
// an implication template) plus cells outside every row bound to a
// constant (a view's constant output columns). Row r's cells are
// contiguous from its first cell, so a cell is (first cell + attribute).
// Equalities live in a union-find in which every cell names its class's
// root directly (a union relabels the smaller class along a circular
// member list, so a lookup is one load), with one constant slot per
// root. It keeps SymbolicInstance's rules on infinite-domain cells:
// merging or binding two distinct constants is a contradiction, and two
// cells are equal when they share a class or are bound to the same
// constant (two such classes stay distinct classes, as in
// SymbolicInstance::Find).
//
// The chase rules are monotone, so every fair order of rule firings
// reaches the same fixpoint, or the same contradiction. Sigma is
// bucketed by relation first (RelationRules), so a pass applies each
// CFD to the row group of its relation only, where Chase tests every CFD
// against every row; callers that chase many tableaux against one Sigma
// bucket it once.
// Four procedures run on it in the infinite-domain setting: Implies (two
// rows), ComputeEQ and IsAlwaysEmpty (one row per atom) and IsPropagated
// (two view copies plus constant summary cells). Finite-domain cells and
// the general setting stay on SymbolicInstance, whose cells carry a
// domain and can be instantiated.

#ifndef CFDPROP_CHASE_FLAT_TABLEAU_H_
#define CFDPROP_CHASE_FLAT_TABLEAU_H_

#include <cstdint>
#include <vector>

#include "src/base/status.h"
#include "src/cfd/cfd.h"
#include "src/chase/chase.h"

namespace cfdprop {

class FlatTableau {
 public:
  /// Empties the tableau, keeping its buffers.
  void Clear();

  /// Appends a row of `arity` fresh variable cells of `relation` and
  /// returns its first cell. Invalidates the row grouping.
  uint32_t AddRow(RelationId relation, size_t arity);

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

  bool Equal(uint32_t a, uint32_t b) const {
    const uint32_t ra = cells_[a].root;
    const uint32_t rb = cells_[b].root;
    if (ra == rb) return true;
    const Value ka = cells_[ra].constant;
    return ka != kNoValue && ka == cells_[rb].constant;
  }

  /// Merges the classes of `a` and `b`; distinct constants on the two
  /// make the tableau contradictory.
  void Union(uint32_t a, uint32_t b);

  /// Binds `cell`'s class to `v`; another constant there is a
  /// contradiction.
  void Bind(uint32_t cell, Value v);

  /// Resets every cell to its state in `other`, a tableau with the same
  /// rows (a copy of this one, say): one copy of the cells, none of the
  /// rows or groups.
  void CopyCellsFrom(const FlatTableau& other) {
    cells_ = other.cells_;
    changed_ = other.changed_;
    contradiction_ = other.contradiction_;
  }

  /// Applies `psi`, a CFD on group g's relation, to group g's rows with
  /// Chase's rules: the equality rule on every row for special-x psi,
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

  std::vector<Cell> cells_;
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
  const uint64_t max_passes = ChaseOptions{}.max_passes;
  for (uint64_t pass = 1;; ++pass) {
    if (pass > max_passes) {
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

/// ChaseUntil over every row group with the CFDs `rules` holds for its
/// relation. `t` must be grouped (FlatTableau::GroupRows).
template <typename Goal>
Result<bool> ChaseUntil(FlatTableau& t, const RelationRules& rules,
                        const Goal& goal) {
  return ChaseUntil(
      t,
      [&](const auto& visit) {
        for (size_t g = 0; g < t.num_groups(); ++g) {
          const RelationId r = t.group_relation(g);
          const CFD* const* end = rules.end(r);
          for (const CFD* const* it = rules.begin(r); it != end; ++it) {
            if (!visit(**it, g)) return;
          }
        }
      },
      goal);
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

}  // namespace cfdprop

#endif  // CFDPROP_CHASE_FLAT_TABLEAU_H_
