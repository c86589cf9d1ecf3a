// Symbolic instances: the tableaux the reference chase
// (tests/reference/chase.h) runs on.
//
// A symbolic instance is a bag of rows over source relations (or over a
// single abstract relation, for implication tests). Each row entry is a
// *cell*; a union-find over cells tracks equalities forced so far, and
// each equivalence class may be bound to a constant. Merging two classes
// bound to distinct constants makes the instance *contradictory* — the
// "undefined chase" of the paper's appendix, meaning no concrete instance
// refines this symbolic one.
//
// Cells carry the (possibly finite) domain of their attribute so the
// general-setting procedures can enumerate instantiations of
// finite-domain variables (proofs of Theorems 3.2/3.3/3.7).

#ifndef CFDPROP_TESTS_REFERENCE_SYMBOLIC_INSTANCE_H_
#define CFDPROP_TESTS_REFERENCE_SYMBOLIC_INSTANCE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/base/value.h"
#include "src/schema/domain.h"
#include "src/schema/schema.h"

namespace cfdprop {

using CellId = uint32_t;
inline constexpr CellId kNoCell = UINT32_MAX;

/// A bag of symbolic rows with a union-find over their cells.
/// Copyable: the finite-domain enumerators fork instances per assignment.
class SymbolicInstance {
 public:
  struct Row {
    RelationId relation;
    std::vector<CellId> cells;
  };

  SymbolicInstance() = default;

  /// Creates a fresh variable cell. `domain` may be null (infinite).
  CellId NewCell(const Domain* domain = nullptr);

  /// Creates a cell bound to constant `v`.
  CellId NewConstCell(Value v, const Domain* domain = nullptr);

  /// Appends a row; returns its index. Cells must exist.
  size_t AddRow(RelationId relation, std::vector<CellId> cells);

  size_t num_rows() const { return rows_.size(); }
  const Row& row(size_t i) const { return rows_[i]; }
  size_t num_cells() const { return parent_.size(); }

  /// Union-find root (path compression).
  CellId Find(CellId c);

  /// Merges the classes of a and b. On conflicting constants, marks the
  /// instance contradictory and returns false.
  bool Union(CellId a, CellId b);

  /// Binds the class of c to constant v. On conflict (already bound to a
  /// different constant, or v outside the class's finite domain), marks
  /// the instance contradictory and returns false.
  bool BindConst(CellId c, Value v);

  /// The constant bound to c's class, if any.
  std::optional<Value> ConstOf(CellId c);

  /// True when the two cells are known equal: same class, or both bound
  /// to the same constant.
  bool EqualCells(CellId a, CellId b);

  /// The effective finite domain of c's class (intersection over merged
  /// cells); nullopt = infinite.
  const std::optional<std::vector<Value>>& FiniteDomainOf(CellId c);

  /// True once any merge/bind conflicted; a contradictory instance
  /// refines to no concrete instance.
  bool contradiction() const { return contradiction_; }
  void MarkContradiction() { contradiction_ = true; }

  /// Monotone counter bumped by every effective Union/BindConst; the
  /// chase uses it to detect its fixpoint.
  uint64_t version() const { return version_; }

  /// Root cells that are unbound variables with a finite domain — the
  /// cells the general-setting procedures must instantiate.
  std::vector<CellId> UnboundFiniteCells();

 private:
  std::vector<CellId> parent_;
  std::vector<uint32_t> rank_;
  // Per-root metadata (valid only at roots).
  std::vector<Value> const_of_;                             // kNoValue = none
  std::vector<std::optional<std::vector<Value>>> finite_;   // nullopt = inf

  std::vector<Row> rows_;
  bool contradiction_ = false;
  uint64_t version_ = 0;
};

}  // namespace cfdprop

#endif  // CFDPROP_TESTS_REFERENCE_SYMBOLIC_INSTANCE_H_
