// Conditional functional dependencies (CFDs), Definition 2.1.
//
// A CFD in *normal form* is R(X -> A, (tp[X] || tp[A])) with a single RHS
// attribute A; the general form R(X -> Y, tp) converts to an equivalent
// set of normal-form CFDs in linear time. Traditional FDs are the special
// case where every pattern entry is '_'.
//
// Satisfaction quantifies over ordered tuple pairs *including* t1 = t2,
// which gives constant-RHS CFDs their single-tuple reading: a CFD
// R(A -> A, (_ || a)) says every tuple has A = a. This is why
// R(AX -> A, tp) can be meaningful even though AX -> A is a trivial FD
// (Section 4.1, challenge (b)).

#ifndef CFDPROP_CFD_CFD_H_
#define CFDPROP_CFD_CFD_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/value.h"
#include "src/cfd/pattern.h"
#include "src/schema/schema.h"

namespace cfdprop {

/// Pseudo relation-id tagging CFDs defined on a view schema rather than a
/// source relation of the catalog.
inline constexpr RelationId kViewSchemaId = UINT32_MAX - 1;

/// A CFD in normal form. Plain value type; attribute positions index into
/// the relation schema (source CFDs) or the view schema (view CFDs).
///
/// Invariants (established by Make/Validate):
///   * lhs is strictly ascending, lhs_pats is parallel to it;
///   * a special-x CFD has exactly one LHS attribute, both patterns are x;
///   * otherwise no pattern entry is the special variable x.
struct CFD {
  RelationId relation = kNoRelation;
  std::vector<AttrIndex> lhs;
  std::vector<PatternValue> lhs_pats;
  AttrIndex rhs = kNoAttr;
  PatternValue rhs_pat;

  /// Builds a normal-form CFD, sorting the LHS and merging duplicate LHS
  /// attributes via pattern-min. Fails when duplicate LHS attributes carry
  /// incomparable constants (the LHS would match no tuple).
  static Result<CFD> Make(RelationId relation,
                          std::vector<AttrIndex> lhs,
                          std::vector<PatternValue> lhs_pats,
                          AttrIndex rhs, PatternValue rhs_pat);

  /// Builds the special view CFD R(a -> b, (x || x)) expressing "column a
  /// equals column b in every tuple".
  static CFD Equality(RelationId relation, AttrIndex a, AttrIndex b);

  /// Builds the constant CFD R(a -> a, (_ || c)) expressing "column a is
  /// the constant c in every tuple".
  static CFD ConstantColumn(RelationId relation, AttrIndex a, Value c);

  /// Builds a traditional FD: all pattern entries '_'.
  static Result<CFD> FD(RelationId relation, std::vector<AttrIndex> lhs,
                        AttrIndex rhs);

  bool is_special_x() const {
    return rhs_pat.is_special_x();
  }

  /// True when every pattern entry is '_' (a plain FD).
  bool IsPlainFD() const;

  /// Trivial CFDs carry no information and are never emitted in covers:
  /// either a special-x CFD A = A, or rhs in lhs with (p_lhs == p_rhs) or
  /// (p_lhs constant and p_rhs == '_').
  bool IsTrivial() const;

  /// True for forbidden-pattern CFDs: rhs occurs in lhs with a constant
  /// pattern e while rhs_pat is a different constant f. Such a CFD
  /// asserts that no tuple matches its LHS pattern at all (a matching
  /// tuple would need rhs = e and rhs = f simultaneously) — the
  /// nontrivial case (b) of Section 4.1 pushed to its extreme.
  bool IsForbiddenPattern() const;

  /// Position of `attr` in lhs, or SIZE_MAX.
  size_t FindLhs(AttrIndex attr) const;

  /// True when `attr` occurs in the CFD (lhs or rhs).
  bool Mentions(AttrIndex attr) const;

  /// Structural validation against a schema arity (attribute indices in
  /// range, invariants above). `arity` = number of attributes in the
  /// relation/view schema the CFD is defined on.
  Status Validate(size_t arity) const;

  bool operator==(const CFD& o) const;
  bool operator!=(const CFD& o) const { return !(*this == o); }

  /// e.g. "R1([CC=44, AC] -> [city], (44, _ || _))" rendered as
  /// "R1([CC, AC] -> city, (44, _ || _))"; names come from `attr_name`.
  std::string ToString(const ValuePool& pool,
                       const std::function<std::string(AttrIndex)>& attr_name)
      const;

  /// Convenience: renders with attribute names from the catalog relation
  /// (source CFDs) or "#i" (view CFDs / out-of-range).
  std::string ToString(const Catalog& catalog) const;

  /// Appends the stable binary encoding of this CFD for cover snapshots
  /// (src/engine/snapshot.h): relation, LHS attribute/pattern pairs, RHS
  /// attribute/pattern. Pattern constants are rewritten through
  /// `value_index` into pool-independent string-table slots.
  void AppendSnapshotBytes(
      std::string& out,
      const std::function<uint32_t(Value)>& value_index) const;

  /// Decodes one CFD encoded by AppendSnapshotBytes from bytes[*pos..],
  /// advancing *pos past it. `value_at` maps string-table indices to the
  /// loading pool's Values (see PatternValue::FromSnapshotBytes).
  /// Structural failures (truncation, bad kind byte, out-of-range index)
  /// reject cleanly; the decoded CFD is NOT re-validated against a
  /// schema — callers restoring untrusted data should run Validate()
  /// with the target arity afterwards.
  static Result<CFD> FromSnapshotBytes(
      std::string_view bytes, size_t* pos,
      const std::function<Result<Value>(uint32_t)>& value_at);
};

/// Hash functor so covers can dedupe CFDs in unordered containers.
struct CFDHash {
  size_t operator()(const CFD& c) const;
};

/// A CFD in general form R(X -> Y, tp) with multiple RHS attributes.
struct GeneralCFD {
  RelationId relation = kNoRelation;
  std::vector<AttrIndex> lhs;
  std::vector<PatternValue> lhs_pats;
  std::vector<AttrIndex> rhs;
  std::vector<PatternValue> rhs_pats;

  /// Converts to the equivalent set of normal-form CFDs (one per RHS
  /// attribute), Section 4 preliminaries.
  Result<std::vector<CFD>> Normalize() const;
};

/// A set of positions into a vector of CFDs, keyed by the CFD at each
/// position, so deduping or testing membership never copies a CFD:
/// append a candidate, Insert its position, and pop it again when an
/// equal CFD is already in the set. Open addressing over one flat array
/// that Clear keeps, so a set rebuilt again and again stops allocating
/// once it has grown.
class CfdPositionSet {
 public:
  /// Empties the set, sized for `expected` positions.
  void Clear(size_t expected);

  /// Adds position `i` of `cfds` unless the set holds a position whose
  /// CFD equals cfds[i]; returns whether it was added. Every position in
  /// the set must index `cfds`.
  bool Insert(const std::vector<CFD>& cfds, size_t i);

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  struct Slot {
    size_t hash = 0;
    uint32_t position = kEmpty;
  };

  size_t Home(size_t hash) const;
  void Grow();

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

/// Removes exact duplicates and trivial CFDs, preserving first-seen order.
std::vector<CFD> DedupeAndDropTrivial(std::vector<CFD> cfds);

}  // namespace cfdprop

#endif  // CFDPROP_CFD_CFD_H_
