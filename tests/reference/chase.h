// The reference chase, extended to CFDs (appendix, proofs of Theorems
// 3.1-3.8), on a SymbolicInstance. The library decides everything on the
// flat kernel (src/chase/flat_tableau.h); the differential tests hold it
// to this independent implementation of the same rules.
//
// Rules applied until fixpoint, for each CFD psi = R(W -> C, sp) and rows
// of relation R in the symbolic instance:
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
// A variable cell matching only '_' is exactly what makes the chase sound
// in the infinite-domain setting: fresh variables denote pairwise-distinct
// values outside every pattern constant. In the general setting the
// caller instantiates finite-domain variables (see ExistsChaseBranch)
// because such a variable *will* take one of finitely many values and
// may then match a constant pattern.

#ifndef CFDPROP_TESTS_REFERENCE_CHASE_H_
#define CFDPROP_TESTS_REFERENCE_CHASE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/status.h"
#include "src/cfd/cfd.h"
#include "src/chase/flat_tableau.h"
#include "tests/reference/symbolic_instance.h"

namespace cfdprop {

enum class ChaseOutcome {
  kFixpoint,       // chase terminated; the instance is satisfiable
  kContradiction,  // chase undefined; no concrete refinement exists
};

struct ChaseOptions {
  /// Upper bound on chase passes; the chase of a fixed instance always
  /// terminates (each pass that changes anything merges classes or binds
  /// constants, both bounded), so this only guards against bugs.
  uint64_t max_passes = 1u << 20;
};

/// Runs the CFD chase to fixpoint. CFDs apply to rows whose relation tag
/// equals cfd.relation. Returns kContradiction iff the instance became
/// contradictory (which may also have been true on entry).
Result<ChaseOutcome> Chase(SymbolicInstance& instance,
                           const std::vector<CFD>& sigma,
                           const ChaseOptions& options = {});

/// Branch-and-prune search over the finite instantiations — the
/// engine behind the general-setting decision procedures.
///
/// Semantically equivalent to "for every full instantiation of the
/// unbound finite-domain cells, chase, and test contradiction-free
/// leaves with `leaf_predicate`; return whether any leaf satisfied it" —
/// but instead of enumerating the exponential assignment space up front,
/// it chases FIRST and branches on one
/// still-unbound finite cell at a time, DPLL-style. The chase closes
/// contradictory branches early and binds further cells along the way,
/// which collapses most of the 2^k space the appendix proofs enumerate
/// (and makes the Theorem 3.2 3SAT construction tractable for small
/// formulas; see src/propagation/reductions.h).
///
/// `leaf_predicate` is called on fixpoint instances with no unbound
/// finite cells; contradictory branches never reach it. The budget
/// counts visited search nodes.
Result<bool> ExistsChaseBranch(
    const SymbolicInstance& base, const std::vector<CFD>& sigma,
    const std::function<bool(SymbolicInstance&)>& leaf_predicate,
    const InstantiationOptions& options = {});

}  // namespace cfdprop

#endif  // CFDPROP_TESTS_REFERENCE_CHASE_H_
