// Reduction by Resolution (RBR) for CFDs — Fig. 3 and Proposition 4.4,
// extending Gottlob's PODS'87 algorithm from FDs to CFDs.
//
// Given CFDs Sigma over an attribute space U and a set X = U - Y of
// attributes to eliminate, RBR repeatedly "drops" an attribute A by
// shortcutting every pair phi1 = (W -> A, t1), phi2 = (AZ -> B, t2) with
// t1[A] <= t2[A] into the A-resolvent (WZ -> B, (t1[W] (+) t2[Z] || t2[B]))
// and then discarding all CFDs mentioning A. The result is a cover of
// Sigma+[Y], the CFDs implied by Sigma that mention only Y attributes —
// i.e. a propagation cover through the projection pi_Y.
//
// Unlike the textbook closure-based method (see closure_baseline.h),
// which is always exponential in |Sigma|, RBR is output-sensitive: it is
// polynomial whenever the intermediate covers stay polynomial, which is
// the common case (Section 4.2). The paper's Section 4.3 optimization —
// partitioned MinCover over intermediate results — is implemented here.
//
// Dropping A is variable elimination, and like InsideOut's (PAPERS.md,
// "Juggling Functions Inside a Database") it touches only what mentions
// the variable: an attribute -> position index over Gamma hands each
// drop the CFDs that mention A, in Gamma order, and removal marks them
// dead instead of rescanning Gamma. Resolvents, their order and the
// truncation point are those of a full scan.

#ifndef CFDPROP_COVER_RBR_H_
#define CFDPROP_COVER_RBR_H_

#include <optional>
#include <vector>

#include "src/base/status.h"
#include "src/cfd/cfd.h"
#include "src/cfd/mincover.h"

namespace cfdprop {

struct RBROptions {
  /// Apply MinCover to fixed-size partitions of the intermediate cover
  /// after each dropped attribute (Section 4.3). Removes redundant CFDs
  /// "to an extent, without increasing the worst-case complexity".
  bool intermediate_mincover = true;

  /// Partition size k0 for the intermediate minimization.
  size_t mincover_partition = 64;

  /// Covers can be inherently exponential (Example 4.1). When the
  /// intermediate cover exceeds this bound the algorithm either fails
  /// (kError) or returns the subset computed so far (kTruncate) — the
  /// polynomial-time heuristic described in the introduction.
  size_t max_cover_size = 1u << 20;
  enum class OnBudget { kError, kTruncate };
  OnBudget on_budget = OnBudget::kError;
};

struct RBRResult {
  std::vector<CFD> cover;
  /// True when max_cover_size hit under OnBudget::kTruncate: `cover` is a
  /// sound subset of a propagation cover, not necessarily complete.
  bool truncated = false;
  /// True when elimination derived an unconditional contradiction (two
  /// constants forced on one attribute for every tuple): the relation
  /// admits no tuples at all. Callers treat this like the "⊥" outcome of
  /// ComputeEQ (Lemma 4.5).
  bool inconsistent = false;
};

/// The A-resolvent of phi1 = (W -> A, t1) and phi2 = (AZ -> B, t2)
/// (both over the same attribute space):
/// nullopt when undefined (t1[A] !<= t2[A], oplus undefined, the result
/// still mentions `a`, or the result is trivial).
std::optional<CFD> Resolvent(const CFD& phi1, const CFD& phi2, AttrIndex a);

/// The forbidden-pattern A-resolvent — a CFD-specific rule with no FD
/// counterpart. Two producers (W1 -> A, (p1 || c1)), (W2 -> A,
/// (p2 || c2)) with distinct constants c1 != c2 forbid every tuple
/// matching p1 (+) p2: such a tuple would need A = c1 and A = c2. That
/// constraint survives the projection that drops A, encoded as the
/// forbidden-pattern CFD (W1W2 -> C, (p1 (+) p2 || f)) where C is an
/// attribute with a constant pattern e and f != e. Returns nullopt when
/// no conflict arises (equal constants, oplus undefined, result mentions
/// `a`); sets *unconditional when the merged pattern matches every tuple
/// (the relation is inconsistent).
std::optional<CFD> ForbiddenResolvent(const CFD& phi1, const CFD& phi2,
                                      AttrIndex a, bool* unconditional);

/// Encodes "no tuple matches the pattern (attrs, pats)" as a
/// forbidden-pattern CFD: (attrs -> C, (pats || f)) for some attribute C
/// whose pattern is a constant e and some f != e. `alt1`/`alt2` are two
/// known-distinct constants to draw f from. Merges duplicate attributes
/// via pattern-min; returns nullopt when the merge is undefined (the
/// pattern already matches nothing). Sets *unconditional when the
/// pattern has no constant entry, i.e. it matches every tuple and the
/// relation is inconsistent.
std::optional<CFD> EncodeForbiddenPattern(RelationId relation,
                                          std::vector<AttrIndex> attrs,
                                          std::vector<PatternValue> pats,
                                          Value alt1, Value alt2,
                                          bool* unconditional);

/// Projects a forbidden-pattern CFD `phif` (whose LHS mentions `a` with
/// constant e) through the elimination of `a`, using a producer
/// `phip` = (W -> a, (w || e)) that forces a = e: the combined pattern
/// (phif.lhs - a) (+) W is then forbidden without mentioning `a`.
/// Returns nullopt when the rule does not apply or the merged pattern is
/// unsatisfiable; sets *unconditional as in EncodeForbiddenPattern.
std::optional<CFD> ForbiddenProjection(const CFD& phif, const CFD& phip,
                                       AttrIndex a, bool* unconditional);

/// Runs RBR, eliminating the attributes of `drop` from `sigma`.
/// All CFDs must share one relation tag and be over `arity` attributes.
/// No special-x CFDs are allowed (PropCFD_SPC substitutes them away
/// before projection handling).
Result<RBRResult> RBR(std::vector<CFD> sigma,
                      const std::vector<AttrIndex>& drop, size_t arity,
                      const RBROptions& options = {});

}  // namespace cfdprop

#endif  // CFDPROP_COVER_RBR_H_
