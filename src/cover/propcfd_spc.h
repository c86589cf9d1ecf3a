// PropCFD_SPC (Fig. 2): minimal propagation covers of CFDs via SPC views.
//
// Given source CFDs Sigma and an SPC view V = pi_Y(Rc x sigma_F(Ec)),
// computes a minimal cover of CFDp(Sigma, V), the set of all view CFDs
// propagated from Sigma via V, in the infinite-domain setting (the
// setting of Section 4; finite-domain attributes are treated as
// infinite, which keeps the output sound but possibly incomplete — the
// generalization is the paper's future work).
//
// Pipeline, following Fig. 2 line by line:
//   1. Sigma := MinCover(Sigma)                        (per source relation)
//   2. EQ := ComputeEQ(Es, Sigma); "⊥" => Lemma 4.5 pair
//   3. Sigma_V := Sigma renamed per product atom, with class
//      representatives substituted (Lemma 4.3) and class keys folded
//      in, in one pass over Sigma; keep only Y attributes in classes
//   5. Sigma_c := RBR(Sigma_V, attr(Es) - Y)           (projection)
//   6. Sigma_d := EQ2CFD(EQ)                           (domain constraints)
//   7. return MinCover(Sigma_c ++ Sigma_d)
//
// A union extension (Section 7 "future work") is provided as
// PropagationCoverSPCU: sound — every returned CFD is propagated — but
// not guaranteed complete across disjuncts.

#ifndef CFDPROP_COVER_PROPCFD_SPC_H_
#define CFDPROP_COVER_PROPCFD_SPC_H_

#include <vector>

#include "src/algebra/view.h"
#include "src/base/status.h"
#include "src/cfd/cfd.h"
#include "src/cfd/mincover.h"
#include "src/cover/compute_eq.h"
#include "src/cover/rbr.h"

namespace cfdprop {

struct PropCoverOptions {
  RBROptions rbr;
  MinCoverOptions mincover;

  /// Run the final MinCover (Fig. 2 line 13). Disable to inspect the raw
  /// RBR + EQ2CFD output.
  bool final_mincover = true;

  /// Simplify Sigma_V with class keys before RBR: constants forced by F
  /// make pattern conditions vacuous or CFDs redundant. This is the
  /// interaction the paper credits for runtimes *decreasing* as |F|
  /// grows (Fig. 7 discussion).
  bool simplify_with_keys = true;

  /// Run MinCover on the input Sigma (Fig. 2 line 1). Disable when the
  /// caller already minimized.
  bool input_mincover = true;
};

struct PropCoverResult {
  /// The propagation cover, over the view's output columns, tagged
  /// kViewSchemaId.
  std::vector<CFD> cover;

  /// True when ComputeEQ returned "⊥": the view is empty under every
  /// Sigma-satisfying source and `cover` is the Lemma 4.5 pair.
  bool always_empty = false;

  /// True when RBR hit its budget (OnBudget::kTruncate): `cover` is a
  /// sound subset of a propagation cover.
  bool truncated = false;

  // Introspection counters for the experimental study.
  size_t input_cfds = 0;      // |Sigma| after input MinCover
  size_t sigma_v_size = 0;    // |Sigma_V| handed to RBR
  size_t rbr_output_size = 0; // |Sigma_c| before the final MinCover
};

/// Computes a minimal propagation cover of `sigma` via `view`.
/// `sigma` holds CFDs tagged with source relation ids of `catalog`. It
/// is borrowed, never copied: with options.input_mincover the minimized
/// set is built in a local, and otherwise `sigma` is only read (the
/// engine's miss path hands in its registered, minimized Σ).
/// The catalog is non-const only for interning the Lemma 4.5 constants.
Result<PropCoverResult> PropagationCoverSPC(Catalog& catalog,
                                            const SPCView& view,
                                            const std::vector<CFD>& sigma,
                                            const PropCoverOptions& options =
                                                {});

/// Fig. 2 lines 5-11 up to the RBR call: Sigma_V over the view's Ec
/// columns, and the columns RBR eliminates.
struct SigmaV {
  /// Sigma renamed per product atom, representatives substituted and
  /// class keys folded in (deduplicated, no trivial CFD).
  std::vector<CFD> cfds;
  /// attr(Es) - Y: the representatives that occur in `cfds` but are not
  /// projected, ascending.
  std::vector<AttrIndex> drop;
  /// Per Ec column, its class representative (a projected member when
  /// the class has one).
  std::vector<ColumnId> rep;
};

/// Builds Sigma_V from `sigma` (validated source CFDs) and `eq`, the
/// consistent ComputeEQ(view, sigma); PropagationCoverSPC runs it
/// between ComputeEQ and RBR. InvalidArgument when `eq` is inconsistent
/// or not sized to the view's Ec columns. Internal when a CFD would
/// force a constant against a class key on every view tuple: the
/// ComputeEQ chase rules that out, so such an `eq` is not sigma's.
Result<SigmaV> BuildSigmaV(const Catalog& catalog, const SPCView& view,
                           const std::vector<CFD>& sigma, const EqClasses& eq,
                           bool simplify_with_keys = true);

/// Union extension: a *sound* propagation cover via an SPCU view — each
/// returned CFD is propagated via every disjunct — computed by filtering
/// the per-disjunct covers through the propagation test. Completeness
/// across disjuncts is not guaranteed (open problem, Section 7).
/// `sigma` is borrowed as in PropagationCoverSPC.
Result<PropCoverResult> PropagationCoverSPCU(Catalog& catalog,
                                             const SPCUView& view,
                                             const std::vector<CFD>& sigma,
                                             const PropCoverOptions& options =
                                                 {});

/// Fig. 2 line 1 as a standalone step: minimizes `sigma` per source
/// relation (grouped in first-seen order; deterministic output). The
/// engine runs this once at registration; the pipelines above run it
/// when options.input_mincover is set. Both paths share this function so
/// cached and one-shot results are built from byte-identical inputs.
Result<std::vector<CFD>> MinCoverSigma(const Catalog& catalog,
                                       std::vector<CFD> sigma,
                                       const MinCoverOptions& options = {});

/// MinCoverSigma after a change to one relation's CFDs, running MinCover
/// on that relation's group only. Contract: when `prev` is
/// MinCoverSigma(catalog, old) and `sigma` differs from `old` only in
/// the CFDs on `relation`, the result is byte-identical to
/// MinCoverSigma(catalog, sigma). Every other relation's minimized CFDs
/// are copied from `prev` by relation tag, and the groups are emitted in
/// `sigma`'s first-seen order (a retraction may move or drop
/// `relation`'s group; an add to a new relation appends one). The
/// engine's AddCfd/RetractCfd re-minimize through this.
Result<std::vector<CFD>> MinCoverSigmaRelation(
    const Catalog& catalog, const std::vector<CFD>& prev,
    const std::vector<CFD>& sigma, RelationId relation,
    const MinCoverOptions& options = {});

/// The union-assembly half of PropagationCoverSPCU, split out so a
/// caller that already holds the per-disjunct SPC covers (e.g. the
/// engine's cover cache) can skip recomputing them: guards each
/// disjunct's CFDs with that disjunct's constant output columns, keeps
/// the candidates propagated via the whole union, and min-covers.
///
/// `per_disjunct[i]` must answer `view.disjuncts[i]` for `sigma` (the
/// introspection counters may be zero; only cover/always_empty/truncated
/// are read). `sigma` must be the CFD set — or an equivalent cover, such
/// as its MinCover — the per-disjunct results were computed from. The
/// output is byte-identical to PropagationCoverSPCU on the same inputs:
/// the assembly is deterministic in (view, sigma, per_disjunct).
Result<PropCoverResult> AssembleUnionCover(
    Catalog& catalog, const SPCUView& view, const std::vector<CFD>& sigma,
    std::vector<PropCoverResult> per_disjunct,
    const PropCoverOptions& options = {});

}  // namespace cfdprop

#endif  // CFDPROP_COVER_PROPCFD_SPC_H_
