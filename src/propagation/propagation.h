// The dependency propagation problem (Section 3).
//
// Sigma |=_V phi: for every source instance D with D |= Sigma, the view
// V(D) satisfies phi. Decided by the chase of Theorem 3.1's proof:
//
//   * build the tableaux of two (possibly identical) SPC disjuncts e_i,
//     e_j of V into one symbolic instance — the rho1/rho2 copies;
//   * identify the two summary tuples t1, t2 on phi's LHS columns and
//     bind phi's LHS pattern constants (an "undefined rho" — a constant
//     clash — means the pair is impossible and the combination passes);
//   * chase with Sigma; a contradiction again means the pair is
//     impossible; otherwise phi is propagated for this combination iff
//     the chase forced t1[B] = t2[B] (and = tp[B] when constant);
//   * an SPCU view requires all k^2 disjunct combinations to pass.
//
// Infinite-domain setting: one chase per combination => PTIME
// (Theorems 3.1/3.5). General setting: finite-domain variables of the
// instance are instantiated, branch by branch (ExistsChaseBranch) =>
// coNP (Theorems 3.2/3.3, Corollary 3.6); the instantiation budget
// guards the exponential.
//
// The chase runs on the flat kernel (src/chase/flat_tableau.h): each
// combination's two copies are built and chased once per
// PropagationTester, and each phi then copies that fixpoint, adds its
// LHS and chases on, with Sigma's relation groups, until phi's
// conclusion holds (or, in the general setting, searches the
// instantiations from there). Starting from the copies' own fixpoint
// reaches the same fixpoint, since the chase is monotone.

#ifndef CFDPROP_PROPAGATION_PROPAGATION_H_
#define CFDPROP_PROPAGATION_PROPAGATION_H_

#include <vector>

#include "src/algebra/view.h"
#include "src/base/status.h"
#include "src/cfd/cfd.h"
#include "src/chase/flat_tableau.h"
#include "src/schema/schema.h"

namespace cfdprop {

struct PropagationOptions {
  /// Instantiate finite-domain variables (the general setting). When
  /// false, no variable is instantiated — the classical setting, and the
  /// only sound choice when the schema genuinely has no finite-domain
  /// attributes.
  bool general_setting = false;
  InstantiationOptions instantiation;
};

/// Picks general_setting automatically: true iff some attribute of a
/// relation used by `view` has a finite domain.
PropagationOptions AutoOptions(const Catalog& catalog, const SPCUView& view);

/// Decides Sigma |=_V phi for many phi against one (view, sigma), as the
/// union assembly of PropagationCoverSPCU does: Make validates the view
/// once, and IsPropagated validates only phi.
class PropagationTester {
 public:
  /// Validates `view`, which (and what `sigma` reads) must outlive the
  /// tester.
  static Result<PropagationTester> Make(const Catalog& catalog,
                                        const SPCUView& view,
                                        SigmaGroups sigma,
                                        const PropagationOptions& options =
                                            {});

  /// Make on a flat Σ (to outlive the tester), grouped and validated.
  static Result<PropagationTester> Make(const Catalog& catalog,
                                        const SPCUView& view,
                                        const std::vector<CFD>& sigma,
                                        const PropagationOptions& options =
                                            {});

  /// Decides Sigma |=_V phi; `phi` as in the free IsPropagated.
  Result<bool> IsPropagated(const CFD& phi);

 private:
  /// One or two tableau copies chased to their fixpoint, built on first
  /// use: a disjunct alone (special-x phi) or a combination (i, j).
  struct Base {
    bool built = false;
    bool contradiction = false;
    FlatTableau chased;
    FlatTableau work;          // chased's rows; each phi resets its cells
    std::vector<uint32_t> t1;  // summary cells of the first copy
    std::vector<uint32_t> t2;  // of the second (empty for one copy)
  };

  PropagationTester(const Catalog& catalog, const SPCUView& view,
                    SigmaGroups sigma, const PropagationOptions& options);
  Result<Base*> BaseOf(size_t i, size_t j, bool single);

  const Catalog* catalog_;
  const SPCUView* view_;
  PropagationOptions options_;
  SigmaGroups sigma_;
  std::vector<Base> singles_;  // per disjunct
  std::vector<Base> pairs_;    // per combination i <= j, row-major
};

/// Decides Sigma |=_V phi. `sigma` holds CFDs tagged with source relation
/// ids; `phi` is a view CFD tagged kViewSchemaId whose attribute indices
/// are output column positions of `view`. Validates every input on every
/// call.
Result<bool> IsPropagated(const Catalog& catalog, const SPCUView& view,
                          const std::vector<CFD>& sigma, const CFD& phi,
                          const PropagationOptions& options = {});

/// Convenience overload for single-disjunct (SPC) views.
Result<bool> IsPropagated(const Catalog& catalog, const SPCView& view,
                          const std::vector<CFD>& sigma, const CFD& phi,
                          const PropagationOptions& options = {});

}  // namespace cfdprop

#endif  // CFDPROP_PROPAGATION_PROPAGATION_H_
