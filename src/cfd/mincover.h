// MinCover: minimal covers of CFD sets (Section 4.1).
//
// A minimal cover Sigma_mc of Sigma (i) implies every CFD of Sigma, (ii)
// contains no redundant CFD, and (iii) contains no CFD with a redundant
// LHS attribute: an attribute B of phi = R(X -> A, tp) is redundant when
// Sigma already implies phi' = R(X\B -> A, (tp[X\B] || tp[A])) — phi' is
// stronger than phi, so replacing phi by phi' preserves equivalence.
//
// The MinCover algorithm of [8] that PropCFD_SPC invokes (lines 1 and 13
// of Fig. 2). Phase 1 makes one implication call per (CFD, LHS attribute)
// pair and phase 2 one per CFD, so O(|Sigma| * max|LHS|) calls in all.
// Each call is a chase of O(passes * |Sigma|) rule applications (see
// src/cfd/implication.h); Sigma is validated once, not per call.

#ifndef CFDPROP_CFD_MINCOVER_H_
#define CFDPROP_CFD_MINCOVER_H_

#include <vector>

#include "src/base/status.h"
#include "src/cfd/cfd.h"
#include "src/cfd/implication.h"

namespace cfdprop {

struct MinCoverOptions {
  ImplicationOptions implication;
};

/// Computes a minimal cover of `sigma` (all CFDs on one relation of
/// `arity` attributes). Deterministic: scans in input order.
Result<std::vector<CFD>> MinCover(std::vector<CFD> sigma, size_t arity,
                                  const AttrDomains& domains = {},
                                  const MinCoverOptions& options = {});

/// Removes only redundant *CFDs* (no LHS minimization); used by the
/// partitioned intermediate-minimization optimization inside RBR
/// (Section 4.3), where full minimization would be wasted work.
Result<std::vector<CFD>> RemoveRedundantCFDs(
    std::vector<CFD> sigma, size_t arity, const AttrDomains& domains = {},
    const MinCoverOptions& options = {});

/// True iff the two CFD sets are logically equivalent (each implies every
/// member of the other). Useful for comparing covers produced by
/// different pipelines/options.
Result<bool> AreEquivalent(const std::vector<CFD>& a,
                           const std::vector<CFD>& b, size_t arity,
                           const AttrDomains& domains = {},
                           const ImplicationOptions& options = {});

}  // namespace cfdprop

#endif  // CFDPROP_CFD_MINCOVER_H_
