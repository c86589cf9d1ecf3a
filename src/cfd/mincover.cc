#include "src/cfd/mincover.h"

#include <cstdint>

namespace cfdprop {

namespace {

/// Phase 2 of MinCover on a deduplicated, validated sigma: drops each
/// CFD implied by the ones still kept before it and all after it, in
/// input order.
Result<std::vector<CFD>> RemoveRedundant(std::vector<CFD> sigma,
                                         ImplicationTester& tester) {
  std::vector<uint8_t> alive(sigma.size(), 1);
  for (size_t k = 0; k < sigma.size(); ++k) {
    alive[k] = 0;
    CFDPROP_ASSIGN_OR_RETURN(bool implied,
                             tester.Implies(sigma, alive, sigma[k]));
    if (!implied) alive[k] = 1;
  }
  size_t kept = 0;
  for (size_t k = 0; k < sigma.size(); ++k) {
    if (alive[k] == 0) continue;
    if (kept != k) sigma[kept] = std::move(sigma[k]);
    ++kept;
  }
  sigma.resize(kept);
  return sigma;
}

/// The input check of every Implies call MinCover would make, run once.
Status ValidateSigma(const std::vector<CFD>& sigma, size_t arity) {
  if (sigma.empty()) return Status::OK();
  return ValidateImplicationInput(sigma, sigma.front().relation, arity);
}

}  // namespace

Result<std::vector<CFD>> MinCover(std::vector<CFD> sigma, size_t arity,
                                  const AttrDomains& domains,
                                  const MinCoverOptions& options) {
  sigma = DedupeAndDropTrivial(std::move(sigma));
  CFDPROP_RETURN_NOT_OK(ValidateSigma(sigma, arity));
  ImplicationTester tester(arity, domains, options.implication);

  // Phase 1: remove redundant LHS attributes. phi' (with B dropped) is
  // stronger than phi, so the replacement is sound iff sigma |= phi'.
  // phi is nontrivial, so phi' is too: dropping the RHS attribute from
  // the LHS leaves a CFD whose RHS is not in its LHS, and dropping any
  // other keeps the very pattern pair that made phi nontrivial.
  for (size_t k = 0; k < sigma.size(); ++k) {
    if (sigma[k].is_special_x()) continue;  // single-attribute LHS
    for (size_t i = 0; i < sigma[k].lhs.size();) {
      CFDPROP_ASSIGN_OR_RETURN(bool implied,
                               tester.Implies(sigma, {}, sigma[k], i));
      if (implied) {
        sigma[k].lhs.erase(sigma[k].lhs.begin() + i);
        sigma[k].lhs_pats.erase(sigma[k].lhs_pats.begin() + i);
        // Restart at position i: indices shifted left.
      } else {
        ++i;
      }
    }
  }

  // Attribute removal can introduce duplicates (two CFDs minimizing to
  // the same one).
  sigma = DedupeAndDropTrivial(std::move(sigma));

  // Phase 2: remove redundant CFDs.
  return RemoveRedundant(std::move(sigma), tester);
}

Result<bool> AreEquivalent(const std::vector<CFD>& a,
                           const std::vector<CFD>& b, size_t arity,
                           const AttrDomains& domains,
                           const ImplicationOptions& options) {
  for (const CFD& c : a) {
    CFDPROP_ASSIGN_OR_RETURN(bool implied,
                             Implies(b, c, arity, domains, options));
    if (!implied) return false;
  }
  for (const CFD& c : b) {
    CFDPROP_ASSIGN_OR_RETURN(bool implied,
                             Implies(a, c, arity, domains, options));
    if (!implied) return false;
  }
  return true;
}

Result<std::vector<CFD>> RemoveRedundantCFDs(std::vector<CFD> sigma,
                                             size_t arity,
                                             const AttrDomains& domains,
                                             const MinCoverOptions& options) {
  sigma = DedupeAndDropTrivial(std::move(sigma));
  CFDPROP_RETURN_NOT_OK(ValidateSigma(sigma, arity));
  ImplicationTester tester(arity, domains, options.implication);
  return RemoveRedundant(std::move(sigma), tester);
}

}  // namespace cfdprop
