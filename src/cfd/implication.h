// Implication and consistency analysis for CFDs (reference [8] of the
// paper: Fan, Geerts, Jia, Kementsietsidis, "Conditional functional
// dependencies for capturing data inconsistencies", TODS).
//
// Sigma |= phi iff every instance satisfying Sigma satisfies phi. In the
// infinite-domain setting this is decidable in PTIME via a chase of a
// two-tuple template (CFD satisfaction is closed under sub-instances, so
// a counterexample can always be shrunk to the two offending tuples). In
// the general setting the problem is coNP-complete; we decide it by
// instantiating the finite-domain variables of the template, as the
// paper's appendix proofs do.
//
// One procedure decides Implies: it chases the two-row template on the
// flat chase kernel (src/chase/flat_tableau.h: a union-find with one
// constant slot and one domain slot per class over 2*arity cells, in one
// reusable buffer). Outside the general setting it stops as soon as
// phi's conclusion holds; in it, ExistsChaseBranch instantiates the
// template's finite-domain classes and looks for a leaf where phi's
// conclusion fails.
//
// These procedures are what MinCover (src/cfd/mincover.h) and the final
// minimization step of PropCFD_SPC are built on.

#ifndef CFDPROP_CFD_IMPLICATION_H_
#define CFDPROP_CFD_IMPLICATION_H_

#include <cstdint>
#include <vector>

#include "src/base/status.h"
#include "src/cfd/cfd.h"
#include "src/chase/flat_tableau.h"
#include "src/schema/schema.h"

namespace cfdprop {

struct ImplicationOptions {
  /// When true, unbound finite-domain variables of the chase template are
  /// instantiated exhaustively (general setting, coNP). When false they
  /// are not instantiated (the setting of Section 4); their domains still
  /// bound the constants the chase may bind them to.
  bool general_setting = false;
  InstantiationOptions instantiation;
};

/// Per-attribute domains of the attribute space CFDs are defined on;
/// entries may be null (infinite), and attributes past the end are
/// infinite. An empty vector means all-infinite.
using AttrDomains = std::vector<const Domain*>;

/// The domains of a catalog relation, for building AttrDomains.
AttrDomains DomainsOf(const Catalog& catalog, RelationId relation);

/// Decides Sigma |= phi over an attribute space of `arity` attributes.
/// All CFDs (sigma's and phi) must carry the same relation tag; rows of
/// the internal template are tagged with it. Validates its inputs on
/// every call.
Result<bool> Implies(const std::vector<CFD>& sigma, const CFD& phi,
                     size_t arity, const AttrDomains& domains = {},
                     const ImplicationOptions& options = {});

/// The input check Implies and IsSatisfiable run on every call, for
/// callers that test many phi against one sigma: every CFD passes
/// CFD::Validate(arity) and carries `relation`.
Status ValidateImplicationInput(const std::vector<CFD>& sigma,
                                RelationId relation, size_t arity);

/// Runs many implication tests against subsets of one validated sigma,
/// as MinCover and RemoveRedundantCFDs do, with one tableau buffer for
/// all of them and no copy of a subset. Does not validate: the caller
/// checks sigma (and every phi) with ValidateImplicationInput once.
/// `domains` must outlive the tester.
class ImplicationTester {
 public:
  ImplicationTester(size_t arity, const AttrDomains& domains,
                    const ImplicationOptions& options);
  /// The tester keeps a reference to `domains`: no temporaries.
  ImplicationTester(size_t arity, AttrDomains&& domains,
                    const ImplicationOptions& options) = delete;

  /// Decides Sigma' |= phi', where Sigma' is the CFDs of `sigma` whose
  /// `alive` entry is nonzero (all of them when `alive` is empty) and
  /// phi' is `phi` without its LHS attribute at position `drop_lhs`
  /// (phi itself when drop_lhs is SIZE_MAX).
  Result<bool> Implies(const std::vector<CFD>& sigma,
                       const std::vector<uint8_t>& alive, const CFD& phi,
                       size_t drop_lhs = SIZE_MAX);

 private:
  size_t arity_;
  const AttrDomains& domains_;
  ImplicationOptions options_;
  FlatTableau tableau_;
};

/// The consistency (satisfiability) problem: is there a *nonempty*
/// instance satisfying sigma? PTIME without finite domains, NP-complete
/// with them ([8]; also the view-free case of the emptiness problem,
/// Section 3.3).
Result<bool> IsSatisfiable(const std::vector<CFD>& sigma, size_t arity,
                           const AttrDomains& domains = {},
                           const ImplicationOptions& options = {});

}  // namespace cfdprop

#endif  // CFDPROP_CFD_IMPLICATION_H_
