// ComputeEQ and EQ2CFD (Section 4.2/4.3, Figs. 2 and 4).
//
// ComputeEQ partitions the Ec columns of an SPC view into equivalence
// classes EQ: columns A, B share a class iff A = B is derivable from the
// selection condition F together with the domain-constraint content of
// the source CFDs; each class may carry a constant key(eq) when some
// member is forced to a constant. A key conflict (two distinct constants
// in one class) means the view is empty for every source satisfying
// Sigma ("⊥", Lemma 4.5).
//
// We derive EQ by chasing the single-copy view tableau with Sigma, which
// subsumes the paper's syntactic fixpoint (it also catches interactions
// such as Example 3.1, where a source CFD forces a column constant that
// contradicts a selection constant). The chase runs on the flat kernel
// (src/chase/flat_tableau.h), whose cells carry the atoms' domains; the
// classes, and so rep and key, are its fixpoint.
//
// EQ2CFD converts the classes into view CFDs (Lemma 4.2): a keyed class
// contributes RV(A -> A, (_ || key)) per member; an unkeyed class with
// >= 2 output members contributes equality CFDs RV(A -> B, (x || x)).

#ifndef CFDPROP_COVER_COMPUTE_EQ_H_
#define CFDPROP_COVER_COMPUTE_EQ_H_

#include <vector>

#include "src/algebra/view.h"
#include "src/base/status.h"
#include "src/cfd/cfd.h"
#include "src/schema/schema.h"

namespace cfdprop {

/// The result of ComputeEQ: per-Ec-column representative and key.
class EqClasses {
 public:
  /// True when the view is empty under every Sigma-satisfying source
  /// (the "⊥" outcome of ComputeEQ).
  bool inconsistent = false;

  /// rep[c] = representative column of c's class (rep[rep[c]] == rep[c]).
  std::vector<ColumnId> rep;

  /// key[c] = constant forced on c's class, or kNoValue. Stored per
  /// column; all members of a class agree.
  std::vector<Value> key;

  ColumnId Rep(ColumnId c) const { return rep[c]; }
  Value Key(ColumnId c) const { return key[c]; }
  bool SameClass(ColumnId a, ColumnId b) const { return rep[a] == rep[b]; }
};

/// Computes the attribute equivalence classes of `view` under `sigma`
/// (source CFDs tagged with catalog relation ids).
Result<EqClasses> ComputeEQ(const Catalog& catalog, const SPCView& view,
                            const std::vector<CFD>& sigma);

/// Converts EQ (plus the Rc constant columns) into view CFDs over the
/// output schema of `view`. CFDs are tagged kViewSchemaId with attribute
/// indices = output column positions.
///
/// The emission order is part of the output contract: PropCFD_SPC
/// appends these CFDs to Sigma_c and min-covers the whole, and MinCover's
/// result depends on its input order, so reordering them changes the
/// served cover bytes (tests/propcfd_golden_test.cc pins them).
std::vector<CFD> EQ2CFD(const Catalog& catalog, const SPCView& view,
                        const EqClasses& eq);

/// The Lemma 4.5 pair: two conflicting constant CFDs on output column 0
/// asserting the view is always empty.
std::vector<CFD> MakeEmptyViewCover(Catalog& catalog, const SPCView& view);

/// True iff `cover` is a Lemma 4.5 pair, i.e. marks an always-empty view
/// (two constant CFDs forcing distinct constants on the same column).
bool IsEmptyViewCover(const std::vector<CFD>& cover);

}  // namespace cfdprop

#endif  // CFDPROP_COVER_COMPUTE_EQ_H_
