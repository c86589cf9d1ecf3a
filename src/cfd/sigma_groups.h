// Σ as Fig. 2 reads it: one group of CFDs per source relation. Line 1
// minimizes Σ per relation, and every later step reads only the groups
// of the view's atoms' relations: the ComputeEQ chase, Σ_V (lines 5-10)
// and the union propagation test.

#ifndef CFDPROP_CFD_SIGMA_GROUPS_H_
#define CFDPROP_CFD_SIGMA_GROUPS_H_

#include <memory>
#include <span>
#include <vector>

#include "src/base/status.h"
#include "src/cfd/cfd.h"
#include "src/schema/schema.h"

namespace cfdprop {

/// A read-only view of Σ grouped by relation: each relation's CFDs in Σ
/// order, and the relations in first-seen order. Cheap to copy; a copy
/// reads the same CFDs.
class SigmaGroups {
 public:
  /// Builds the view of `parts`, read in order as one Σ: the one place Σ
  /// is grouped and validated. With a catalog, every CFD must be on one
  /// of its relations (InvalidArgument otherwise) and pass CFD::Validate
  /// with that relation's arity; a null catalog validates nothing (for a
  /// Σ validated on its way in, or only hashed). When each relation's
  /// CFDs are one run of one part (every MinCoverSigma output, and the
  /// engine's groups) the view points into `parts`, which must outlive
  /// it and its copies; otherwise it shares one stably grouped copy.
  static Result<SigmaGroups> Make(
      const Catalog* catalog, std::span<const std::span<const CFD>> parts);
  static Result<SigmaGroups> Make(const Catalog* catalog,
                                  std::span<const CFD> sigma) {
    return Make(catalog, {&sigma, 1});
  }

  /// Relation r's CFDs in Σ order; empty when Σ has none on r.
  std::span<const CFD> group(RelationId r) const {
    return r < groups_.size() ? groups_[r] : std::span<const CFD>();
  }
  /// The relations with a nonempty group, in first-seen order.
  const std::vector<RelationId>& order() const { return order_; }
  /// |Σ|.
  size_t size() const { return size_; }

 private:
  // No default constructor, so `{}` never picks a SigmaGroups overload
  // over a std::vector<CFD> one.
  explicit SigmaGroups(size_t num_relations) : groups_(num_relations) {
    order_.reserve(num_relations);
  }

  std::vector<std::span<const CFD>> groups_;  // by relation id
  std::vector<RelationId> order_;
  size_t size_ = 0;
  /// The stably grouped copy, when some relation's CFDs were not one run.
  std::shared_ptr<const std::vector<CFD>> regrouped_;
};

}  // namespace cfdprop

#endif  // CFDPROP_CFD_SIGMA_GROUPS_H_
