#include "src/cfd/sigma_groups.h"

#include <algorithm>
#include <iterator>

namespace cfdprop {

Result<SigmaGroups> SigmaGroups::Make(
    const Catalog* catalog, std::span<const std::span<const CFD>> parts) {
  size_t num_relations = catalog != nullptr ? catalog->num_relations() : 0;
  size_t size = 0;
  for (std::span<const CFD> part : parts) {
    for (const CFD& c : part) {
      if (catalog == nullptr) {
        num_relations = std::max<size_t>(num_relations, c.relation + 1ul);
      } else if (c.relation >= num_relations) {
        return Status::InvalidArgument("source CFD with unknown relation");
      } else {
        CFDPROP_RETURN_NOT_OK(
            c.Validate(catalog->relation(c.relation).arity()));
      }
    }
    size += part.size();
  }
  SigmaGroups out(num_relations);
  out.size_ = size;

  // Each run of one relation inside a part is that relation's group,
  // unless the relation had an earlier run.
  bool one_run_each = true;
  for (std::span<const CFD> part : parts) {
    for (size_t begin = 0, end; begin < part.size(); begin = end) {
      const RelationId r = part[begin].relation;
      end = begin + 1;
      while (end < part.size() && part[end].relation == r) ++end;
      if (!out.groups_[r].empty()) {
        one_run_each = false;
      } else {
        out.groups_[r] = part.subspan(begin, end - begin);
        out.order_.push_back(r);
      }
    }
  }
  if (one_run_each) return out;

  // Gather each relation's CFDs, in Σ order, into one run of a copy,
  // and group that in place.
  auto copy = std::make_shared<std::vector<CFD>>();
  copy->reserve(size);
  for (RelationId r : out.order_) {
    for (std::span<const CFD> part : parts) {
      std::copy_if(part.begin(), part.end(), std::back_inserter(*copy),
                   [r](const CFD& c) { return c.relation == r; });
    }
  }
  SigmaGroups grouped = *Make(nullptr, *copy);
  grouped.regrouped_ = std::move(copy);
  return grouped;
}

}  // namespace cfdprop
