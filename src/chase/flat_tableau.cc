#include "src/chase/flat_tableau.h"

#include <algorithm>
#include <utility>

namespace cfdprop {

void FlatTableau::Clear() {
  cells_.clear();
  rows_.clear();
  groups_.clear();
  changed_ = false;
  contradiction_ = false;
}

uint32_t FlatTableau::AddRow(RelationId relation, size_t arity) {
  const uint32_t first = static_cast<uint32_t>(cells_.size());
  cells_.resize(first + arity);
  for (uint32_t c = first; c < cells_.size(); ++c) {
    cells_[c] = Cell{c, c, 1, kNoValue};
  }
  rows_.push_back(Row{relation, first});
  groups_.clear();
  return first;
}

uint32_t FlatTableau::AddConstCell(Value v) {
  const uint32_t c = static_cast<uint32_t>(cells_.size());
  cells_.push_back(Cell{c, c, 1, v});
  return c;
}

void FlatTableau::GroupRows() {
  // A stable insertion sort of the rows by their relation's first-seen
  // rank; a tableau has a handful of rows.
  groups_.clear();
  auto rank = [&](RelationId r) {
    size_t g = 0;
    while (groups_[g].relation != r) ++g;
    return g;
  };
  for (const Row& row : rows_) {
    if (GroupOf(row.relation) == SIZE_MAX) {
      groups_.push_back(Group{row.relation, 0, 0});
    }
  }
  for (size_t r = 1; r < rows_.size(); ++r) {
    for (size_t s = r; s > 0 && rank(rows_[s].relation) <
                                    rank(rows_[s - 1].relation);
         --s) {
      std::swap(rows_[s], rows_[s - 1]);
    }
  }
  uint32_t begin = 0;
  for (Group& g : groups_) {
    g.begin = begin;
    while (begin < rows_.size() && rows_[begin].relation == g.relation) {
      ++begin;
    }
    g.end = begin;
  }
}

void FlatTableau::Union(uint32_t a, uint32_t b) {
  uint32_t ra = cells_[a].root;
  uint32_t rb = cells_[b].root;
  if (ra == rb) return;
  const Value ka = cells_[ra].constant;
  const Value kb = cells_[rb].constant;
  if (ka != kNoValue && kb != kNoValue && ka != kb) {
    contradiction_ = true;
    return;
  }
  // Relabel the smaller class; the survivor keeps whichever constant the
  // two had.
  if (cells_[ra].size < cells_[rb].size) std::swap(ra, rb);
  cells_[ra].constant = ka != kNoValue ? ka : kb;
  uint32_t c = rb;
  do {
    cells_[c].root = ra;
    c = cells_[c].next;
  } while (c != rb);
  std::swap(cells_[ra].next, cells_[rb].next);  // splice the member lists
  cells_[ra].size += cells_[rb].size;
  changed_ = true;
}

void FlatTableau::Bind(uint32_t cell, Value v) {
  Value& k = cells_[cells_[cell].root].constant;
  if (k == v) return;
  if (k != kNoValue) {
    contradiction_ = true;
    return;
  }
  k = v;
  changed_ = true;
}

void RelationRules::Build(const std::vector<CFD>& sigma,
                          const std::vector<RelationId>& relations) {
  relations_ = relations;
  // Relation id -> bucket, for the ids up to the largest one built.
  const uint32_t none = static_cast<uint32_t>(relations_.size());
  RelationId max_id = 0;
  for (RelationId r : relations_) max_id = std::max(max_id, r);
  std::vector<uint32_t> slot(relations_.empty() ? 0 : max_id + 1, none);
  for (uint32_t s = 0; s < none; ++s) slot[relations_[s]] = s;
  auto slot_of = [&](const CFD& c) {
    return c.relation < slot.size() ? slot[c.relation] : none;
  };
  // A counting sort, stable in Sigma order: count into offsets_[s + 1],
  // sum, fill (which moves each bucket's offset to its end), shift back.
  offsets_.assign(relations_.size() + 1, 0);
  for (const CFD& c : sigma) {
    if (slot_of(c) != none) ++offsets_[slot_of(c) + 1];
  }
  for (size_t s = 1; s < offsets_.size(); ++s) offsets_[s] += offsets_[s - 1];
  cfds_.resize(offsets_.back());
  for (const CFD& c : sigma) {
    if (slot_of(c) != none) cfds_[offsets_[slot_of(c)]++] = &c;
  }
  for (size_t s = offsets_.size() - 1; s > 0; --s) {
    offsets_[s] = offsets_[s - 1];
  }
  offsets_[0] = 0;
}

size_t RelationRules::Slot(RelationId r) const {
  return static_cast<size_t>(
      std::find(relations_.begin(), relations_.end(), r) -
      relations_.begin());
}

const CFD* const* RelationRules::begin(RelationId r) const {
  const size_t s = Slot(r);
  return s < relations_.size() ? cfds_.data() + offsets_[s] : nullptr;
}

const CFD* const* RelationRules::end(RelationId r) const {
  const size_t s = Slot(r);
  return s < relations_.size() ? cfds_.data() + offsets_[s + 1] : nullptr;
}

Result<bool> ChaseToFixpoint(FlatTableau& t, const std::vector<CFD>& sigma) {
  std::vector<RelationId> relations(t.num_groups());
  for (size_t g = 0; g < relations.size(); ++g) {
    relations[g] = t.group_relation(g);
  }
  RelationRules rules;
  rules.Build(sigma, relations);
  return ChaseToFixpoint(t, rules);
}

}  // namespace cfdprop
