#include "src/chase/flat_tableau.h"

#include <algorithm>
#include <utility>

namespace cfdprop {

void FlatTableau::Clear() {
  cells_.clear();
  doms_.clear();
  dom_values_.clear();
  rows_.clear();
  groups_.clear();
  changed_ = false;
  contradiction_ = false;
}

uint32_t FlatTableau::AddRow(RelationId relation, size_t arity,
                              std::span<const Domain* const> domains) {
  const uint32_t first = static_cast<uint32_t>(cells_.size());
  cells_.resize(first + arity);
  for (uint32_t c = first; c < cells_.size(); ++c) {
    cells_[c] = Cell{c, c, 1, kNoValue};
  }
  for (size_t i = 0; i < std::min(arity, domains.size()); ++i) {
    const Domain* d = domains[i];
    if (d == nullptr || !d->finite()) continue;
    doms_.resize(cells_.size(), DomainSlot{0, kInfinite});
    doms_[first + i] = DomainSlot{static_cast<uint32_t>(dom_values_.size()),
                                  static_cast<uint32_t>(d->values().size())};
    dom_values_.insert(dom_values_.end(), d->values().begin(),
                       d->values().end());
    if (d->values().empty()) contradiction_ = true;
  }
  PadDomains();
  rows_.push_back(Row{relation, first});
  groups_.clear();
  return first;
}

uint32_t FlatTableau::AddConstCell(Value v) {
  const uint32_t c = static_cast<uint32_t>(cells_.size());
  cells_.push_back(Cell{c, c, 1, v});
  PadDomains();
  return c;
}

uint32_t FlatTableau::BranchCell() const {
  uint32_t pick = kNoCell;
  uint32_t best = kInfinite;
  for (uint32_t c = 0; c < doms_.size(); ++c) {
    if (cells_[c].root == c && cells_[c].constant == kNoValue &&
        doms_[c].size < best) {
      best = doms_[c].size;
      pick = c;
    }
  }
  return pick;
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
  if (!doms_.empty() && !MergeDomains(ra, rb, ka != kNoValue ? ka : kb)) {
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
  if (k != kNoValue ||
      (!doms_.empty() && !Admits(doms_[cells_[cell].root], v))) {
    contradiction_ = true;
    return;
  }
  k = v;
  changed_ = true;
}

bool FlatTableau::Admits(DomainSlot d, Value v) const {
  if (d.size == kInfinite) return true;
  const Value* values = dom_values_.data() + d.begin;
  return std::find(values, values + d.size, v) != values + d.size;
}

bool FlatTableau::MergeDomains(uint32_t ra, uint32_t rb, Value k) {
  const DomainSlot da = doms_[ra];
  const DomainSlot db = doms_[rb];
  DomainSlot merged = da;
  if (da.size == kInfinite) {
    merged = db;
  } else if (db.size != kInfinite && (da.begin != db.begin ||
                                      da.size != db.size)) {
    // The values of da that db admits, in da's order, appended to the
    // pool unless they are all of da.
    const uint32_t begin = static_cast<uint32_t>(dom_values_.size());
    for (uint32_t i = 0; i < da.size; ++i) {
      const Value v = dom_values_[da.begin + i];
      if (Admits(db, v)) dom_values_.push_back(v);
    }
    const uint32_t size = static_cast<uint32_t>(dom_values_.size()) - begin;
    if (size == da.size) {
      dom_values_.resize(begin);
    } else {
      merged = DomainSlot{begin, size};
    }
  }
  doms_[ra] = doms_[rb] = merged;
  return k == kNoValue ? merged.size != 0 : Admits(merged, k);
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

RelationRules RulesFor(const FlatTableau& t, const std::vector<CFD>& sigma) {
  std::vector<RelationId> relations(t.num_groups());
  for (size_t g = 0; g < relations.size(); ++g) {
    relations[g] = t.group_relation(g);
  }
  RelationRules rules;
  rules.Build(sigma, relations);
  return rules;
}

Result<bool> ChaseToFixpoint(FlatTableau& t, const std::vector<CFD>& sigma) {
  return ChaseToFixpoint(t, RulesFor(t, sigma));
}

}  // namespace cfdprop
