#include "tests/reference/symbolic_instance.h"

#include <algorithm>
#include <cassert>

namespace cfdprop {

namespace {

/// Intersects two sorted-or-not value lists (small inputs).
std::vector<Value> Intersect(const std::vector<Value>& a,
                             const std::vector<Value>& b) {
  std::vector<Value> out;
  for (Value v : a) {
    if (std::find(b.begin(), b.end(), v) != b.end()) out.push_back(v);
  }
  return out;
}

}  // namespace

CellId SymbolicInstance::NewCell(const Domain* domain) {
  CellId id = static_cast<CellId>(parent_.size());
  parent_.push_back(id);
  rank_.push_back(0);
  const_of_.push_back(kNoValue);
  if (domain != nullptr && domain->finite()) {
    finite_.emplace_back(domain->values());
    if (domain->values().empty()) contradiction_ = true;
  } else {
    finite_.emplace_back(std::nullopt);
  }
  return id;
}

CellId SymbolicInstance::NewConstCell(Value v, const Domain* domain) {
  CellId id = NewCell(domain);
  BindConst(id, v);
  return id;
}

size_t SymbolicInstance::AddRow(RelationId relation,
                                std::vector<CellId> cells) {
  rows_.push_back(Row{relation, std::move(cells)});
  return rows_.size() - 1;
}

CellId SymbolicInstance::Find(CellId c) {
  assert(c < parent_.size());
  while (parent_[c] != c) {
    parent_[c] = parent_[parent_[c]];
    c = parent_[c];
  }
  return c;
}

bool SymbolicInstance::Union(CellId a, CellId b) {
  CellId ra = Find(a);
  CellId rb = Find(b);
  if (ra == rb) return true;
  ++version_;

  // Merge constants.
  Value cv = const_of_[ra];
  if (const_of_[rb] != kNoValue) {
    if (cv != kNoValue && cv != const_of_[rb]) {
      contradiction_ = true;
      return false;
    }
    cv = const_of_[rb];
  }

  // Merge finite domains by intersection.
  std::optional<std::vector<Value>> dom;
  if (finite_[ra].has_value() && finite_[rb].has_value()) {
    dom = Intersect(*finite_[ra], *finite_[rb]);
  } else if (finite_[ra].has_value()) {
    dom = std::move(finite_[ra]);
  } else if (finite_[rb].has_value()) {
    dom = std::move(finite_[rb]);
  }

  if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  if (rank_[ra] == rank_[rb]) ++rank_[ra];
  const_of_[ra] = cv;
  finite_[ra] = std::move(dom);

  if (finite_[ra].has_value()) {
    if (cv != kNoValue) {
      // Bound constant must lie in the (possibly narrowed) domain.
      if (std::find(finite_[ra]->begin(), finite_[ra]->end(), cv) ==
          finite_[ra]->end()) {
        contradiction_ = true;
        return false;
      }
    } else if (finite_[ra]->empty()) {
      contradiction_ = true;
      return false;
    }
  }
  return true;
}

bool SymbolicInstance::BindConst(CellId c, Value v) {
  CellId r = Find(c);
  if (const_of_[r] != kNoValue) {
    if (const_of_[r] == v) return true;
    contradiction_ = true;
    return false;
  }
  ++version_;
  if (finite_[r].has_value() &&
      std::find(finite_[r]->begin(), finite_[r]->end(), v) ==
          finite_[r]->end()) {
    contradiction_ = true;
    return false;
  }
  const_of_[r] = v;
  return true;
}

std::optional<Value> SymbolicInstance::ConstOf(CellId c) {
  Value v = const_of_[Find(c)];
  if (v == kNoValue) return std::nullopt;
  return v;
}

bool SymbolicInstance::EqualCells(CellId a, CellId b) {
  CellId ra = Find(a);
  CellId rb = Find(b);
  if (ra == rb) return true;
  return const_of_[ra] != kNoValue && const_of_[ra] == const_of_[rb];
}

const std::optional<std::vector<Value>>& SymbolicInstance::FiniteDomainOf(
    CellId c) {
  return finite_[Find(c)];
}

std::vector<CellId> SymbolicInstance::UnboundFiniteCells() {
  std::vector<CellId> out;
  for (CellId c = 0; c < parent_.size(); ++c) {
    if (Find(c) != c) continue;
    if (const_of_[c] == kNoValue && finite_[c].has_value()) {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace cfdprop
