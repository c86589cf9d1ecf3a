#include "src/schema/schema.h"

#include <unordered_set>

namespace cfdprop {

AttrIndex RelationSchema::FindAttr(std::string_view name) const {
  for (AttrIndex i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i].name == name) return i;
  }
  return kNoAttr;
}

bool RelationSchema::HasFiniteDomainAttr() const {
  for (const Attribute& a : attrs_) {
    if (a.domain.finite()) return true;
  }
  return false;
}

Result<RelationId> Catalog::AddRelation(std::string name,
                                        std::vector<Attribute> attrs) {
  if (FindRelation(name) != kNoRelation) {
    return Status::InvalidArgument("duplicate relation name: " + name);
  }
  if (attrs.empty()) {
    return Status::InvalidArgument("relation " + name + " has no attributes");
  }
  std::unordered_set<std::string> seen;
  for (const Attribute& a : attrs) {
    if (!seen.insert(a.name).second) {
      return Status::InvalidArgument("duplicate attribute " + a.name +
                                     " in relation " + name);
    }
    if (a.domain.finite() && a.domain.values().empty()) {
      return Status::InvalidArgument("attribute " + a.name +
                                     " has an empty finite domain");
    }
    const std::vector<Value>& values = a.domain.values();
    if (std::unordered_set<Value>(values.begin(), values.end()).size() !=
        values.size()) {
      return Status::InvalidArgument("attribute " + a.name +
                                     " repeats a value of its finite domain");
    }
  }
  RelationId id = static_cast<RelationId>(relations_.size());
  relations_.emplace_back(std::move(name), std::move(attrs));
  return id;
}

Result<RelationId> Catalog::AddRelation(std::string name,
                                        std::vector<std::string> attr_names) {
  std::vector<Attribute> attrs;
  attrs.reserve(attr_names.size());
  for (std::string& n : attr_names) {
    attrs.push_back(Attribute{std::move(n), Domain::Infinite()});
  }
  return AddRelation(std::move(name), std::move(attrs));
}

RelationId Catalog::FindRelation(std::string_view name) const {
  for (RelationId i = 0; i < relations_.size(); ++i) {
    if (relations_[i].name() == name) return i;
  }
  return kNoRelation;
}

bool Catalog::HasFiniteDomainAttr() const {
  for (const RelationSchema& r : relations_) {
    if (r.HasFiniteDomainAttr()) return true;
  }
  return false;
}

}  // namespace cfdprop
