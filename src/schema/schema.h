// Relational schemas and the Catalog.
//
// A Catalog owns the ValuePool and the set of relation schemas
// R = (S1, ..., Sm) that sources, CFDs and views refer to. Relations and
// attributes are referred to by dense ids (RelationId, position indices)
// so the algorithms stay index-based.

#ifndef CFDPROP_SCHEMA_SCHEMA_H_
#define CFDPROP_SCHEMA_SCHEMA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/base/value.h"
#include "src/schema/domain.h"

namespace cfdprop {

/// Index of a relation schema within its Catalog.
using RelationId = uint32_t;

/// Position of an attribute within its relation schema (0-based).
using AttrIndex = uint32_t;

inline constexpr RelationId kNoRelation = UINT32_MAX;
inline constexpr AttrIndex kNoAttr = UINT32_MAX;

/// One attribute: a name plus a domain.
struct Attribute {
  std::string name;
  Domain domain;
};

/// A relation schema S(A1, ..., Ak).
class RelationSchema {
 public:
  RelationSchema(std::string name, std::vector<Attribute> attrs)
      : name_(std::move(name)), attrs_(std::move(attrs)) {}

  const std::string& name() const { return name_; }
  size_t arity() const { return attrs_.size(); }
  const Attribute& attr(AttrIndex i) const { return attrs_[i]; }
  const std::vector<Attribute>& attrs() const { return attrs_; }

  /// Position of the attribute named `name`, or kNoAttr.
  AttrIndex FindAttr(std::string_view name) const;

  /// True when at least one attribute has a finite domain. Decision
  /// procedures use this to pick between the infinite-domain (PTIME) and
  /// general-setting (coNP) code paths.
  bool HasFiniteDomainAttr() const;

 private:
  std::string name_;
  std::vector<Attribute> attrs_;
};

/// The catalog: a value pool plus relation schemas.
class Catalog {
 public:
  Catalog() = default;

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;
  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;

  ValuePool& pool() { return pool_; }
  const ValuePool& pool() const { return pool_; }

  /// Adds a relation schema; returns its id. Fails with InvalidArgument
  /// on duplicate relation or attribute names, and on a finite domain
  /// that is empty or repeats a value.
  Result<RelationId> AddRelation(std::string name,
                                 std::vector<Attribute> attrs);

  /// Convenience: relation with all-infinite string attributes.
  Result<RelationId> AddRelation(std::string name,
                                 std::vector<std::string> attr_names);

  /// Brace-list convenience: AddRelation("R", {"A", "B"}).
  Result<RelationId> AddRelation(std::string name,
                                 std::initializer_list<std::string> attrs) {
    return AddRelation(std::move(name),
                       std::vector<std::string>(attrs));
  }

  size_t num_relations() const { return relations_.size(); }
  const RelationSchema& relation(RelationId id) const {
    return relations_[id];
  }

  /// Id of the relation named `name`, or kNoRelation.
  RelationId FindRelation(std::string_view name) const;

  /// True when any relation has a finite-domain attribute.
  bool HasFiniteDomainAttr() const;

 private:
  ValuePool pool_;
  std::vector<RelationSchema> relations_;
};

}  // namespace cfdprop

#endif  // CFDPROP_SCHEMA_SCHEMA_H_
