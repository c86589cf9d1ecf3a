#include "src/schema/schema.h"

#include <gtest/gtest.h>

#include "src/schema/domain.h"

namespace cfdprop {
namespace {

TEST(DomainTest, InfiniteContainsEverything) {
  Domain d = Domain::Infinite("string");
  EXPECT_FALSE(d.finite());
  EXPECT_TRUE(d.Contains(0));
  EXPECT_TRUE(d.Contains(123456));
}

TEST(DomainTest, FiniteMembership) {
  ValuePool pool;
  Value a = pool.Intern("a");
  Value b = pool.Intern("b");
  Value c = pool.Intern("c");
  Domain d = Domain::Finite("abc", {a, b});
  EXPECT_TRUE(d.finite());
  EXPECT_TRUE(d.Contains(a));
  EXPECT_TRUE(d.Contains(b));
  EXPECT_FALSE(d.Contains(c));
  EXPECT_EQ(d.values().size(), 2u);
}

TEST(DomainTest, BooleanHasTwoValues) {
  ValuePool pool;
  Domain d = Domain::Boolean(pool);
  EXPECT_TRUE(d.finite());
  EXPECT_EQ(d.values().size(), 2u);
}

TEST(CatalogTest, AddAndFindRelation) {
  Catalog cat;
  auto r = cat.AddRelation("R", {"A", "B", "C"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(cat.num_relations(), 1u);
  EXPECT_EQ(cat.FindRelation("R"), *r);
  EXPECT_EQ(cat.FindRelation("S"), kNoRelation);

  const RelationSchema& schema = cat.relation(*r);
  EXPECT_EQ(schema.arity(), 3u);
  EXPECT_EQ(schema.FindAttr("B"), 1u);
  EXPECT_EQ(schema.FindAttr("Z"), kNoAttr);
}

TEST(CatalogTest, RejectsDuplicateRelationName) {
  Catalog cat;
  ASSERT_TRUE(cat.AddRelation("R", {"A"}).ok());
  auto dup = cat.AddRelation("R", {"B"});
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
}

TEST(CatalogTest, RejectsDuplicateAttributeName) {
  Catalog cat;
  auto r = cat.AddRelation("R", {"A", "A"});
  EXPECT_FALSE(r.ok());
}

TEST(CatalogTest, RejectsEmptyRelation) {
  Catalog cat;
  auto r = cat.AddRelation("R", std::vector<std::string>{});
  EXPECT_FALSE(r.ok());
}

TEST(CatalogTest, FiniteDomainDetection) {
  Catalog cat;
  ASSERT_TRUE(cat.AddRelation("R", {"A", "B"}).ok());
  EXPECT_FALSE(cat.HasFiniteDomainAttr());

  std::vector<Attribute> attrs;
  attrs.push_back(Attribute{"X", Domain::Infinite()});
  attrs.push_back(Attribute{"F", Domain::Boolean(cat.pool())});
  ASSERT_TRUE(cat.AddRelation("S", std::move(attrs)).ok());
  EXPECT_TRUE(cat.HasFiniteDomainAttr());
  EXPECT_FALSE(cat.relation(0).HasFiniteDomainAttr());
  EXPECT_TRUE(cat.relation(1).HasFiniteDomainAttr());
}

TEST(CatalogTest, RejectsEmptyFiniteDomain) {
  Catalog cat;
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute{"F", Domain::Finite("empty", {})});
  auto r = cat.AddRelation("S", std::move(attrs));
  EXPECT_FALSE(r.ok());
}

TEST(CatalogTest, RejectsRepeatedFiniteDomainValue) {
  // Every branch on a cell of such a domain would search the same
  // subtree twice.
  Catalog cat;
  const Value zero = cat.pool().Intern("0");
  const Value one = cat.pool().Intern("1");
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute{"val", Domain::Infinite()});
  attrs.push_back(Attribute{"flag", Domain::Finite("flag", {zero, one, zero})});
  auto r = cat.AddRelation("S", std::move(attrs));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("flag"), std::string::npos);
  EXPECT_EQ(cat.num_relations(), 0u);
}

}  // namespace
}  // namespace cfdprop
