#include "tests/reference/symbolic_instance.h"

#include <gtest/gtest.h>

namespace cfdprop {
namespace {

TEST(SymbolicInstanceTest, FreshCellsAreDistinct) {
  SymbolicInstance inst;
  CellId a = inst.NewCell();
  CellId b = inst.NewCell();
  EXPECT_NE(inst.Find(a), inst.Find(b));
  EXPECT_FALSE(inst.EqualCells(a, b));
}

TEST(SymbolicInstanceTest, UnionMergesClasses) {
  SymbolicInstance inst;
  CellId a = inst.NewCell();
  CellId b = inst.NewCell();
  CellId c = inst.NewCell();
  EXPECT_TRUE(inst.Union(a, b));
  EXPECT_TRUE(inst.EqualCells(a, b));
  EXPECT_FALSE(inst.EqualCells(a, c));
  EXPECT_TRUE(inst.Union(b, c));
  EXPECT_TRUE(inst.EqualCells(a, c));
}

TEST(SymbolicInstanceTest, ConstBindingPropagatesThroughClass) {
  SymbolicInstance inst;
  CellId a = inst.NewCell();
  CellId b = inst.NewCell();
  ASSERT_TRUE(inst.Union(a, b));
  ASSERT_TRUE(inst.BindConst(a, 7));
  EXPECT_EQ(inst.ConstOf(b), std::optional<Value>(7));
}

TEST(SymbolicInstanceTest, EqualCellsViaSharedConstant) {
  SymbolicInstance inst;
  CellId a = inst.NewCell();
  CellId b = inst.NewCell();
  ASSERT_TRUE(inst.BindConst(a, 3));
  ASSERT_TRUE(inst.BindConst(b, 3));
  // Different classes, same constant: equal values.
  EXPECT_NE(inst.Find(a), inst.Find(b));
  EXPECT_TRUE(inst.EqualCells(a, b));
}

TEST(SymbolicInstanceTest, ConflictingBindContradicts) {
  SymbolicInstance inst;
  CellId a = inst.NewCell();
  ASSERT_TRUE(inst.BindConst(a, 1));
  EXPECT_FALSE(inst.BindConst(a, 2));
  EXPECT_TRUE(inst.contradiction());
}

TEST(SymbolicInstanceTest, ConflictingUnionContradicts) {
  SymbolicInstance inst;
  CellId a = inst.NewCell();
  CellId b = inst.NewCell();
  ASSERT_TRUE(inst.BindConst(a, 1));
  ASSERT_TRUE(inst.BindConst(b, 2));
  EXPECT_FALSE(inst.Union(a, b));
  EXPECT_TRUE(inst.contradiction());
}

TEST(SymbolicInstanceTest, VersionBumpsOnEffectiveChange) {
  SymbolicInstance inst;
  CellId a = inst.NewCell();
  CellId b = inst.NewCell();
  uint64_t v0 = inst.version();
  ASSERT_TRUE(inst.Union(a, b));
  EXPECT_GT(inst.version(), v0);
  uint64_t v1 = inst.version();
  ASSERT_TRUE(inst.Union(a, b));  // no-op
  EXPECT_EQ(inst.version(), v1);
  ASSERT_TRUE(inst.BindConst(a, 5));
  EXPECT_GT(inst.version(), v1);
  uint64_t v2 = inst.version();
  ASSERT_TRUE(inst.BindConst(b, 5));  // already bound
  EXPECT_EQ(inst.version(), v2);
}

TEST(SymbolicInstanceTest, FiniteDomainsIntersectOnUnion) {
  ValuePool pool;
  Value a = pool.Intern("a"), b = pool.Intern("b"), c = pool.Intern("c");
  Domain d1 = Domain::Finite("d1", {a, b});
  Domain d2 = Domain::Finite("d2", {b, c});

  SymbolicInstance inst;
  CellId x = inst.NewCell(&d1);
  CellId y = inst.NewCell(&d2);
  ASSERT_TRUE(inst.Union(x, y));
  const auto& dom = inst.FiniteDomainOf(x);
  ASSERT_TRUE(dom.has_value());
  EXPECT_EQ(*dom, std::vector<Value>{b});
}

TEST(SymbolicInstanceTest, EmptyIntersectionContradicts) {
  ValuePool pool;
  Value a = pool.Intern("a"), b = pool.Intern("b");
  Domain d1 = Domain::Finite("d1", {a});
  Domain d2 = Domain::Finite("d2", {b});

  SymbolicInstance inst;
  CellId x = inst.NewCell(&d1);
  CellId y = inst.NewCell(&d2);
  EXPECT_FALSE(inst.Union(x, y));
  EXPECT_TRUE(inst.contradiction());
}

TEST(SymbolicInstanceTest, BindOutsideFiniteDomainContradicts) {
  ValuePool pool;
  Value a = pool.Intern("a");
  Value z = pool.Intern("z");
  Domain d = Domain::Finite("d", {a});

  SymbolicInstance inst;
  CellId x = inst.NewCell(&d);
  EXPECT_FALSE(inst.BindConst(x, z));
  EXPECT_TRUE(inst.contradiction());
}

TEST(SymbolicInstanceTest, UnboundFiniteCellsListsRootsOnly) {
  ValuePool pool;
  Value a = pool.Intern("a"), b = pool.Intern("b");
  Domain d = Domain::Finite("d", {a, b});

  SymbolicInstance inst;
  CellId x = inst.NewCell(&d);
  CellId y = inst.NewCell(&d);
  CellId z = inst.NewCell();  // infinite
  CellId w = inst.NewCell(&d);
  ASSERT_TRUE(inst.Union(x, y));
  ASSERT_TRUE(inst.BindConst(w, a));
  (void)z;

  std::vector<CellId> cells = inst.UnboundFiniteCells();
  ASSERT_EQ(cells.size(), 1u);  // the {x,y} root; z infinite; w bound
  EXPECT_EQ(inst.Find(cells[0]), inst.Find(x));
}

TEST(SymbolicInstanceTest, CopyForksIndependently) {
  SymbolicInstance inst;
  CellId a = inst.NewCell();
  CellId b = inst.NewCell();
  SymbolicInstance fork = inst;
  ASSERT_TRUE(fork.Union(a, b));
  EXPECT_TRUE(fork.EqualCells(a, b));
  EXPECT_FALSE(inst.EqualCells(a, b));
}

TEST(SymbolicInstanceTest, RowsKeepRelationTags) {
  SymbolicInstance inst;
  CellId a = inst.NewCell();
  CellId b = inst.NewCell();
  size_t r = inst.AddRow(3, {a, b});
  EXPECT_EQ(inst.num_rows(), 1u);
  EXPECT_EQ(inst.row(r).relation, 3u);
  EXPECT_EQ(inst.row(r).cells.size(), 2u);
}

}  // namespace
}  // namespace cfdprop
