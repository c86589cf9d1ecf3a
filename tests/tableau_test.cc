#include "tests/reference/view_tableau.h"

#include <gtest/gtest.h>

namespace cfdprop {
namespace {

class TableauTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cat_.AddRelation("R1", {"A", "B", "C"}).ok());
    ASSERT_TRUE(cat_.AddRelation("R2", {"D", "E"}).ok());
  }
  Catalog cat_;
};

TEST_F(TableauTest, OneRowPerAtomWithFreshCells) {
  SPCViewBuilder b(cat_);
  b.AddAtom(0);
  b.AddAtom(1);
  auto view = b.Build();
  ASSERT_TRUE(view.ok());

  SymbolicInstance inst;
  auto t = BuildViewTableau(cat_, *view, inst);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(inst.num_rows(), 2u);
  EXPECT_EQ(inst.row(0).relation, 0u);
  EXPECT_EQ(inst.row(1).relation, 1u);
  EXPECT_EQ(t->ec_cells.size(), 5u);
  EXPECT_EQ(t->summary.size(), 5u);
  // All cells distinct before selections.
  for (size_t i = 0; i < t->ec_cells.size(); ++i) {
    for (size_t j = i + 1; j < t->ec_cells.size(); ++j) {
      EXPECT_FALSE(inst.EqualCells(t->ec_cells[i], t->ec_cells[j]));
    }
  }
}

TEST_F(TableauTest, SelectionsApplied) {
  SPCViewBuilder b(cat_);
  size_t r1 = b.AddAtom(0);
  size_t r2 = b.AddAtom(1);
  ASSERT_TRUE(b.SelectEq(r1, "C", r2, "D").ok());
  ASSERT_TRUE(b.SelectConst(r1, "A", "42").ok());
  auto view = b.Build();
  ASSERT_TRUE(view.ok());

  SymbolicInstance inst;
  auto t = BuildViewTableau(cat_, *view, inst);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(inst.EqualCells(t->ec_cells[2], t->ec_cells[3]));
  auto c = inst.ConstOf(t->ec_cells[0]);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(cat_.pool().Text(*c), "42");
  EXPECT_FALSE(inst.contradiction());
}

TEST_F(TableauTest, ConflictingConstantsContradict) {
  SPCViewBuilder b(cat_);
  size_t r1 = b.AddAtom(0);
  ASSERT_TRUE(b.SelectConst(r1, "A", "1").ok());
  ASSERT_TRUE(b.SelectConst(r1, "A", "2").ok());
  auto view = b.Build();
  ASSERT_TRUE(view.ok());

  SymbolicInstance inst;
  auto t = BuildViewTableau(cat_, *view, inst);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(inst.contradiction());
}

TEST_F(TableauTest, TransitiveConstantThroughEquality) {
  // C = D and C = '5' must force D = '5'.
  SPCViewBuilder b(cat_);
  size_t r1 = b.AddAtom(0);
  size_t r2 = b.AddAtom(1);
  ASSERT_TRUE(b.SelectEq(r1, "C", r2, "D").ok());
  ASSERT_TRUE(b.SelectConst(r1, "C", "5").ok());
  auto view = b.Build();
  ASSERT_TRUE(view.ok());

  SymbolicInstance inst;
  auto t = BuildViewTableau(cat_, *view, inst);
  ASSERT_TRUE(t.ok());
  auto c = inst.ConstOf(t->ec_cells[3]);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(cat_.pool().Text(*c), "5");
}

TEST_F(TableauTest, SummaryMapsOutputColumns) {
  SPCViewBuilder b(cat_);
  size_t r1 = b.AddAtom(0);
  ASSERT_TRUE(b.Project(r1, "B").ok());
  ASSERT_TRUE(b.ProjectConstant("CC", "44").ok());
  auto view = b.Build();
  ASSERT_TRUE(view.ok());

  SymbolicInstance inst;
  auto t = BuildViewTableau(cat_, *view, inst);
  ASSERT_TRUE(t.ok());
  ASSERT_EQ(t->summary.size(), 2u);
  EXPECT_EQ(inst.Find(t->summary[0]), inst.Find(t->ec_cells[1]));
  auto c = inst.ConstOf(t->summary[1]);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(cat_.pool().Text(*c), "44");
}

TEST_F(TableauTest, CellsCarryDomains) {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute{"F", Domain::Boolean(cat_.pool())});
  ASSERT_TRUE(cat_.AddRelation("R3", std::move(attrs)).ok());

  SPCViewBuilder b(cat_);
  auto r3 = b.AddAtom("R3");
  ASSERT_TRUE(r3.ok());
  auto view = b.Build();
  ASSERT_TRUE(view.ok());

  SymbolicInstance inst;
  auto t = BuildViewTableau(cat_, *view, inst);
  ASSERT_TRUE(t.ok());
  const auto& dom = inst.FiniteDomainOf(t->ec_cells[0]);
  ASSERT_TRUE(dom.has_value());
  EXPECT_EQ(dom->size(), 2u);
}

TEST_F(TableauTest, TwoCopiesShareNothing) {
  SPCViewBuilder b(cat_);
  b.AddAtom(0);
  auto view = b.Build();
  ASSERT_TRUE(view.ok());

  SymbolicInstance inst;
  auto t1 = BuildViewTableau(cat_, *view, inst);
  auto t2 = BuildViewTableau(cat_, *view, inst);
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_EQ(inst.num_rows(), 2u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(inst.EqualCells(t1->ec_cells[i], t2->ec_cells[i]));
  }
}

}  // namespace
}  // namespace cfdprop
