#include "tests/reference/chase.h"

#include <gtest/gtest.h>

namespace cfdprop {
namespace {

class ChaseTest : public ::testing::Test {
 protected:
  // Two rows over an abstract 3-attribute relation (id 0).
  void SetUp() override {
    for (auto& row : rows_) {
      row.clear();
      for (int i = 0; i < 3; ++i) row.push_back(inst_.NewCell());
      inst_.AddRow(0, row);
    }
    a_ = pool_.Intern("a");
    b_ = pool_.Intern("b");
  }

  CFD FD01() {  // A -> B
    return CFD::FD(0, {0}, 1).value();
  }
  CFD FD12() {  // B -> C
    return CFD::FD(0, {1}, 2).value();
  }

  ValuePool pool_;
  SymbolicInstance inst_;
  std::vector<CellId> rows_[2];
  Value a_, b_;
};

TEST_F(ChaseTest, FDPairRuleMergesRhs) {
  ASSERT_TRUE(inst_.Union(rows_[0][0], rows_[1][0]));  // agree on A
  auto outcome = Chase(inst_, {FD01()});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, ChaseOutcome::kFixpoint);
  EXPECT_TRUE(inst_.EqualCells(rows_[0][1], rows_[1][1]));
  EXPECT_FALSE(inst_.EqualCells(rows_[0][2], rows_[1][2]));
}

TEST_F(ChaseTest, TransitivityThroughTwoFDs) {
  ASSERT_TRUE(inst_.Union(rows_[0][0], rows_[1][0]));
  auto outcome = Chase(inst_, {FD01(), FD12()});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, ChaseOutcome::kFixpoint);
  EXPECT_TRUE(inst_.EqualCells(rows_[0][2], rows_[1][2]));
}

TEST_F(ChaseTest, NoAgreementNoFiring) {
  auto outcome = Chase(inst_, {FD01()});
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(inst_.EqualCells(rows_[0][1], rows_[1][1]));
}

TEST_F(ChaseTest, ConstantPatternFiresOnlyOnBoundCells) {
  // ([A=a] -> B=b): variables do not match 'a' in the infinite setting.
  auto cfd = CFD::Make(0, {0}, {PatternValue::Constant(a_)}, 1,
                       PatternValue::Constant(b_));
  ASSERT_TRUE(cfd.ok());
  auto outcome = Chase(inst_, {*cfd});
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(inst_.ConstOf(rows_[0][1]).has_value());

  // Now bind A of row 0: the single-tuple rule binds B to 'b'.
  ASSERT_TRUE(inst_.BindConst(rows_[0][0], a_));
  outcome = Chase(inst_, {*cfd});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(inst_.ConstOf(rows_[0][1]), std::optional<Value>(b_));
  EXPECT_FALSE(inst_.ConstOf(rows_[1][1]).has_value());
}

TEST_F(ChaseTest, ContradictionWhenConstantsClash) {
  // Row constants already disagree on B while a CFD forces agreement.
  ASSERT_TRUE(inst_.Union(rows_[0][0], rows_[1][0]));
  ASSERT_TRUE(inst_.BindConst(rows_[0][1], a_));
  ASSERT_TRUE(inst_.BindConst(rows_[1][1], b_));
  auto outcome = Chase(inst_, {FD01()});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, ChaseOutcome::kContradiction);
}

TEST_F(ChaseTest, EqualityCFDUnifiesColumnsPerRow) {
  CFD eq = CFD::Equality(0, 0, 2);
  auto outcome = Chase(inst_, {eq});
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(inst_.EqualCells(rows_[0][0], rows_[0][2]));
  EXPECT_TRUE(inst_.EqualCells(rows_[1][0], rows_[1][2]));
  EXPECT_FALSE(inst_.EqualCells(rows_[0][0], rows_[1][0]));
}

TEST_F(ChaseTest, EmptyLhsConstantCFDBindsEveryRow) {
  CFD k;
  k.relation = 0;
  k.rhs = 1;
  k.rhs_pat = PatternValue::Constant(a_);
  auto outcome = Chase(inst_, {k});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(inst_.ConstOf(rows_[0][1]), std::optional<Value>(a_));
  EXPECT_EQ(inst_.ConstOf(rows_[1][1]), std::optional<Value>(a_));
}

TEST_F(ChaseTest, RelationTagsAreRespected) {
  // A CFD on relation 1 must not touch rows of relation 0.
  auto cfd = CFD::FD(1, {0}, 1);
  ASSERT_TRUE(cfd.ok());
  ASSERT_TRUE(inst_.Union(rows_[0][0], rows_[1][0]));
  auto outcome = Chase(inst_, {*cfd});
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(inst_.EqualCells(rows_[0][1], rows_[1][1]));
}

TEST_F(ChaseTest, EmptyLhsPairRuleUnifiesAllRows) {
  // (() -> B) with a wildcard RHS: all rows must agree on B.
  CFD k;
  k.relation = 0;
  k.rhs = 1;
  k.rhs_pat = PatternValue::Wildcard();
  auto outcome = Chase(inst_, {k});
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(inst_.EqualCells(rows_[0][1], rows_[1][1]));
  EXPECT_FALSE(inst_.EqualCells(rows_[0][0], rows_[1][0]));
}

TEST_F(ChaseTest, ForbiddenPatternCFDContradictsOnMatch) {
  // [A=a] -> A=b forbids tuples with A=a.
  auto forbidden = CFD::Make(0, {0}, {PatternValue::Constant(a_)}, 0,
                             PatternValue::Constant(b_));
  ASSERT_TRUE(forbidden.ok());
  ASSERT_TRUE(forbidden->IsForbiddenPattern());

  // Without a binding nothing fires.
  auto outcome = Chase(inst_, {*forbidden});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, ChaseOutcome::kFixpoint);

  // Binding row 0's A to 'a' triggers the contradiction.
  ASSERT_TRUE(inst_.BindConst(rows_[0][0], a_));
  outcome = Chase(inst_, {*forbidden});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, ChaseOutcome::kContradiction);
}

TEST_F(ChaseTest, ChaseIsIdempotent) {
  ASSERT_TRUE(inst_.Union(rows_[0][0], rows_[1][0]));
  auto o1 = Chase(inst_, {FD01(), FD12()});
  ASSERT_TRUE(o1.ok());
  uint64_t v = inst_.version();
  auto o2 = Chase(inst_, {FD01(), FD12()});
  ASSERT_TRUE(o2.ok());
  EXPECT_EQ(inst_.version(), v);  // fixpoint reached: no further change
}

}  // namespace
}  // namespace cfdprop
