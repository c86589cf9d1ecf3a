// The flat chase kernel's finite-domain rules: the finite-domain cases
// of symbolic_instance_test, run on FlatTableau, plus the branch search
// they serve.

#include "src/chase/flat_tableau.h"

#include <gtest/gtest.h>

#include <vector>

namespace cfdprop {
namespace {

class FlatTableauTest : public ::testing::Test {
 protected:
  FlatTableauTest()
      : a_(pool_.Intern("a")),
        b_(pool_.Intern("b")),
        c_(pool_.Intern("c")),
        ab_(Domain::Finite("ab", {a_, b_})),
        bc_(Domain::Finite("bc", {b_, c_})),
        cba_(Domain::Finite("cba", {c_, b_, a_})) {}

  /// Adds a one-cell row with `domain` (null: infinite) and returns it.
  uint32_t Cell(const Domain* domain) {
    const Domain* domains[] = {domain};
    return t_.AddRow(0, 1, domains);
  }

  static std::vector<Value> Values(const FlatTableau& t, uint32_t cell) {
    const auto values = t.DomainOf(cell);
    return {values.begin(), values.end()};
  }

  ValuePool pool_;
  Value a_, b_, c_;
  Domain ab_, bc_, cba_;
  FlatTableau t_;
};

TEST_F(FlatTableauTest, InfiniteRowsKeepNoDomain) {
  const uint32_t x = t_.AddRow(0, 2);
  EXPECT_FALSE(t_.IsFinite(x));
  EXPECT_TRUE(t_.DomainOf(x).empty());
  EXPECT_EQ(t_.BranchCell(), FlatTableau::kNoCell);
  t_.Bind(x, a_);
  EXPECT_FALSE(t_.contradiction());
}

TEST_F(FlatTableauTest, DomainsIntersectOnUnion) {
  const uint32_t x = Cell(&cba_);
  const uint32_t y = Cell(&ab_);
  t_.Union(x, y);
  ASSERT_FALSE(t_.contradiction());
  // The first class's order: c, b, a less c.
  EXPECT_EQ(Values(t_, x), (std::vector<Value>{b_, a_}));
  EXPECT_EQ(Values(t_, y), (std::vector<Value>{b_, a_}));
  const uint32_t z = Cell(&bc_);
  t_.Union(z, y);
  ASSERT_FALSE(t_.contradiction());
  EXPECT_EQ(Values(t_, x), std::vector<Value>{b_});
}

TEST_F(FlatTableauTest, EmptyIntersectionContradicts) {
  const Domain only_a = Domain::Finite("a", {a_});
  const uint32_t x = Cell(&only_a);
  const uint32_t y = Cell(&bc_);
  t_.Union(x, y);
  EXPECT_TRUE(t_.contradiction());
}

TEST_F(FlatTableauTest, BindOutsideDomainContradicts) {
  const uint32_t x = Cell(&ab_);
  t_.Bind(x, a_);
  EXPECT_FALSE(t_.contradiction());
  const uint32_t y = Cell(&ab_);
  t_.Bind(y, c_);
  EXPECT_TRUE(t_.contradiction());
}

TEST_F(FlatTableauTest, ConstantOutsideMergedDomainContradicts) {
  // x is bound to a, which bc does not hold.
  const uint32_t x = Cell(nullptr);
  t_.Bind(x, a_);
  const uint32_t y = Cell(&bc_);
  t_.Union(x, y);
  EXPECT_TRUE(t_.contradiction());
}

TEST_F(FlatTableauTest, EmptyFiniteDomainContradicts) {
  const Domain empty = Domain::Finite("empty", {});
  Cell(&empty);
  EXPECT_TRUE(t_.contradiction());
}

TEST_F(FlatTableauTest, InfiniteCellTakesTheFiniteDomain) {
  const uint32_t x = Cell(nullptr);
  const uint32_t y = Cell(&bc_);
  EXPECT_FALSE(t_.IsFinite(x));
  t_.Union(x, y);
  ASSERT_FALSE(t_.contradiction());
  EXPECT_TRUE(t_.IsFinite(x));
  EXPECT_EQ(Values(t_, x), (std::vector<Value>{b_, c_}));
  t_.Bind(x, a_);
  EXPECT_TRUE(t_.contradiction());
}

TEST_F(FlatTableauTest, ForkIsIndependent) {
  const uint32_t x = Cell(&ab_);
  const uint32_t y = Cell(&cba_);
  FlatTableau fork = t_;
  fork.Union(x, y);
  fork.Bind(x, b_);
  ASSERT_FALSE(fork.contradiction());
  EXPECT_TRUE(fork.Equal(x, y));
  EXPECT_FALSE(t_.Equal(x, y));
  EXPECT_EQ(t_.ConstOf(x), kNoValue);
  EXPECT_EQ(Values(t_, y), (std::vector<Value>{c_, b_, a_}));
  // And back: resetting the fork's cells drops what it learned.
  fork.CopyCellsFrom(t_);
  EXPECT_FALSE(fork.Equal(x, y));
  EXPECT_EQ(Values(fork, y), (std::vector<Value>{c_, b_, a_}));
}

TEST_F(FlatTableauTest, BranchCellPicksTheSmallestUnboundDomain) {
  const uint32_t x = Cell(&cba_);
  const uint32_t y = Cell(&ab_);
  const uint32_t z = Cell(&bc_);
  EXPECT_EQ(t_.BranchCell(), y);  // first of the two-value domains
  t_.Bind(y, a_);
  EXPECT_EQ(t_.BranchCell(), z);
  t_.Bind(z, b_);
  EXPECT_EQ(t_.BranchCell(), x);
  t_.Bind(x, c_);
  EXPECT_EQ(t_.BranchCell(), FlatTableau::kNoCell);
}

TEST_F(FlatTableauTest, BranchSearchVisitsEveryLeafWithinBudget) {
  // Three two-value cells and no rule: 2^3 leaves, 15 nodes in all.
  for (int i = 0; i < 3; ++i) Cell(&ab_);
  t_.GroupRows();
  auto no_rules = [](const auto&) {};
  int leaves = 0;
  auto count = [&](const FlatTableau& leaf) {
    EXPECT_EQ(leaf.BranchCell(), FlatTableau::kNoCell);
    ++leaves;
    return false;
  };
  InstantiationOptions options;
  options.max_instantiations = 15;
  FlatTableau root = t_;
  auto found = ExistsChaseBranch(root, no_rules, count, options);
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_FALSE(*found);
  EXPECT_EQ(leaves, 8);

  options.max_instantiations = 14;
  root = t_;
  auto exhausted = ExistsChaseBranch(root, no_rules, count, options);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(FlatTableauTest, BranchSearchChasesEachBranch) {
  // R(F, B) with dom(F) = {a, b}: ([F=a] -> B=c) and ([F=b] -> B=c) bind
  // B on every leaf, which the infinite reading of F never does.
  const Domain* domains[] = {&ab_, nullptr};
  const uint32_t row = t_.AddRow(0, 2, domains);
  t_.GroupRows();
  const std::vector<CFD> sigma = {
      CFD::Make(0, {0}, {PatternValue::Constant(a_)}, 1,
                PatternValue::Constant(c_))
          .value(),
      CFD::Make(0, {0}, {PatternValue::Constant(b_)}, 1,
                PatternValue::Constant(c_))
          .value()};
  const SigmaGroups rules = *SigmaGroups::Make(nullptr, sigma);
  FlatTableau chased = t_;
  ASSERT_FALSE(*ChaseToFixpoint(chased, rules));
  EXPECT_EQ(chased.ConstOf(row + 1), kNoValue);

  auto b_unbound = [&](const FlatTableau& leaf) {
    return !leaf.BoundTo(row + 1, c_);
  };
  auto found = ExistsChaseBranch(t_, GroupRules(t_, rules), b_unbound,
                                 InstantiationOptions{});
  ASSERT_TRUE(found.ok()) << found.status();
  EXPECT_FALSE(*found);
}

}  // namespace
}  // namespace cfdprop
