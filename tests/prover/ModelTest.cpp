//===- ModelTest.cpp - Concrete models and the prover's witnesses ---------===//

#include "prover/Model.h"

#include "c2bp/CExprToLogic.h"
#include "prover/Prover.h"

#include <gtest/gtest.h>

#include <limits>

using namespace slam;
using namespace slam::prover;
using namespace slam::logic;

namespace {

class ModelTest : public ::testing::Test {
protected:
  ExprRef parse(const std::string &Text) {
    DiagnosticEngine Diags;
    ExprRef E = c2bp::parseExpr(Ctx, Text, Diags);
    EXPECT_TRUE(E != nullptr) << Diags.str();
    return E;
  }

  /// Defines the application \p Text (a variable, `*p`, `p->f`, ...).
  bool define(Model &M, const std::string &Text, int64_t Value) {
    // Parse the application as the left side of a comparison with a
    // variable, which the logic cannot fold away.
    return M.define(parse(Text + " == unrelated")->op(0), Value);
  }

  LogicContext Ctx;
};

TEST_F(ModelTest, AcceptsAGenuineModel) {
  Model M;
  ASSERT_TRUE(define(M, "x", 1));
  ASSERT_TRUE(define(M, "y", 2));
  ASSERT_TRUE(define(M, "p", 7));
  ASSERT_TRUE(define(M, "*p", 3));
  ASSERT_TRUE(define(M, "p->f", 5));
  EXPECT_EQ(M.holds(parse("x < y && x + 1 == y && y * 2 - x == 3")), true);
  EXPECT_EQ(M.holds(parse("*p == 3 && p->f == 5 && p != NULL")), true);
  EXPECT_EQ(M.holds(parse("y / 2 == 1 && y % 2 == 0 && -x == 0 - 1")), true);
  EXPECT_EQ(M.holds(parse("x == y || !(x < y)")), false);
  // Defining a point again with its own value is no conflict.
  EXPECT_TRUE(define(M, "x", 1));
  EXPECT_FALSE(define(M, "x", 2));
}

TEST_F(ModelTest, ApplicationsAreFunctionsOfTheirArguments) {
  // p == q && *p != *q has no model: *p and *q are one point of `*`.
  Model M;
  ASSERT_TRUE(define(M, "p", 5));
  ASSERT_TRUE(define(M, "q", 5));
  ASSERT_TRUE(define(M, "*p", 1));
  EXPECT_FALSE(define(M, "*q", 2));
  EXPECT_EQ(M.holds(parse("p == q && *p != *q")), false);
  EXPECT_EQ(M.holds(parse("p->f == q->f")), true);
}

TEST_F(ModelTest, AddressesOfDistinctVariablesDiffer) {
  Model M;
  EXPECT_EQ(M.holds(parse("&x == &y")), false);
  // With x == y the prover's congruence closure makes &x == &y, which
  // the address axiom forbids: no value.
  Model Equal;
  ASSERT_TRUE(define(Equal, "x", 3));
  ASSERT_TRUE(define(Equal, "y", 3));
  ASSERT_TRUE(define(Equal, "&x", 100));
  EXPECT_EQ(Equal.holds(parse("&x == &y")), std::nullopt);
  EXPECT_FALSE(define(Equal, "&y", 100));
}

TEST_F(ModelTest, AddressesArePositive) {
  Model M;
  EXPECT_EQ(M.holds(parse("&x == 0")), false);
  EXPECT_EQ(M.holds(parse("&x == NULL")), false);
  EXPECT_FALSE(define(M, "&y", 0));
  EXPECT_FALSE(define(M, "&z", -4));
}

TEST_F(ModelTest, OverflowAndDivisionByZeroHaveNoValue) {
  Model M;
  ASSERT_TRUE(define(M, "x", std::numeric_limits<int64_t>::max()));
  ASSERT_TRUE(define(M, "y", 0));
  EXPECT_EQ(M.holds(parse("x + 1 > x")), std::nullopt);
  EXPECT_EQ(M.holds(parse("x * 2 > 0")), std::nullopt);
  EXPECT_EQ(M.holds(parse("y - x - 2 < 0")), std::nullopt);
  EXPECT_EQ(M.holds(parse("x / y == 1")), std::nullopt);
  EXPECT_EQ(M.holds(parse("x % y == 1")), std::nullopt);
  // Every operand is evaluated: an undefined one is not short-circuited.
  EXPECT_EQ(M.holds(parse("y == 1 && x / y == 1")), std::nullopt);
}

TEST_F(ModelTest, UndefinedPointsTakeFreshValues) {
  Model M;
  ASSERT_TRUE(define(M, "x", 9));
  // A term the model does not define takes a value no other term has,
  // and keeps it.
  EXPECT_EQ(M.holds(parse("y != x && y != 0 && y == y")), true);
  EXPECT_EQ(M.value(parse("y == 0")->op(0)), M.value(parse("y == 0")->op(0)));
  EXPECT_EQ(M.holds(parse("*y != y")), true);
}

TEST(ProverWitness, SatAnswersCarryAVerifiedModel) {
  LogicContext Ctx;
  StatsRegistry Stats;
  Prover P(Ctx, &Stats);
  DiagnosticEngine Diags;
  for (const char *Text :
       {"x == 1 && y == x + 1", "p == q && *p == 3 && q->f != x",
        "x < y && y < z && z <= x + 2", "&a != p && *p > 0",
        "x != y && x >= 0 && y >= 0"}) {
    SCOPED_TRACE(Text);
    ExprRef Phi = c2bp::parseExpr(Ctx, Text, Diags);
    ASSERT_TRUE(Phi != nullptr) << Diags.str();
    ASSERT_EQ(P.checkSat(Phi), Satisfiability::Sat);
    const Model *W = P.witness();
    ASSERT_TRUE(W != nullptr);
    Model Copy = *W;
    EXPECT_EQ(Copy.holds(Phi), true);
    // A cache hit hands out the model the computing call found.
    ASSERT_EQ(P.checkSat(Phi), Satisfiability::Sat);
    EXPECT_EQ(P.witness(), W);
  }
  EXPECT_EQ(P.checkSat(c2bp::parseExpr(Ctx, "x < x", Diags)),
            Satisfiability::Unsat);
  EXPECT_EQ(P.witness(), nullptr);
}

} // namespace
