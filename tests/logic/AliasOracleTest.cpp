//===- AliasOracleTest.cpp - Syntactic alias rules -------------------------===//

#include "logic/AliasOracle.h"

#include "c2bp/CExprToLogic.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::logic;

namespace {

class AliasOracleTest : public ::testing::Test {
protected:
  ExprRef loc(const std::string &Text) {
    DiagnosticEngine Diags;
    ExprRef E = c2bp::parseExpr(Ctx, Text, Diags);
    EXPECT_TRUE(E && E->isLocation()) << Text;
    return E;
  }

  LogicContext Ctx;
  ShapeAliasOracle Oracle;
};

TEST_F(AliasOracleTest, IdenticalMustAlias) {
  EXPECT_EQ(Oracle.alias(loc("x"), loc("x")), AliasResult::MustAlias);
  EXPECT_EQ(Oracle.alias(loc("p->val"), loc("p->val")),
            AliasResult::MustAlias);
}

TEST_F(AliasOracleTest, DistinctVariablesNeverAlias) {
  EXPECT_EQ(Oracle.alias(loc("x"), loc("y")), AliasResult::NoAlias);
}

TEST_F(AliasOracleTest, FieldsOfDifferentNamesNeverAlias) {
  EXPECT_EQ(Oracle.alias(loc("p->val"), loc("q->next")),
            AliasResult::NoAlias);
}

TEST_F(AliasOracleTest, SameFieldDifferentBaseMayAlias) {
  EXPECT_EQ(Oracle.alias(loc("p->val"), loc("q->val")),
            AliasResult::MayAlias);
}

TEST_F(AliasOracleTest, FieldNeverAliasesVariableOrArrayElement) {
  EXPECT_EQ(Oracle.alias(loc("p->val"), loc("x")), AliasResult::NoAlias);
  EXPECT_EQ(Oracle.alias(loc("a[i]"), loc("p->val")), AliasResult::NoAlias);
}

TEST_F(AliasOracleTest, DerefMayAliasVariable) {
  EXPECT_EQ(Oracle.alias(loc("*p"), loc("x")), AliasResult::MayAlias);
  EXPECT_EQ(Oracle.alias(loc("*p"), loc("*q")), AliasResult::MayAlias);
}

TEST_F(AliasOracleTest, ArrayElements) {
  EXPECT_EQ(Oracle.alias(loc("a[i]"), loc("a[j]")), AliasResult::MayAlias);
  EXPECT_EQ(Oracle.alias(loc("a[i]"), loc("b[i]")), AliasResult::NoAlias);
  EXPECT_EQ(Oracle.alias(loc("a[i]"), loc("x")), AliasResult::NoAlias);
}

} // namespace
