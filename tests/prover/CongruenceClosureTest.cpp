//===- CongruenceClosureTest.cpp - EUF -------------------------------------===//

#include "prover/CongruenceClosure.h"

#include "c2bp/CExprToLogic.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::prover;
using namespace slam::logic;

namespace {

class CCTest : public ::testing::Test {
protected:
  ExprRef parse(const std::string &Text) {
    DiagnosticEngine Diags;
    ExprRef E = c2bp::parseExpr(Ctx, Text, Diags);
    EXPECT_TRUE(E != nullptr) << Diags.str();
    return E;
  }

  LogicContext Ctx;
  CongruenceClosure CC;
};

TEST_F(CCTest, SameExprSameId) {
  EXPECT_EQ(CC.addTerm(parse("x")), CC.addTerm(parse("x")));
  EXPECT_NE(CC.addTerm(parse("x")), CC.addTerm(parse("y")));
}

TEST_F(CCTest, TransitivityOfEquality) {
  int X = CC.addTerm(parse("x")), Y = CC.addTerm(parse("y")),
      Z = CC.addTerm(parse("z"));
  EXPECT_TRUE(CC.assertEqual(X, Y));
  EXPECT_TRUE(CC.assertEqual(Y, Z));
  EXPECT_TRUE(CC.areEqual(X, Z));
}

TEST_F(CCTest, CongruenceThroughFields) {
  // p == q implies p->val == q->val (footnote 3's contrapositive rule).
  int P = CC.addTerm(parse("p")), Q = CC.addTerm(parse("q"));
  int PV = CC.addTerm(parse("p->val")), QV = CC.addTerm(parse("q->val"));
  EXPECT_FALSE(CC.areEqual(PV, QV));
  EXPECT_TRUE(CC.assertEqual(P, Q));
  EXPECT_TRUE(CC.areEqual(PV, QV));
}

TEST_F(CCTest, CongruenceAddedAfterMerge) {
  // Terms added after the merge still land in the merged class.
  int P = CC.addTerm(parse("p")), Q = CC.addTerm(parse("q"));
  EXPECT_TRUE(CC.assertEqual(P, Q));
  int PV = CC.addTerm(parse("*p")), QV = CC.addTerm(parse("*q"));
  EXPECT_TRUE(CC.areEqual(PV, QV));
}

TEST_F(CCTest, DisequalityConflict) {
  int X = CC.addTerm(parse("x")), Y = CC.addTerm(parse("y"));
  EXPECT_TRUE(CC.assertDisequal(X, Y));
  EXPECT_FALSE(CC.assertEqual(X, Y));
  EXPECT_TRUE(CC.inConflict());
}

TEST_F(CCTest, DisequalityThroughCongruence) {
  // f(x) != f(y) together with x == y is a conflict.
  int FX = CC.addTerm(parse("*x")), FY = CC.addTerm(parse("*y"));
  int X = CC.addTerm(parse("x")), Y = CC.addTerm(parse("y"));
  EXPECT_TRUE(CC.assertDisequal(FX, FY));
  EXPECT_FALSE(CC.assertEqual(X, Y));
}

TEST_F(CCTest, NestedCongruence) {
  // a == b implies a->next->val == b->next->val (two levels).
  int A = CC.addTerm(parse("a")), B = CC.addTerm(parse("b"));
  int AV = CC.addTerm(parse("a->next->val"));
  int BV = CC.addTerm(parse("b->next->val"));
  EXPECT_TRUE(CC.assertEqual(A, B));
  EXPECT_TRUE(CC.areEqual(AV, BV));
}

TEST_F(CCTest, IntLiteralsShareClassesByValue) {
  int A = CC.addTerm(parse("5")), B = CC.addTerm(parse("5"));
  EXPECT_TRUE(CC.areEqual(A, B));
  EXPECT_FALSE(CC.areEqual(CC.addTerm(parse("5")), CC.addTerm(parse("6"))));
}

TEST_F(CCTest, ArithmeticTermsCongruent) {
  // x == y implies x + 1 == y + 1 when + is uninterpreted.
  int X = CC.addTerm(parse("x")), Y = CC.addTerm(parse("y"));
  int X1 = CC.addTerm(parse("x + 1")), Y1 = CC.addTerm(parse("y + 1"));
  EXPECT_TRUE(CC.assertEqual(X, Y));
  EXPECT_TRUE(CC.areEqual(X1, Y1));
}

TEST_F(CCTest, ClearForgetsEqualitiesAndDisequalities) {
  int X = CC.addTerm(parse("x")), Y = CC.addTerm(parse("y"));
  int Z = CC.addTerm(parse("z")), W = CC.addTerm(parse("w"));
  CC.addTerm(parse("*x"));
  EXPECT_TRUE(CC.assertEqual(X, Y));
  EXPECT_TRUE(CC.assertDisequal(Z, W));
  EXPECT_FALSE(CC.assertEqual(Z, W));
  EXPECT_TRUE(CC.inConflict());

  CC.clear();
  EXPECT_EQ(CC.numTerms(), 0);
  EXPECT_FALSE(CC.inConflict());
  // Re-added in another order, so ids are reused for other terms.
  int DY = CC.addTerm(parse("*y")), DX = CC.addTerm(parse("*x"));
  W = CC.addTerm(parse("w"));
  Z = CC.addTerm(parse("z"));
  X = CC.addTerm(parse("x"));
  Y = CC.addTerm(parse("y"));
  EXPECT_FALSE(CC.areEqual(X, Y));
  EXPECT_FALSE(CC.areEqual(DX, DY));
  EXPECT_TRUE(CC.assertEqual(Z, W));
  EXPECT_TRUE(CC.assertEqual(X, Y));
  EXPECT_TRUE(CC.areEqual(DX, DY));
}

} // namespace
