//===- WPTest.cpp - Weakest preconditions (Sections 4.1, 4.2) -------------===//

#include "logic/WP.h"

#include "c2bp/CExprToLogic.h"
#include "logic/ExprUtils.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::logic;

namespace {

class WPTest : public ::testing::Test {
protected:
  WPTest() : Engine(Ctx, Oracle) {}

  ExprRef parse(const std::string &Text) {
    DiagnosticEngine Diags;
    ExprRef E = c2bp::parseExpr(Ctx, Text, Diags);
    EXPECT_TRUE(E != nullptr) << Diags.str();
    return E;
  }

  ExprRef wp(const std::string &Lhs, const std::string &Rhs,
             const std::string &Phi) {
    return Engine.assignment(parse(Lhs), parse(Rhs), parse(Phi));
  }

  LogicContext Ctx;
  ShapeAliasOracle Oracle;
  WPEngine Engine;
};

TEST_F(WPTest, ScalarAssignmentIsSubstitution) {
  // The paper: WP(x=x+1, x<5) = (x+1) < 5.
  EXPECT_EQ(wp("x", "x + 1", "x < 5"), parse("x + 1 < 5"));
}

TEST_F(WPTest, UnrelatedPredicateUnchanged) {
  EXPECT_EQ(wp("x", "3", "y < 5"), parse("y < 5"));
}

TEST_F(WPTest, PaperMorrisExample) {
  // WP(x = 3, *p > 5) = (&x == p && 3 > 5) || (&x != p && *p > 5).
  // Our smart constructors fold 3 > 5 to false, killing that disjunct.
  ExprRef Result = wp("x", "3", "*p > 5");
  EXPECT_EQ(Result, parse("&x != p && *p > 5"));
}

TEST_F(WPTest, StoreThroughPointer) {
  // WP(*p = 3, x > 5): if p aliases x then 3 > 5 (false), else x > 5.
  ExprRef Result = wp("*p", "3", "x > 5");
  EXPECT_EQ(Result, parse("p != &x && x > 5"));
  // WP(*p = 7, x > 5): aliased case becomes 7 > 5 = true.
  EXPECT_EQ(wp("*p", "7", "x > 5"), parse("p == &x || (p != &x && x > 5)"));
}

TEST_F(WPTest, PartitionPrevEqualsCurr) {
  // Figure 1: prev=curr gives {prev==NULL} := {curr==NULL} and
  // {prev->val>v} := {curr->val>v} — the WPs are exactly the curr
  // predicates because none of the list pointers is address-taken...
  // With only shape information prev->val may alias curr->val through
  // the base pointers, but the substitution of prev by curr happens
  // first (it is a must-alias), after which no prev location remains.
  EXPECT_EQ(wp("prev", "curr", "prev == NULL"), parse("curr == NULL"));
  EXPECT_EQ(wp("prev", "curr", "prev->val > v"), parse("curr->val > v"));
}

TEST_F(WPTest, FieldStoreRespectsFieldNames) {
  // *x.next = ... cannot touch ->val predicates.
  ExprRef Result = wp("p->next", "q", "p->val > v");
  EXPECT_EQ(Result, parse("p->val > v"));
}

TEST_F(WPTest, FieldStoreSameFieldSplitsOnBase) {
  // WP(p->val = 0, q->val > v): guard is p == q (same field, bases).
  ExprRef Result = wp("p->val", "0", "q->val > v");
  // Aliased disjunct: 0 > v; non-aliased keeps q->val > v.
  EXPECT_EQ(Result,
            parse("(p == q && 0 > v) || (p != q && q->val > v)"));
}

TEST_F(WPTest, ArrayStoreGuardsOnIndex) {
  // WP(a[i] = 0, a[j] > 5) splits on i == j.
  ExprRef Result = wp("a[i]", "0", "a[j] > 5");
  EXPECT_EQ(Result, parse("i != j && a[j] > 5"));
  // Same index: must alias (identical location).
  EXPECT_EQ(wp("a[i]", "7", "a[i] > 5"), Ctx.trueE());
}

TEST_F(WPTest, DistinctArraysDoNotInterfere) {
  EXPECT_EQ(wp("a[i]", "0", "b[j] > 5"), parse("b[j] > 5"));
}

TEST_F(WPTest, AddressOfIsInvariantUnderAssignment) {
  // Assigning to x does not change &x.
  EXPECT_EQ(wp("x", "1", "&x == p"), parse("&x == p"));
}

TEST_F(WPTest, GuardEqSpecializations) {
  EXPECT_EQ(Engine.guardEq(parse("a[i]"), parse("a[j]")), parse("i == j"));
  EXPECT_EQ(Engine.guardEq(parse("*p"), parse("*q")), parse("p == q"));
  EXPECT_EQ(Engine.guardEq(parse("*p"), parse("x")), parse("p == &x"));
  EXPECT_EQ(Engine.guardEq(parse("p->f"), parse("q->f")), parse("p == q"));
  EXPECT_TRUE(Engine.guardEq(parse("x"), parse("x"))->isTrue());
}

TEST_F(WPTest, SubstituteLocSkipsExactAddrOf) {
  ExprRef Phi = parse("&x == p && x < 5");
  ExprRef After = substituteLoc(Ctx, Phi, Ctx.var("x"), Ctx.intLit(3));
  EXPECT_EQ(After, parse("&x == p"));
}

} // namespace
