//===- ParserTest.cpp - Predicates through cfront's expression grammar -----===//

#include "c2bp/CExprToLogic.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::logic;

namespace {

class ParserTest : public ::testing::Test {
protected:
  ExprRef parse(const std::string &Text) {
    DiagnosticEngine Diags;
    ExprRef E = c2bp::parseExpr(Ctx, Text, Diags);
    EXPECT_TRUE(E != nullptr) << Diags.str();
    return E;
  }

  void expectError(const std::string &Text) {
    DiagnosticEngine Diags;
    ExprRef E = c2bp::parseExpr(Ctx, Text, Diags);
    EXPECT_EQ(E, nullptr) << "parsed: " << (E ? E->str() : "");
    EXPECT_TRUE(Diags.hasErrors());
  }

  LogicContext Ctx;
};

TEST_F(ParserTest, PaperFigure1Predicates) {
  EXPECT_EQ(parse("curr == NULL"), Ctx.eq(Ctx.var("curr"), Ctx.nullLit()));
  EXPECT_EQ(parse("prev == NULL"), Ctx.eq(Ctx.var("prev"), Ctx.nullLit()));
  EXPECT_EQ(parse("curr->val > v"),
            Ctx.gt(Ctx.field(Ctx.deref(Ctx.var("curr")), "val"),
                   Ctx.var("v")));
}

TEST_F(ParserTest, PaperFigure2Predicates) {
  EXPECT_EQ(parse("*q <= y"),
            Ctx.le(Ctx.deref(Ctx.var("q")), Ctx.var("y")));
  EXPECT_EQ(parse("y >= 0"), Ctx.ge(Ctx.var("y"), Ctx.intLit(0)));
  EXPECT_EQ(parse("y == l1"), Ctx.eq(Ctx.var("y"), Ctx.var("l1")));
}

TEST_F(ParserTest, Precedence) {
  // * binds tighter than +, + tighter than <, < tighter than &&.
  EXPECT_EQ(parse("x + 2 * y < 5 && z == 0"),
            Ctx.andE(Ctx.lt(Ctx.add(Ctx.var("x"),
                                    Ctx.mul(Ctx.intLit(2), Ctx.var("y"))),
                            Ctx.intLit(5)),
                     Ctx.eq(Ctx.var("z"), Ctx.intLit(0))));
  // && binds tighter than ||.
  ExprRef E = parse("a == 1 || b == 2 && c == 3");
  ASSERT_EQ(E->kind(), ExprKind::Or);
  EXPECT_EQ(E->op(1)->kind(), ExprKind::And);
}

TEST_F(ParserTest, UnaryOperators) {
  EXPECT_EQ(parse("!(x < 5)"), Ctx.ge(Ctx.var("x"), Ctx.intLit(5)));
  EXPECT_EQ(parse("-x < 0"), Ctx.lt(Ctx.neg(Ctx.var("x")), Ctx.intLit(0)));
  EXPECT_EQ(parse("**pp == 3"),
            Ctx.eq(Ctx.deref(Ctx.deref(Ctx.var("pp"))), Ctx.intLit(3)));
  EXPECT_EQ(parse("&x == p"),
            Ctx.eq(Ctx.addrOf(Ctx.var("x")), Ctx.var("p")));
}

TEST_F(ParserTest, BangOverTermMeansEqualsZero) {
  EXPECT_EQ(parse("!x"), Ctx.eq(Ctx.var("x"), Ctx.intLit(0)));
}

TEST_F(ParserTest, PostfixChains) {
  EXPECT_EQ(parse("p->next->val == 0"),
            Ctx.eq(Ctx.field(Ctx.deref(Ctx.field(Ctx.deref(Ctx.var("p")),
                                                 "next")),
                             "val"),
                   Ctx.intLit(0)));
  EXPECT_EQ(parse("a[i] <= a[j + 1]"),
            Ctx.le(Ctx.index(Ctx.var("a"), Ctx.var("i")),
                   Ctx.index(Ctx.var("a"),
                             Ctx.add(Ctx.var("j"), Ctx.intLit(1)))));
  EXPECT_EQ(parse("s.f == 1"),
            Ctx.eq(Ctx.field(Ctx.var("s"), "f"), Ctx.intLit(1)));
}

TEST_F(ParserTest, BooleanLiterals) {
  EXPECT_TRUE(parse("true")->isTrue());
  EXPECT_TRUE(parse("false")->isFalse());
}

TEST_F(ParserTest, RoundTripThroughPrinter) {
  for (const char *Text :
       {"curr->val > v", "(curr != NULL && x <= 0) || prev == NULL",
        "a[i + 1] <= n", "*q <= y", "&x == p", "x % 2 == 0",
        "h->next == hnext"}) {
    ExprRef E = parse(Text);
    EXPECT_EQ(parse(E->str()), E) << "round-trip failed for " << Text;
  }
}

TEST_F(ParserTest, Errors) {
  expectError("");
  expectError("x +");
  expectError("(x == 1");
  expectError("x == 1 extra");
  expectError("x = 1");  // Single '=' is not a predicate operator.
  expectError("p->5");   // Field must be an identifier.
  expectError("&5 == p");// Address of a non-location.
  expectError("a[1 == 2"); // Missing ']'.
}

TEST_F(ParserTest, CallsAndAddressOfNonLocationsAreDiagnostics) {
  // cfront's grammar accepts both; the predicate language does not.
  for (auto [Text, Message] :
       {std::pair{"f(x) == 1", "call to 'f' in a predicate"},
        std::pair{"x < g()", "call to 'g' in a predicate"},
        std::pair{"&5 == p", "operand of & must be a location"},
        std::pair{"&(x + 1) == p", "operand of & must be a location"},
        std::pair{"&true == p", "operand of & must be a location"}}) {
    DiagnosticEngine Diags;
    EXPECT_EQ(c2bp::parseExpr(Ctx, Text, Diags), nullptr) << Text;
    EXPECT_NE(Diags.str().find(Message), std::string::npos) << Diags.str();
  }
}

TEST_F(ParserTest, OutOfRangeIntegerLiteralInPredicateIsADiagnostic) {
  for (const char *Text : {"99999999999999999999 == curr",
                           "-9223372036854775808 < v"}) {
    DiagnosticEngine Diags;
    EXPECT_EQ(c2bp::parseExpr(Ctx, Text, Diags), nullptr) << Text;
    EXPECT_NE(Diags.str().find("integer literal out of range"),
              std::string::npos)
        << Diags.str();
  }
  EXPECT_EQ(parse("9223372036854775807 > v")->op(0)->intValue(), INT64_MAX);
}

} // namespace
