//===- ExprUtilsTest.cpp - vars/drfs/locations/substitution ---------------===//

#include "logic/ExprUtils.h"

#include "c2bp/CExprToLogic.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::logic;

namespace {

class ExprUtilsTest : public ::testing::Test {
protected:
  ExprRef parse(const std::string &Text) {
    DiagnosticEngine Diags;
    ExprRef E = c2bp::parseExpr(Ctx, Text, Diags);
    EXPECT_TRUE(E != nullptr) << Diags.str();
    return E;
  }

  LogicContext Ctx;
};

TEST_F(ExprUtilsTest, CollectVars) {
  auto Vars = collectVars(parse("curr->val > v && prev == NULL"));
  EXPECT_EQ(Vars, (std::set<std::string>{"curr", "v", "prev"}));
}

TEST_F(ExprUtilsTest, CollectDerefedVars) {
  // The paper's drfs(e): variables dereferenced in e.
  auto Drfs = collectDerefedVars(parse("*q <= y && p->val > a[i]"));
  EXPECT_EQ(Drfs, (std::set<std::string>{"q", "p", "a"}));
  EXPECT_TRUE(collectDerefedVars(parse("x + y < 3")).empty());
}

TEST_F(ExprUtilsTest, CollectLocationsIncludesNested) {
  auto Locs = collectLocations(parse("prev->val > v"));
  // prev->val, prev and v, in first-occurrence order.
  ASSERT_EQ(Locs.size(), 3u);
  EXPECT_EQ(Locs[0]->str(), "prev->val");
  EXPECT_EQ(Locs[1]->str(), "prev");
  EXPECT_EQ(Locs[2]->str(), "v");
}

TEST_F(ExprUtilsTest, Mentions) {
  ExprRef Phi = parse("p->val > v");
  EXPECT_TRUE(mentions(Phi, Ctx.var("p")));
  EXPECT_TRUE(mentions(Phi, Ctx.field(Ctx.deref(Ctx.var("p")), "val")));
  EXPECT_FALSE(mentions(Phi, Ctx.var("q")));
}

TEST_F(ExprUtilsTest, SubstituteVariable) {
  // The paper's WP example: (x+1) < 5 simplifies to x < 4 only after the
  // prover; structurally [x+1/x] gives x + 1 < 5.
  ExprRef Phi = parse("x < 5");
  ExprRef After = substituteAll(
      Ctx, Phi, {{Ctx.var("x"), Ctx.add(Ctx.var("x"), Ctx.intLit(1))}});
  EXPECT_EQ(After, parse("x + 1 < 5"));
}

TEST_F(ExprUtilsTest, SubstituteLocation) {
  // prev = curr: (prev == NULL)[curr/prev] = (curr == NULL).
  ExprRef Phi = parse("prev == NULL");
  EXPECT_EQ(substituteAll(Ctx, Phi, {{Ctx.var("prev"), Ctx.var("curr")}}),
            parse("curr == NULL"));
  // (prev->val > v)[curr/prev] = (curr->val > v).
  EXPECT_EQ(substituteAll(Ctx, parse("prev->val > v"),
                          {{Ctx.var("prev"), Ctx.var("curr")}}),
            parse("curr->val > v"));
}

TEST_F(ExprUtilsTest, SubstituteFoldsThroughSmartConstructors) {
  ExprRef Phi = parse("x < 5");
  ExprRef After = substituteAll(Ctx, Phi, {{Ctx.var("x"), Ctx.intLit(3)}});
  EXPECT_TRUE(After->isTrue());
}

TEST_F(ExprUtilsTest, SubstituteAllIsSimultaneous) {
  // Swapping x and y must not cascade.
  ExprRef Phi = parse("x < y");
  ExprRef After = substituteAll(
      Ctx, Phi, {{Ctx.var("x"), Ctx.var("y")}, {Ctx.var("y"), Ctx.var("x")}});
  EXPECT_EQ(After, parse("y < x"));
}

} // namespace
