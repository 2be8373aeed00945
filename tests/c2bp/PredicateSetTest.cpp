//===- PredicateSetTest.cpp - Predicate input files -------------------------===//

#include "c2bp/PredicateSet.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::c2bp;

namespace {

class PredicateSetTest : public ::testing::Test {
protected:
  logic::LogicContext Ctx;
  DiagnosticEngine Diags;
};

TEST_F(PredicateSetTest, ParsesFigure1File) {
  auto PS = parsePredicateFile(Ctx, R"(
# Figure 1's predicate input file.
partition:
  curr == NULL, prev == NULL,
  curr->val > v, prev->val > v
)",
                               Diags);
  ASSERT_TRUE(PS.has_value()) << Diags.str();
  EXPECT_TRUE(PS->Globals.empty());
  ASSERT_EQ(PS->forProc("partition").size(), 4u);
  EXPECT_EQ(PS->forProc("partition")[2]->str(), "curr->val > v");
  EXPECT_EQ(PS->totalCount(), 4u);
}

TEST_F(PredicateSetTest, GlobalScope) {
  auto PS = parsePredicateFile(Ctx, R"(
global:
  lock == 1
foo:
  x == 0
)",
                               Diags);
  ASSERT_TRUE(PS.has_value()) << Diags.str();
  ASSERT_EQ(PS->Globals.size(), 1u);
  EXPECT_EQ(PS->Globals[0]->str(), "lock == 1");
  EXPECT_EQ(PS->forProc("foo").size(), 1u);
}

TEST_F(PredicateSetTest, DeduplicatesWithinScope) {
  auto PS = parsePredicateFile(Ctx, "f:\n x == 0\n x == 0\n", Diags);
  ASSERT_TRUE(PS.has_value());
  EXPECT_EQ(PS->forProc("f").size(), 1u);
}

// Diagnostics name a scope's first header and a predicate's line; a
// duplicate keeps the line of its first occurrence.
TEST_F(PredicateSetTest, RecordsLines) {
  PredicateLines Lines;
  auto PS = parsePredicateFile(Ctx, R"(global:
  lock == 1
f:
  x == 0, y == 0
  x == 0
global:
f:

  z == 0
)",
                               Diags, &Lines);
  ASSERT_TRUE(PS.has_value()) << Diags.str();
  EXPECT_EQ(Lines.Scopes, (std::map<std::string, unsigned>{{"global", 1},
                                                            {"f", 3}}));
  EXPECT_EQ(Lines.Globals, std::vector<unsigned>{2});
  EXPECT_EQ(Lines.PerProc["f"], (std::vector<unsigned>{4, 4, 9}));
  ASSERT_EQ(PS->forProc("f").size(), 3u);
  EXPECT_EQ(PS->forProc("f")[2]->str(), "z == 0");
}

TEST_F(PredicateSetTest, AddForRefinement) {
  PredicateSet PS;
  logic::ExprRef E = Ctx.eq(Ctx.var("x"), Ctx.intLit(0));
  EXPECT_TRUE(PS.addLocal("f", E));
  EXPECT_FALSE(PS.addLocal("f", E));
  EXPECT_TRUE(PS.addGlobal(E));
  EXPECT_FALSE(PS.addGlobal(E));
}

TEST_F(PredicateSetTest, Errors) {
  EXPECT_FALSE(parsePredicateFile(Ctx, "x == 0\n", Diags).has_value());
  Diags.clear();
  EXPECT_FALSE(parsePredicateFile(Ctx, "f:\n x ==\n", Diags).has_value());
  Diags.clear();
  EXPECT_FALSE(parsePredicateFile(Ctx, "f:\n x + 1\n", Diags).has_value());
  // A constant would name a boolean variable `true` or `false`.
  for (const char *Constant : {"true", "false", "1 == 1", "x == x", "1 < 0"}) {
    Diags.clear();
    EXPECT_FALSE(parsePredicateFile(Ctx, std::string("f:\n") + Constant,
                                    Diags)
                     .has_value())
        << Constant;
    EXPECT_NE(Diags.str().find("predicate '" + std::string(Constant) +
                               "' is constant"),
              std::string::npos)
        << Diags.str();
  }
  // A predicate both global and local, in either order of the scopes.
  for (const char *Text : {"global:\n x == 1\nmain:\n x == 1\n",
                           "main:\n x == 1\nglobal:\n x == 1\n"}) {
    Diags.clear();
    EXPECT_FALSE(parsePredicateFile(Ctx, Text, Diags).has_value()) << Text;
    std::string Line = Text[0] == 'g' ? "4" : "2";
    EXPECT_NE(Diags.str().find(Line + ":1: error: predicate 'x == 1' of "
                                      "'main' is already global"),
              std::string::npos)
        << Diags.str();
  }
}

} // namespace
