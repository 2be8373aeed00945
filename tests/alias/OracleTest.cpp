//===- OracleTest.cpp - Points-to-backed alias queries on predicates -------===//

#include "alias/Oracle.h"

#include "c2bp/CExprToLogic.h"
#include "cfront/Normalize.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::alias;
using namespace slam::cfront;
using logic::AliasResult;
using logic::ExprRef;

namespace {

const char *PartitionSource = R"(
typedef struct cell { int val; struct cell* next; } *list;
list partition(list *l, int v) {
  list curr, prev, newl, nextcurr;
  curr = *l; prev = NULL; newl = NULL;
  while (curr != NULL) {
    nextcurr = curr->next;
    if (curr->val > v) {
      if (prev != NULL) prev->next = nextcurr;
      if (curr == *l) *l = nextcurr;
      curr->next = newl;
      newl = curr;
    } else { prev = curr; }
    curr = nextcurr;
  }
  return newl;
}
)";

class OracleTest : public ::testing::Test {
protected:
  void SetUp() override {
    DiagnosticEngine Diags;
    P = frontend(PartitionSource, Diags);
    ASSERT_TRUE(P != nullptr) << Diags.str();
    PT = std::make_unique<PointsTo>(*P);
    Oracle = std::make_unique<ProgramAliasOracle>(
        *PT, *P, P->findFunction("partition"));
  }

  ExprRef loc(const std::string &Text) {
    DiagnosticEngine Diags;
    ExprRef E = c2bp::parseExpr(Ctx, Text, Diags);
    EXPECT_TRUE(E != nullptr) << Diags.str();
    return E;
  }

  std::unique_ptr<Program> P;
  std::unique_ptr<PointsTo> PT;
  std::unique_ptr<ProgramAliasOracle> Oracle;
  logic::LogicContext Ctx;
};

TEST_F(OracleTest, LocalPointersNotAliasedThroughDerefs) {
  // Section 2.1: the assignment prev = NULL can only affect the prev
  // predicates, because *l cannot alias a non-address-taken local.
  EXPECT_EQ(Oracle->alias(loc("prev"), loc("*l")), AliasResult::NoAlias);
  EXPECT_EQ(Oracle->alias(loc("curr"), loc("*l")), AliasResult::NoAlias);
}

TEST_F(OracleTest, TypeBasedPruning) {
  // v is an int; curr is a struct cell*.
  EXPECT_EQ(Oracle->alias(loc("v"), loc("curr")), AliasResult::NoAlias);
  // curr->val (int) vs curr->next (cell*): distinct fields anyway.
  EXPECT_EQ(Oracle->alias(loc("curr->val"), loc("curr->next")),
            AliasResult::NoAlias);
}

TEST_F(OracleTest, SameFieldDifferentBaseStillMay) {
  EXPECT_EQ(Oracle->alias(loc("curr->val"), loc("prev->val")),
            AliasResult::MayAlias);
}

TEST_F(OracleTest, IdenticalLocationsMust) {
  EXPECT_EQ(Oracle->alias(loc("curr->next"), loc("curr->next")),
            AliasResult::MustAlias);
}

TEST_F(OracleTest, DerefOfLAliasesAnonymousCellsOnly) {
  // *l may alias another deref of the same type...
  EXPECT_EQ(Oracle->alias(loc("*l"), loc("*l")), AliasResult::MustAlias);
  // ...but not an int variable.
  EXPECT_EQ(Oracle->alias(loc("*l"), loc("v")), AliasResult::NoAlias);
}

TEST_F(OracleTest, UnknownNamesStayConservative) {
  // Auxiliary predicate variables unknown to the program: the oracle
  // cannot prove disjointness against derefs.
  EXPECT_EQ(Oracle->alias(loc("mystery"), loc("*l")),
            AliasResult::MayAlias);
  // Two distinct variables never alias even when unknown (shape rule).
  EXPECT_EQ(Oracle->alias(loc("mystery"), loc("curr")),
            AliasResult::NoAlias);
}

} // namespace
