//===- CubeSearchTest.cpp - F_V / G_V (Section 4.1, 5.2) --------------------===//

#include "c2bp/CubeSearch.h"

#include "alias/Oracle.h"
#include "c2bp/CExprToLogic.h"
#include "c2bp/PredicateSet.h"
#include "cfront/Normalize.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::c2bp;
using logic::ExprRef;

namespace {

class CubeSearchTest : public ::testing::Test {
protected:
  CubeSearchTest() : P(Ctx, &Stats) {}

  ExprRef parse(const std::string &Text) {
    DiagnosticEngine Diags;
    ExprRef E = c2bp::parseExpr(Ctx, Text, Diags);
    EXPECT_TRUE(E != nullptr) << Diags.str();
    return E;
  }

  std::vector<ExprRef> preds(const std::vector<std::string> &Texts) {
    std::vector<ExprRef> Out;
    for (const std::string &T : Texts)
      Out.push_back(parse(T));
    return Out;
  }

  CubeSearch make(CubeSearchOptions Options = {}) {
    return CubeSearch(Ctx, P, Oracle, Options, &Stats);
  }

  uint64_t cubesChecked() const { return Stats.get("c2bp.cubes_checked"); }

  logic::LogicContext Ctx;
  StatsRegistry Stats;
  prover::Prover P;
  logic::ShapeAliasOracle Oracle;
};

TEST_F(CubeSearchTest, PaperExampleStrengthening) {
  // E = {x < 5, x == 2}: E(F_V(x < 4)) = (x == 2).
  CubeSearch CS = make();
  auto V = preds({"x < 5", "x == 2"});
  Dnf D = CS.findF(V, parse("x < 4"));
  ASSERT_EQ(D.size(), 1u);
  ASSERT_EQ(D[0].size(), 1u);
  EXPECT_EQ(D[0][0].Var, 1);
  EXPECT_TRUE(D[0][0].Positive);
  EXPECT_EQ(CS.concretizeF(V, parse("x < 4")), parse("x == 2"));
}

TEST_F(CubeSearchTest, TrueYieldsEmptyCube) {
  CubeSearch CS = make();
  Dnf D = CS.findF(preds({"x < 5"}), Ctx.trueE());
  ASSERT_EQ(D.size(), 1u);
  EXPECT_TRUE(D[0].empty());
}

TEST_F(CubeSearchTest, NoImplicantGivesEmptyDnf) {
  CubeSearch CS = make();
  // Nothing about y follows from predicates about x.
  Dnf D = CS.findF(preds({"x < 5"}), parse("y > 0"));
  EXPECT_TRUE(D.empty());
  EXPECT_TRUE(CS.concretizeF(preds({"x < 5"}), parse("y > 0"))->isFalse());
}

TEST_F(CubeSearchTest, ConjunctionNeedsLongerCube) {
  // Figure 2: F(*p + x <= 0) over {*p <= 0, x == 0, r == 0} is the
  // two-literal cube {*p <= 0} && {x == 0}.
  CubeSearch CS = make();
  auto V = preds({"*p <= 0", "x == 0", "r == 0"});
  Dnf D = CS.findF(V, parse("*p + x <= 0"));
  ASSERT_EQ(D.size(), 1u);
  ASSERT_EQ(D[0].size(), 2u);
  EXPECT_EQ(D[0][0].Var, 0);
  EXPECT_TRUE(D[0][0].Positive);
  EXPECT_EQ(D[0][1].Var, 1);
  EXPECT_TRUE(D[0][1].Positive);
  // And the negative side: !(*p <= 0) && x == 0.
  Dnf DN = CS.findF(V, parse("!(*p + x <= 0)"));
  ASSERT_EQ(DN.size(), 1u);
  ASSERT_EQ(DN[0].size(), 2u);
  EXPECT_FALSE(DN[0][0].Positive);
  EXPECT_TRUE(DN[0][1].Positive);
}

TEST_F(CubeSearchTest, PrimeImplicantsOnly) {
  // phi = x < 5 with V = {x < 5, x == 2}: the prime implicant {x<5}
  // subsumes {x<5, x==2}.
  CubeSearch CS = make();
  auto V = preds({"x < 5", "x == 2"});
  Dnf D = CS.findF(V, parse("x < 5"));
  ASSERT_EQ(D.size(), 1u);
  EXPECT_EQ(D[0].size(), 1u);
}

TEST_F(CubeSearchTest, DisjunctionOfImplicants) {
  // Both x == 1 and x == 2 imply x >= 1 (with x <= 9 irrelevant).
  CubeSearch CS = make();
  auto V = preds({"x == 1", "x == 2", "y == 7"});
  Dnf D = CS.findF(V, parse("x >= 1"));
  // Expect at least the two positive singleton cubes.
  int Singles = 0;
  for (const Cube &C : D)
    if (C.size() == 1 && C[0].Positive && C[0].Var <= 1)
      ++Singles;
  EXPECT_EQ(Singles, 2);
}

TEST_F(CubeSearchTest, FalseFindsContradictions) {
  // The enforce computation: mutually exclusive predicates.
  CubeSearch CS = make();
  auto V = preds({"x == 1", "x == 2"});
  Dnf D = CS.findContradictions(V);
  EXPECT_TRUE(CS.findF(V, Ctx.falseE()).empty());
  ASSERT_EQ(D.size(), 1u);
  ASSERT_EQ(D[0].size(), 2u);
  EXPECT_TRUE(D[0][0].Positive);
  EXPECT_TRUE(D[0][1].Positive);
}

TEST_F(CubeSearchTest, MaxCubeLengthTrades) {
  CubeSearchOptions Short;
  Short.MaxCubeLength = 1;
  CubeSearch CS = make(Short);
  auto V = preds({"*p <= 0", "x == 0"});
  // Needs a 2-cube; with k=1 nothing is found (precision loss).
  EXPECT_TRUE(CS.findF(V, parse("*p + x <= 0")).empty());
  CubeSearch Full = make();
  EXPECT_FALSE(Full.findF(V, parse("*p + x <= 0")).empty());
}

TEST_F(CubeSearchTest, ConeOfInfluenceSavesQueries) {
  // Only the predicates over x can matter to x < 4, so the search over
  // all five checks the cubes of a search over those two alone.
  auto V = preds({"x < 5", "x == 2", "a == 1", "b == 2", "c == 3"});
  CubeSearch CS = make();
  EXPECT_EQ(CS.coneOfInfluence(V, parse("x < 4")), (std::vector<int>{0, 1}));
  CS.findF(preds({"x < 5", "x == 2"}), parse("x < 4"));
  uint64_t InCone = cubesChecked();
  Dnf D = CS.findF(V, parse("x < 4"));
  EXPECT_EQ(cubesChecked() - InCone, InCone);
  ASSERT_EQ(D.size(), 1u);
  ASSERT_EQ(D[0].size(), 1u);
  EXPECT_EQ(D[0][0].Var, 1);
  EXPECT_TRUE(D[0][0].Positive);
}

/// The size of each predicate's cone among the predicates of \p W's
/// procedure \p Proc, under the workload's points-to oracle.
std::vector<size_t> coneSizes(const workloads::Workload &W,
                              const std::string &Proc) {
  logic::LogicContext Ctx;
  DiagnosticEngine Diags;
  auto P = cfront::frontend(W.Source, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.str();
  auto Preds = parsePredicateFile(Ctx, W.Predicates, Diags);
  EXPECT_TRUE(Preds.has_value()) << Diags.str();
  if (!P || !Preds)
    return {};
  alias::PointsTo PT(*P);
  alias::ProgramAliasOracle Oracle(PT, *P, P->findFunction(Proc));
  prover::Prover Prover(Ctx);
  CubeSearch CS(Ctx, Prover, Oracle, CubeSearchOptions());
  const std::vector<ExprRef> &V = Preds->forProc(Proc);
  std::vector<size_t> Sizes;
  for (ExprRef E : V)
    Sizes.push_back(CS.coneOfInfluence(V, E).size());
  return Sizes;
}

// Section 5.2: the cone keeps kmp's searches small, but in reverse every
// pointer may alias every other, so each predicate's cone is all of
// mark's predicates ("reverse defeats COI", EXPERIMENTS.md).
TEST(CubeSearchCone, ReverseDefeatsTheConeAndKmpDoesNot) {
  std::vector<size_t> Reverse = coneSizes(workloads::reverseWorkload(), "mark");
  EXPECT_EQ(Reverse, std::vector<size_t>(7, 7));
  std::vector<size_t> Kmp = coneSizes(workloads::kmpWorkload(), "kmpsearch");
  ASSERT_EQ(Kmp.size(), 6u);
  for (size_t Size : Kmp)
    EXPECT_LT(Size, 6u);
  // i >= 0 is alone; the five predicates over j and m share one cone.
  EXPECT_EQ(Kmp, (std::vector<size_t>{1, 5, 5, 5, 5, 5}));
}

TEST_F(CubeSearchTest, SyntacticFastPathNeedsNoProver) {
  auto V = preds({"x < 5", "x == 2"});
  CubeSearch CS = make();
  Dnf D = CS.findF(V, parse("x == 2"));
  ASSERT_EQ(D.size(), 1u);
  EXPECT_EQ(D[0][0].Var, 1);
  EXPECT_EQ(cubesChecked(), 0u);
  // Negation fast path.
  Dnf DN = CS.findF(V, parse("x != 2"));
  ASSERT_EQ(DN.size(), 1u);
  EXPECT_FALSE(DN[0][0].Positive);
  EXPECT_EQ(cubesChecked(), 0u);
}

TEST_F(CubeSearchTest, CachingAvoidsRecomputation) {
  // A repeated search enumerates its cubes again, but every implication
  // it checks is answered from the prover cache.
  auto V = preds({"x < 5", "x == 2"});
  CubeSearch CS = make();
  Dnf First = CS.findF(V, parse("x < 4"));
  uint64_t Calls = Stats.get("prover.calls");
  uint64_t Hits = Stats.get("prover.cache_hits");
  EXPECT_GT(Calls, 0u);
  EXPECT_EQ(CS.findF(V, parse("x < 4")), First);
  EXPECT_EQ(Stats.get("prover.calls"), Calls);
  EXPECT_GT(Stats.get("prover.cache_hits"), Hits);
}

TEST_F(CubeSearchTest, GViaConcretization) {
  // G_V(phi) = !E(F_V(!phi)): with V = {x < 5}, G(x < 7) is true
  // (nothing over V implies x >= 7), while G(x < 5) is {x < 5}.
  CubeSearch CS = make();
  auto V = preds({"x < 5"});
  EXPECT_TRUE(CS.concretizeF(V, parse("!(x < 7)"))->isFalse());
  EXPECT_EQ(CS.concretizeF(V, parse("x < 5")), parse("x < 5"));
}

TEST(CubeSearchDeterminism, IdenticalDnfsAcrossInstancesAndContexts) {
  // Regression: the result cache used to key on raw ExprRef pointers,
  // so its ordering (and with it any behavior derived from iteration)
  // depended on allocation addresses. Keys are now stable hash-consed
  // ids. Run the same query battery in two contexts whose arenas are
  // skewed so equal predicates get different ids and addresses, and
  // demand literally identical DNFs.
  auto RunBattery = [](int Skew) {
    logic::LogicContext Ctx;
    DiagnosticEngine Diags;
    for (int I = 0; I != Skew; ++I)
      (void)c2bp::parseExpr(Ctx, "skew" + std::to_string(I) + " == 0",
                             Diags);
    prover::Prover P(Ctx);
    logic::ShapeAliasOracle Oracle;
    CubeSearch CS(Ctx, P, Oracle, CubeSearchOptions(), nullptr);
    std::vector<ExprRef> V;
    for (const char *T : {"x < 5", "x == 2", "*p <= 0", "x == 0", "y == 7"})
      V.push_back(c2bp::parseExpr(Ctx, T, Diags));
    std::vector<Dnf> Out;
    for (const char *Q :
         {"x < 4", "*p + x <= 0", "x >= 1", "!(x < 5)", "x < 4"})
      Out.push_back(CS.findF(V, c2bp::parseExpr(Ctx, Q, Diags)));
    Out.push_back(CS.findContradictions(V));
    return Out;
  };

  std::vector<Dnf> A = RunBattery(0);
  std::vector<Dnf> B = RunBattery(137);
  ASSERT_EQ(A.size(), B.size());
  for (size_t Q = 0; Q != A.size(); ++Q) {
    ASSERT_EQ(A[Q].size(), B[Q].size()) << "query " << Q;
    for (size_t C = 0; C != A[Q].size(); ++C) {
      ASSERT_EQ(A[Q][C].size(), B[Q][C].size()) << "query " << Q;
      for (size_t L = 0; L != A[Q][C].size(); ++L) {
        EXPECT_EQ(A[Q][C][L].Var, B[Q][C][L].Var) << "query " << Q;
        EXPECT_EQ(A[Q][C][L].Positive, B[Q][C][L].Positive)
            << "query " << Q;
      }
    }
  }
}

// Property sweep: for every found implicant cube c, the prover agrees
// E(c) => phi, across a family of bound predicates.
class CubeSoundness : public CubeSearchTest,
                      public ::testing::WithParamInterface<int> {};

TEST_P(CubeSoundness, ImplicantsReallyImply) {
  int K = GetParam();
  auto V = preds({"x < " + std::to_string(K), "x == " + std::to_string(K - 2),
                  "x > " + std::to_string(K + 3)});
  ExprRef Phi = parse("x < " + std::to_string(K + 1));
  CubeSearch CS = make();
  for (const Cube &C : CS.findF(V, Phi)) {
    ExprRef EC = CS.concretize(V, C);
    EXPECT_EQ(P.implies(EC, Phi), prover::Validity::Valid)
        << EC->str() << " => " << Phi->str();
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, CubeSoundness,
                         ::testing::Values(-3, 0, 2, 7, 50));

} // namespace
