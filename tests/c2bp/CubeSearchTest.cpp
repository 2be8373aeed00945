//===- CubeSearchTest.cpp - F_V / G_V (Section 4.1, 5.2) --------------------===//

#include "c2bp/CubeSearch.h"

#include "c2bp/CExprToLogic.h"

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
  auto V = preds({"x < 5", "x == 2", "a == 1", "b == 2", "c == 3"});
  CubeSearchOptions NoCone;
  NoCone.ConeOfInfluence = false;
  CubeSearch CS1 = make(NoCone);
  CS1.findF(V, parse("x < 4"));
  uint64_t Without = cubesChecked();

  CubeSearch CS2 = make();
  Dnf D = CS2.findF(V, parse("x < 4"));
  uint64_t With = cubesChecked() - Without;
  EXPECT_LT(With, Without);
  // Same result.
  ASSERT_EQ(D.size(), 1u);
  EXPECT_EQ(D[0][0].Var, 1);
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
