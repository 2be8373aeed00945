//===- BddTest.cpp - ROBDD algebra, incl. truth-table oracle ---------------===//

#include "bdd/Bdd.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace slam;
using namespace slam::bdd;

namespace {

class BddTest : public ::testing::Test {
protected:
  BddTest() {
    for (int I = 0; I != 5; ++I)
      V.push_back(M.newVar());
  }
  BddManager M;
  std::vector<int> V;
};

TEST_F(BddTest, TerminalIdentities) {
  Node A = M.varNode(V[0]);
  EXPECT_EQ(M.mkAnd(A, BddManager::True), A);
  EXPECT_EQ(M.mkAnd(A, BddManager::False), BddManager::False);
  EXPECT_EQ(M.mkOr(A, BddManager::False), A);
  EXPECT_EQ(M.mkOr(A, BddManager::True), BddManager::True);
  EXPECT_EQ(M.mkNot(M.mkNot(A)), A);
}

TEST_F(BddTest, CanonicityGivesEquality) {
  Node A = M.varNode(V[0]), B = M.varNode(V[1]);
  EXPECT_EQ(M.mkAnd(A, B), M.mkAnd(B, A));
  EXPECT_EQ(M.mkOr(A, B), M.mkNot(M.mkAnd(M.mkNot(A), M.mkNot(B))));
  Node C = M.varNode(V[2]);
  EXPECT_EQ(M.mkAnd(M.mkAnd(A, B), C), M.mkAnd(A, M.mkAnd(B, C)));
}

TEST_F(BddTest, ContradictionAndTautology) {
  Node A = M.varNode(V[0]);
  EXPECT_EQ(M.mkAnd(A, M.mkNot(A)), BddManager::False);
  EXPECT_EQ(M.mkOr(A, M.mkNot(A)), BddManager::True);
}

TEST_F(BddTest, Quantification) {
  // exists v1. (v0 && v1) == v0.
  Node F = M.mkAnd(M.varNode(V[0]), M.varNode(V[1]));
  EXPECT_EQ(M.exists(F, M.varSet({V[1]})), M.varNode(V[0]));
  // exists over everything: sat <=> not false.
  EXPECT_EQ(M.exists(F, M.varSet(V)), BddManager::True);
}

TEST_F(BddTest, RenameShiftsRails) {
  // Map even "current" vars to odd "shadow" vars: v0->v1, v2->v3.
  Node F = M.mkAnd(M.varNode(V[0]), M.mkNot(M.varNode(V[2])));
  Node R = M.rename(F, M.renaming({{V[0], V[1]}, {V[2], V[3]}}));
  EXPECT_EQ(R, M.mkAnd(M.varNode(V[1]), M.mkNot(M.varNode(V[3]))));
  // Renaming back round-trips.
  EXPECT_EQ(M.rename(R, M.renaming({{V[1], V[0]}, {V[3], V[2]}})), F);
}

TEST_F(BddTest, CubesPartitionTheOnSet) {
  Node F = M.mkOr(M.mkAnd(M.varNode(V[0]), M.varNode(V[1])),
                  M.mkAnd(M.mkNot(M.varNode(V[0])), M.varNode(V[2])));
  double Count = 0;
  M.forEachCube(F, [&](const std::map<int, bool> &Cube) {
    EXPECT_TRUE(M.eval(F, Cube));
    Count += std::pow(2.0, 3 - static_cast<int>(Cube.size()));
  });
  double OnSet = 0;
  for (int A = 0; A != 8; ++A)
    OnSet += M.eval(F, {{V[0], (A & 1) != 0},
                        {V[1], (A & 2) != 0},
                        {V[2], (A & 4) != 0}});
  EXPECT_EQ(Count, OnSet);
}

// Shared nodes count once, terminals included, and the count of a
// function does not depend on what else its manager has built.
TEST_F(BddTest, NodeCountIsPerFunctionNotPerManager) {
  Node A = M.varNode(V[0]), B = M.varNode(V[1]);
  Node AB = M.mkAnd(A, B);
  EXPECT_EQ(M.nodeCount({}), 0u);
  EXPECT_EQ(M.nodeCount({BddManager::False}), 1u);
  EXPECT_EQ(M.nodeCount({AB}), 4u);       // v0, v1 and both terminals.
  EXPECT_EQ(M.nodeCount({AB, B, AB}), 4u); // v1 is AB's high child.
  Node X = M.mkXor(A, M.varNode(V[2]));
  // v0 tests v2 on both sides, with opposite polarities.
  EXPECT_EQ(M.nodeCount({X}), 5u);

  BddManager Other;
  for (int I = 0; I != 5; ++I)
    Other.newVar();
  Other.mkOr(Other.varNode(V[3]), Other.varNode(V[4])); // Unrelated work.
  Node OX = Other.mkXor(Other.varNode(V[0]), Other.varNode(V[2]));
  EXPECT_NE(Other.numNodes(), M.numNodes());
  EXPECT_EQ(Other.nodeCount({OX}), M.nodeCount({X}));
}

// Counting between growths of the manager: every count starts afresh
// (a mark left by an earlier count would hide a node) and covers the
// nodes built since.
TEST_F(BddTest, NodeCountIsExactAsTheManagerGrows) {
  Node First = M.mkXor(M.varNode(V[0]), M.varNode(V[1]));
  const size_t FirstCount = M.nodeCount({First});
  ASSERT_EQ(FirstCount, 5u);
  Node Chain = BddManager::True;
  for (int I = 0; I != 200; ++I) {
    int Var = M.newVar();
    Chain = M.mkAnd(Chain, M.varNode(Var)); // One new node per variable.
    EXPECT_EQ(M.nodeCount({Chain}), static_cast<size_t>(I) + 3);
    EXPECT_EQ(M.nodeCount({First}), FirstCount);
    EXPECT_EQ(M.nodeCount({First, Chain}), static_cast<size_t>(I) + 6);
  }
}

//===----------------------------------------------------------------------===//
// Property test: random 4-variable formulas against a truth-table oracle.
//===----------------------------------------------------------------------===//

struct Rng {
  uint64_t State;
  uint32_t next() {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return static_cast<uint32_t>(State >> 32);
  }
};

/// A formula is evaluated both as a BDD and as a 16-row truth table.
struct RandomFormula {
  Node Bdd;
  uint16_t Table; // Bit i = value under assignment i (v0..v3 = bits).
};

RandomFormula randomFormula(BddManager &M, const std::vector<int> &V,
                            Rng &R, int Depth) {
  static const uint16_t VarTables[4] = {0xAAAA, 0xCCCC, 0xF0F0, 0xFF00};
  if (Depth == 0 || R.next() % 4 == 0) {
    int I = R.next() % 4;
    return {M.varNode(V[I]), VarTables[I]};
  }
  switch (R.next() % 3) {
  case 0: {
    RandomFormula A = randomFormula(M, V, R, Depth - 1);
    return {M.mkNot(A.Bdd), static_cast<uint16_t>(~A.Table)};
  }
  case 1: {
    RandomFormula A = randomFormula(M, V, R, Depth - 1);
    RandomFormula B = randomFormula(M, V, R, Depth - 1);
    return {M.mkAnd(A.Bdd, B.Bdd),
            static_cast<uint16_t>(A.Table & B.Table)};
  }
  default: {
    RandomFormula A = randomFormula(M, V, R, Depth - 1);
    RandomFormula B = randomFormula(M, V, R, Depth - 1);
    return {M.mkOr(A.Bdd, B.Bdd),
            static_cast<uint16_t>(A.Table | B.Table)};
  }
  }
}

class BddOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(BddOracleTest, MatchesTruthTable) {
  BddManager M;
  std::vector<int> V;
  for (int I = 0; I != 4; ++I)
    V.push_back(M.newVar());
  Rng R{static_cast<uint64_t>(GetParam()) * 2654435761u + 1};

  RandomFormula F = randomFormula(M, V, R, 5);
  for (int A = 0; A != 16; ++A) {
    std::map<int, bool> Assign;
    for (int I = 0; I != 4; ++I)
      Assign[V[I]] = (A >> I) & 1;
    bool Expected = (F.Table >> A) & 1;
    EXPECT_EQ(M.eval(F.Bdd, Assign), Expected)
        << "assignment " << A << " seed " << GetParam();
  }
  // Quantification oracle: exists v0 F == F[v0=0] | F[v0=1].
  uint16_t Lo = 0, Hi = 0;
  for (int A = 0; A != 16; ++A) {
    if (!((A >> 0) & 1)) {
      int Bit = (F.Table >> A) & 1;
      int Partner = (F.Table >> (A | 1)) & 1;
      uint16_t Or = Bit | Partner;
      Lo |= Or << A;
      Hi |= Or << (A | 1);
    }
  }
  uint16_t ExTable = Lo | Hi;
  Node Ex = M.exists(F.Bdd, M.varSet({V[0]}));
  for (int A = 0; A != 16; ++A) {
    std::map<int, bool> Assign;
    for (int I = 0; I != 4; ++I)
      Assign[V[I]] = (A >> I) & 1;
    EXPECT_EQ(M.eval(Ex, Assign), static_cast<bool>((ExTable >> A) & 1));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomFormulas, BddOracleTest,
                         ::testing::Range(0, 25));

} // namespace
