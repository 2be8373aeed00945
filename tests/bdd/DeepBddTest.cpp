//===- DeepBddTest.cpp - deep-diagram stack-safety regression --------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Regression for the recursion-depth failure class (the skeleton encoder
// hit the same one in PR 1): every BDD operator must survive a diagram
// whose longest path is >= 100k nodes. The recursive implementations
// this replaced overflowed the C stack here; the explicit-worklist
// versions must not.
//
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"

#include <gtest/gtest.h>

using namespace slam::bdd;

namespace {

constexpr int ChainVars = 120000;

/// Conjunction of the positive literals of every \p Step-th var from
/// \p First below ChainVars. Built bottom-up (descending variable order)
/// so each conjunction step is O(1) instead of re-walking the chain.
Node conjunction(BddManager &M, int First, int Step) {
  Node R = BddManager::True;
  for (int V = ChainVars - 1; V >= First; --V)
    if ((V - First) % Step == 0)
      R = M.mkAnd(M.varNode(V), R);
  return R;
}

/// The conjunction of vars 0..ChainVars-1 — one path of ChainVars nodes.
Node buildChain(BddManager &M, int Extra = 0) {
  for (int V = 0; V != ChainVars + Extra; ++V)
    M.newVar();
  return conjunction(M, 0, 1);
}

TEST(DeepBdd, OperatorsSurviveHundredThousandNodeChains) {
  BddManager M;
  Node Chain = buildChain(M, /*Extra=*/1);

  // eval along the full path, and off it.
  std::map<int, bool> AllTrue;
  for (int V = 0; V != ChainVars; ++V)
    AllTrue[V] = true;
  EXPECT_TRUE(M.eval(Chain, AllTrue));
  AllTrue[ChainVars / 2] = false;
  EXPECT_FALSE(M.eval(Chain, AllTrue));

  // forEachCube enumerates the single full-length cube.
  int Cubes = 0;
  M.forEachCube(Chain, [&](const std::map<int, bool> &Cube) {
    ++Cubes;
    EXPECT_EQ(Cube.size(), static_cast<size_t>(ChainVars));
  });
  EXPECT_EQ(Cubes, 1);

  // mkNot drives a full-depth mkIte.
  Node NotChain = M.mkNot(Chain);
  EXPECT_EQ(M.mkOr(Chain, NotChain), BddManager::True);
  EXPECT_EQ(M.mkAnd(Chain, NotChain), BddManager::False);
  EXPECT_EQ(M.mkXor(Chain, NotChain), BddManager::True);

  // Order-preserving rename of every level by +1.
  std::map<int, int> Shift;
  for (int V = 0; V != ChainVars; ++V)
    Shift[V] = V + 1;
  Node Shifted = M.rename(Chain, M.renaming(Shift));
  std::map<int, int> Back;
  for (int V = 0; V != ChainVars; ++V)
    Back[V + 1] = V;
  EXPECT_EQ(M.rename(Shifted, M.renaming(Back)), Chain);

  // Quantifying every variable collapses the cube to True.
  std::vector<int> All;
  for (int V = 0; V != ChainVars; ++V)
    All.push_back(V);
  EXPECT_EQ(M.exists(Chain, M.varSet(All)), BddManager::True);
}

TEST(DeepBdd, AndExistsSurvivesDeepOperands) {
  // Fused relational product over two interleaved half-chains whose
  // conjunction is the full 120k-level cube.
  BddManager M;
  for (int V = 0; V != ChainVars; ++V)
    M.newVar();
  Node E = conjunction(M, 0, 2);
  Node O = conjunction(M, 1, 2);

  std::vector<int> All;
  for (int V = 0; V != ChainVars; ++V)
    All.push_back(V);
  EXPECT_EQ(M.andExists(E, O, M.varSet(All)), BddManager::True);

  // Quantify only the odd half: the even half-chain remains.
  std::vector<int> OddVars;
  for (int V = 1; V < ChainVars; V += 2)
    OddVars.push_back(V);
  EXPECT_EQ(M.andExists(E, O, M.varSet(OddVars)), E);
}

} // namespace
