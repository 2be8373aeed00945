//===- DifferentialBddTest.cpp - BDD engine vs truth-table oracle ----------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Differential test for the BDD engine: random formulas over 8 variables
// are built twice — once as BDDs, once as 256-bit truth tables — and
// every operator (mkIte, mkAnd/mkOr/mkXor, exists, andExists) is
// checked against the brute-force oracle, by eval over every
// assignment, on every step. Hash-consing makes BDD equality integer equality, so a
// single wrong cache hit or a broken canonicalization rule shows up as
// a truth-table mismatch.
//
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"

#include <gtest/gtest.h>

#include <array>
#include <random>

using namespace slam::bdd;

namespace {

constexpr int NumVars = 8;
constexpr int NumAssignments = 1 << NumVars; // 256.

/// A complete truth table over NumVars variables: bit i holds the value
/// of the function under the assignment where variable v reads bit v of
/// i. 256 bits = four 64-bit words.
struct Table {
  std::array<uint64_t, 4> W{};

  bool get(int I) const { return (W[I >> 6] >> (I & 63)) & 1; }
  void set(int I, bool B) {
    if (B)
      W[I >> 6] |= uint64_t(1) << (I & 63);
  }

  static Table constant(bool B) {
    Table T;
    if (B)
      T.W = {~0ull, ~0ull, ~0ull, ~0ull};
    return T;
  }

  static Table var(int V) {
    Table T;
    for (int I = 0; I != NumAssignments; ++I)
      T.set(I, (I >> V) & 1);
    return T;
  }

  Table operator&(const Table &O) const {
    Table T;
    for (int I = 0; I != 4; ++I)
      T.W[I] = W[I] & O.W[I];
    return T;
  }
  Table operator|(const Table &O) const {
    Table T;
    for (int I = 0; I != 4; ++I)
      T.W[I] = W[I] | O.W[I];
    return T;
  }
  Table operator^(const Table &O) const {
    Table T;
    for (int I = 0; I != 4; ++I)
      T.W[I] = W[I] ^ O.W[I];
    return T;
  }
  Table operator~() const {
    Table T;
    for (int I = 0; I != 4; ++I)
      T.W[I] = ~W[I];
    return T;
  }

  static Table ite(const Table &F, const Table &G, const Table &H) {
    return (F & G) | (~F & H);
  }

  Table restrict(int Var, bool Value) const {
    Table T;
    for (int I = 0; I != NumAssignments; ++I) {
      int J = Value ? (I | (1 << Var)) : (I & ~(1 << Var));
      T.set(I, get(J));
    }
    return T;
  }

  Table exists(const std::vector<int> &Vars) const {
    Table T = *this;
    for (int V : Vars)
      T = T.restrict(V, false) | T.restrict(V, true);
    return T;
  }
};

std::map<int, bool> assignmentOf(int I) {
  std::map<int, bool> A;
  for (int V = 0; V != NumVars; ++V)
    A[V] = (I >> V) & 1;
  return A;
}

/// Checks that BDD \p F computes exactly the oracle table \p T.
void expectMatch(BddManager &M, Node F, const Table &T,
                 const char *What) {
  for (int I = 0; I != NumAssignments; ++I)
    ASSERT_EQ(M.eval(F, assignmentOf(I)), T.get(I))
        << What << " differs at assignment " << I;
}

TEST(DifferentialBdd, RandomFormulasMatchTruthTables) {
  BddManager M;
  for (int V = 0; V != NumVars; ++V)
    M.newVar();

  std::mt19937 Rng(12345);
  auto Rand = [&Rng](int N) {
    return std::uniform_int_distribution<int>(0, N - 1)(Rng);
  };
  auto randVarSet = [&]() {
    std::vector<int> Vars;
    for (int V = 0; V != NumVars; ++V)
      if (Rand(2))
        Vars.push_back(V);
    return Vars;
  };

  // Pool of (BDD, oracle) pairs, seeded with terminals and literals.
  std::vector<std::pair<Node, Table>> Pool;
  Pool.push_back({BddManager::False, Table::constant(false)});
  Pool.push_back({BddManager::True, Table::constant(true)});
  for (int V = 0; V != NumVars; ++V) {
    Pool.push_back({M.varNode(V), Table::var(V)});
    Pool.push_back({M.mkNot(M.varNode(V)), ~Table::var(V)});
  }

  for (int Step = 0; Step != 600; ++Step) {
    const auto &[FA, TA] = Pool[Rand(static_cast<int>(Pool.size()))];
    const auto &[FB, TB] = Pool[Rand(static_cast<int>(Pool.size()))];
    const auto &[FC, TC] = Pool[Rand(static_cast<int>(Pool.size()))];
    Node R = BddManager::False;
    Table T;
    const char *What = "";
    switch (Rand(7)) {
    case 0:
      R = M.mkIte(FA, FB, FC);
      T = Table::ite(TA, TB, TC);
      What = "mkIte";
      break;
    case 1:
      R = M.mkAnd(FA, FB);
      T = TA & TB;
      What = "mkAnd";
      break;
    case 2:
      R = M.mkOr(FA, FB);
      T = TA | TB;
      What = "mkOr";
      break;
    case 3:
      R = M.mkXor(FA, FB);
      T = TA ^ TB;
      What = "mkXor";
      break;
    case 4:
      R = M.mkNot(FA);
      T = ~TA;
      What = "mkNot";
      break;
    case 5: {
      std::vector<int> Vars = randVarSet();
      R = M.exists(FA, M.varSet(Vars));
      T = TA.exists(Vars);
      What = "exists";
      break;
    }
    case 6: {
      std::vector<int> Vars = randVarSet();
      R = M.andExists(FA, FB, M.varSet(Vars));
      T = (TA & TB).exists(Vars);
      What = "andExists";
      break;
    }
    }
    expectMatch(M, R, T, What);

    // The fused operator must agree with its unfused spelling exactly
    // (both are canonical nodes, so equality is integer equality).
    if (Step % 7 == 0) {
      VarSet Vars = M.varSet(randVarSet());
      EXPECT_EQ(M.andExists(FA, FB, Vars),
                M.exists(M.mkAnd(FA, FB), Vars));
      // A repeated or True conjunct leaves plain quantification.
      Node Ex = M.exists(FA, Vars);
      EXPECT_EQ(M.andExists(FA, FA, Vars), Ex);
      EXPECT_EQ(M.andExists(BddManager::True, FA, Vars), Ex);
      EXPECT_EQ(M.andExists(FA, BddManager::True, Vars), Ex);
    }

    Pool.push_back({R, T});
  }
}

TEST(DifferentialBdd, RenameMatchesShiftedOracle) {
  // Build random functions over vars 0..7 in a 16-var manager, rename
  // every variable up by 8, and check the result against the oracle
  // under correspondingly shifted assignments.
  BddManager M;
  for (int V = 0; V != 2 * NumVars; ++V)
    M.newVar();
  std::mt19937 Rng(99);
  auto Rand = [&Rng](int N) {
    return std::uniform_int_distribution<int>(0, N - 1)(Rng);
  };

  std::vector<std::pair<Node, Table>> Pool;
  for (int V = 0; V != NumVars; ++V)
    Pool.push_back({M.varNode(V), Table::var(V)});
  for (int Step = 0; Step != 60; ++Step) {
    const auto &[FA, TA] = Pool[Rand(static_cast<int>(Pool.size()))];
    const auto &[FB, TB] = Pool[Rand(static_cast<int>(Pool.size()))];
    bool UseAnd = Rand(2) != 0;
    Node R = UseAnd ? M.mkAnd(FA, FB) : M.mkXor(FA, FB);
    Table T = UseAnd ? TA & TB : TA ^ TB;
    Pool.push_back({R, T});

    std::map<int, int> Shift;
    for (int V = 0; V != NumVars; ++V)
      Shift[V] = V + NumVars;
    Node Renamed = M.rename(R, M.renaming(Shift));
    for (int I = 0; I != NumAssignments; ++I) {
      std::map<int, bool> A;
      for (int V = 0; V != NumVars; ++V)
        A[V + NumVars] = (I >> V) & 1;
      ASSERT_EQ(M.eval(Renamed, A), T.get(I));
    }
    // Round trip back down.
    std::map<int, int> Back;
    for (int V = 0; V != NumVars; ++V)
      Back[V + NumVars] = V;
    EXPECT_EQ(M.rename(Renamed, M.renaming(Back)), R);
  }
}

TEST(DifferentialBdd, CubeEnumerationCoversOnSet) {
  // forEachCube must partition the on-set: expanding every enumerated
  // cube recovers exactly the oracle's satisfying assignments.
  BddManager M;
  for (int V = 0; V != NumVars; ++V)
    M.newVar();
  std::mt19937 Rng(7);
  auto Rand = [&Rng](int N) {
    return std::uniform_int_distribution<int>(0, N - 1)(Rng);
  };
  for (int Trial = 0; Trial != 20; ++Trial) {
    Node F = BddManager::False;
    Table T;
    for (int K = 0; K != 6; ++K) {
      Node C = BddManager::True;
      Table TC = Table::constant(true);
      for (int V = 0; V != NumVars; ++V) {
        int Mode = Rand(3);
        if (Mode == 0) {
          C = M.mkAnd(C, M.varNode(V));
          TC = TC & Table::var(V);
        } else if (Mode == 1) {
          C = M.mkAnd(C, M.mkNot(M.varNode(V)));
          TC = TC & ~Table::var(V);
        }
      }
      F = M.mkOr(F, C);
      T = T | TC;
    }
    Table Covered;
    M.forEachCube(F, [&](const std::map<int, bool> &Cube) {
      for (int I = 0; I != NumAssignments; ++I) {
        bool In = true;
        for (const auto &[Var, Value] : Cube)
          In &= ((I >> Var) & 1) == Value;
        if (In) {
          EXPECT_FALSE(Covered.get(I)) << "cubes overlap at " << I;
          Covered.set(I, true);
        }
      }
    });
    for (int I = 0; I != NumAssignments; ++I)
      ASSERT_EQ(Covered.get(I), T.get(I));
  }
}

} // namespace
