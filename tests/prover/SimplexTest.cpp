//===- SimplexTest.cpp - LIA decision procedure ----------------------------===//

#include "prover/Simplex.h"

#include <gtest/gtest.h>

using namespace slam::prover;

namespace {

TEST(Simplex, TrivialBounds) {
  Simplex S;
  int X = S.newVar();
  EXPECT_TRUE(S.assertLower(X, Rational(3)));
  EXPECT_TRUE(S.assertUpper(X, Rational(5)));
  EXPECT_EQ(S.check(), LinResult::Sat);
  EXPECT_GE(S.value(X), Rational(3));
  EXPECT_LE(S.value(X), Rational(5));
}

TEST(Simplex, ImmediateBoundClash) {
  Simplex S;
  int X = S.newVar();
  EXPECT_TRUE(S.assertLower(X, Rational(5)));
  EXPECT_FALSE(S.assertUpper(X, Rational(3)));
}

TEST(Simplex, RowConstraintSat) {
  // x + y <= 4, x >= 2, y >= 1.
  Simplex S;
  int X = S.newVar(), Y = S.newVar();
  int Sum = S.defineVar({{X, Rational(1)}, {Y, Rational(1)}});
  EXPECT_TRUE(S.assertUpper(Sum, Rational(4)));
  EXPECT_TRUE(S.assertLower(X, Rational(2)));
  EXPECT_TRUE(S.assertLower(Y, Rational(1)));
  EXPECT_EQ(S.check(), LinResult::Sat);
  EXPECT_LE(S.value(X) + S.value(Y), Rational(4));
}

TEST(Simplex, RowConstraintUnsat) {
  // x + y <= 3, x >= 2, y >= 2.
  Simplex S;
  int X = S.newVar(), Y = S.newVar();
  int Sum = S.defineVar({{X, Rational(1)}, {Y, Rational(1)}});
  EXPECT_TRUE(S.assertUpper(Sum, Rational(3)));
  EXPECT_TRUE(S.assertLower(X, Rational(2)));
  EXPECT_TRUE(S.assertLower(Y, Rational(2)));
  EXPECT_EQ(S.check(), LinResult::Unsat);
}

TEST(Simplex, ChainOfInequalities) {
  // x < y < z < x is infeasible: encoded as x <= y-1 etc.
  Simplex S;
  int X = S.newVar(), Y = S.newVar(), Z = S.newVar();
  auto Less = [&S](int A, int B) {
    int D = S.defineVar({{A, Rational(1)}, {B, Rational(-1)}});
    return S.assertUpper(D, Rational(-1));
  };
  EXPECT_TRUE(Less(X, Y));
  EXPECT_TRUE(Less(Y, Z));
  EXPECT_TRUE(Less(Z, X));
  EXPECT_EQ(S.check(), LinResult::Unsat);
}

TEST(Simplex, IntegralityBranchAndBound) {
  // 2x = 3 has a rational solution but no integer one.
  Simplex S;
  int X = S.newVar(/*Integer=*/true);
  int Row = S.defineVar({{X, Rational(2)}});
  EXPECT_TRUE(S.assertLower(Row, Rational(3)));
  EXPECT_TRUE(S.assertUpper(Row, Rational(3)));
  EXPECT_EQ(S.check(), LinResult::Unsat);
}

TEST(Simplex, IntegralityFindsIntegerPoint) {
  // 2x + 2y = 4 with x,y in [0,2]: integer solutions exist.
  Simplex S;
  int X = S.newVar(), Y = S.newVar();
  int Row = S.defineVar({{X, Rational(2)}, {Y, Rational(2)}});
  EXPECT_TRUE(S.assertLower(Row, Rational(4)));
  EXPECT_TRUE(S.assertUpper(Row, Rational(4)));
  EXPECT_TRUE(S.assertLower(X, Rational(0)));
  EXPECT_TRUE(S.assertUpper(X, Rational(2)));
  EXPECT_TRUE(S.assertLower(Y, Rational(0)));
  EXPECT_TRUE(S.assertUpper(Y, Rational(2)));
  EXPECT_EQ(S.check(), LinResult::Sat);
  EXPECT_TRUE(S.value(X).isInteger());
  EXPECT_TRUE(S.value(Y).isInteger());
}

TEST(Simplex, RationalVarsSkipBranching) {
  // 2x = 3 is fine for a rational variable.
  Simplex S;
  int X = S.newVar(/*Integer=*/false);
  int Row = S.defineVar({{X, Rational(2)}});
  EXPECT_TRUE(S.assertLower(Row, Rational(3)));
  EXPECT_TRUE(S.assertUpper(Row, Rational(3)));
  EXPECT_EQ(S.check(), LinResult::Sat);
  EXPECT_EQ(S.value(X), Rational(3, 2));
}

TEST(Simplex, ProbesDoNotMutate) {
  Simplex S;
  int X = S.newVar();
  EXPECT_TRUE(S.assertLower(X, Rational(0)));
  EXPECT_TRUE(S.assertUpper(X, Rational(10)));
  EXPECT_EQ(S.check(), LinResult::Sat);
  // Probe x <= -1 is infeasible; x >= 5 is feasible.
  EXPECT_EQ(S.probeUpper({{X, Rational(1)}}, Rational(-1)), LinResult::Unsat);
  EXPECT_EQ(S.probeLower({{X, Rational(1)}}, Rational(5)), LinResult::Sat);
  // The original instance is untouched.
  EXPECT_EQ(S.check(), LinResult::Sat);
}

TEST(Simplex, EqualityEntailmentViaProbes) {
  // 3 <= x <= 3 entails x == 3: both probes x <= 2 and x >= 4 fail.
  Simplex S;
  int X = S.newVar();
  EXPECT_TRUE(S.assertLower(X, Rational(3)));
  EXPECT_TRUE(S.assertUpper(X, Rational(3)));
  EXPECT_EQ(S.probeUpper({{X, Rational(1)}}, Rational(2)), LinResult::Unsat);
  EXPECT_EQ(S.probeLower({{X, Rational(1)}}, Rational(4)), LinResult::Unsat);
}

TEST(Simplex, DenseSystem) {
  // A slightly larger feasible system exercising repeated pivoting:
  // sum of ten variables == 45, each in [0, 9], pairwise chain x_i <= x_{i+1}.
  Simplex S;
  std::vector<int> Vars;
  LinearExpr Sum;
  for (int I = 0; I != 10; ++I) {
    int V = S.newVar();
    Vars.push_back(V);
    Sum.push_back({V, Rational(1)});
    EXPECT_TRUE(S.assertLower(V, Rational(0)));
    EXPECT_TRUE(S.assertUpper(V, Rational(9)));
  }
  int Total = S.defineVar(Sum);
  EXPECT_TRUE(S.assertLower(Total, Rational(45)));
  EXPECT_TRUE(S.assertUpper(Total, Rational(45)));
  for (int I = 0; I + 1 != 10; ++I) {
    int D = S.defineVar({{Vars[I], Rational(1)}, {Vars[I + 1], Rational(-1)}});
    EXPECT_TRUE(S.assertUpper(D, Rational(0)));
  }
  EXPECT_EQ(S.check(), LinResult::Sat);
  Rational Acc(0);
  for (int V : Vars)
    Acc += S.value(V);
  EXPECT_EQ(Acc, Rational(45));
}

TEST(Simplex, OverflowPoisonsToUnknown) {
  // Assignment[Y] = 10^6 * X; pushing X near INT64_MAX/4 makes the
  // rippled update overflow 64 bits. The poisoned solver must answer
  // Unknown (in every build mode), never a truncated Sat/Unsat.
  Simplex S;
  int X = S.newVar();
  int Y = S.defineVar({{X, Rational(1000000)}});
  (void)Y;
  EXPECT_TRUE(S.assertLower(X, Rational(INT64_MAX / 4)));
  EXPECT_EQ(S.check(), LinResult::Unknown);
}

TEST(Simplex, OverflowPoisonsProbes) {
  Simplex S;
  int X = S.newVar();
  EXPECT_TRUE(S.assertLower(X, Rational(INT64_MAX / 4)));
  LinearExpr Huge;
  Huge.push_back({X, Rational(1000000)});
  EXPECT_EQ(S.probeUpper(Huge, Rational(0)), LinResult::Unknown);
  EXPECT_EQ(S.probeLower(Huge, Rational(0)), LinResult::Unknown);
}

TEST(Simplex, InRangeArithmeticStaysDecided) {
  // Large but representable coefficients still give exact answers.
  Simplex S;
  int X = S.newVar();
  int Y = S.defineVar({{X, Rational(1000000)}});
  EXPECT_TRUE(S.assertLower(X, Rational(1000000)));
  EXPECT_TRUE(S.assertUpper(Y, Rational(999999999999)));
  EXPECT_EQ(S.check(), LinResult::Unsat);
}

} // namespace
