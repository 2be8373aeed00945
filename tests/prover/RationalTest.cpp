//===- RationalTest.cpp ----------------------------------------------------===//

#include "prover/Rational.h"

#include <gtest/gtest.h>

using namespace slam::prover;

TEST(Rational, NormalizesOnConstruction) {
  Rational R(6, 4);
  EXPECT_EQ(R.num(), 3);
  EXPECT_EQ(R.den(), 2);
  Rational N(3, -6);
  EXPECT_EQ(N.num(), -1);
  EXPECT_EQ(N.den(), 2);
}

TEST(Rational, Arithmetic) {
  Rational Half(1, 2), Third(1, 3);
  EXPECT_EQ(Half + Third, Rational(5, 6));
  EXPECT_EQ(Half - Third, Rational(1, 6));
  EXPECT_EQ(Half * Third, Rational(1, 6));
  EXPECT_EQ(Half / Third, Rational(3, 2));
  EXPECT_EQ(-Half, Rational(-1, 2));
}

TEST(Rational, Comparison) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_EQ(Rational(0), Rational(0, 5));
}

TEST(Rational, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(7, 2).ceil(), 4);
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational(4).floor(), 4);
  EXPECT_EQ(Rational(4).ceil(), 4);
}

TEST(Rational, IntegerPredicate) {
  EXPECT_TRUE(Rational(8, 4).isInteger());
  EXPECT_FALSE(Rational(8, 3).isInteger());
}

TEST(Rational, Printing) {
  EXPECT_EQ(Rational(3).str(), "3");
  EXPECT_EQ(Rational(-7, 2).str(), "-7/2");
}

TEST(Rational, OverflowPoisonFromArithmetic) {
  // INT64_MAX/2 * 3 does not fit; the product must poison, not truncate.
  Rational Big(INT64_MAX / 2);
  Rational P = Big * Rational(3);
  EXPECT_TRUE(P.isOverflow());
  EXPECT_FALSE(P.isZero());
  EXPECT_EQ(P.str(), "overflow");

  // Addition of same-sign huge values.
  EXPECT_TRUE((Big + Big + Big).isOverflow());

  // Negating INT64_MIN has no 64-bit representation.
  EXPECT_TRUE((-Rational(INT64_MIN)).isOverflow());

  // Huge denominators that cannot cancel poison too.
  Rational Tiny(1, INT64_MAX);
  EXPECT_TRUE((Tiny * Tiny).isOverflow());
}

TEST(Rational, IntegerFastPathsOverflowToPoison) {
  EXPECT_TRUE((Rational(INT64_MAX) + Rational(1)).isOverflow());
  EXPECT_TRUE((Rational(INT64_MIN) * Rational(-1)).isOverflow());
  EXPECT_TRUE((Rational(INT64_MIN) + Rational(-1)).isOverflow());
  EXPECT_EQ(Rational(INT64_MAX) + Rational(INT64_MIN), Rational(-1));
  EXPECT_EQ(Rational(INT64_MIN / 2) * Rational(2), Rational(INT64_MIN));
  EXPECT_TRUE(Rational(INT64_MIN) < Rational(INT64_MAX));
  EXPECT_FALSE(Rational(3) < Rational(3));
}

TEST(Rational, OverflowPoisonIsSticky) {
  Rational P = Rational::overflow();
  EXPECT_TRUE((P + Rational(1)).isOverflow());
  EXPECT_TRUE((Rational(1) + P).isOverflow());
  EXPECT_TRUE((P - P).isOverflow());
  EXPECT_TRUE((P * Rational(0)).isOverflow());
  EXPECT_TRUE((Rational(1) / P).isOverflow());
  EXPECT_TRUE((-P).isOverflow());
  Rational Acc(5);
  Acc += P;
  EXPECT_TRUE(Acc.isOverflow());
}

TEST(Rational, OverflowDoesNotFireInRange) {
  // Values at the edge of the range are still exact.
  Rational Max(INT64_MAX);
  EXPECT_EQ(Max + Rational(0), Max);
  EXPECT_EQ((Max / Max), Rational(1));
  EXPECT_FALSE((Max - Rational(1)).isOverflow());
  Rational Min(INT64_MIN);
  EXPECT_FALSE((Min + Rational(1)).isOverflow());
  EXPECT_EQ(Min * Rational(1), Min);
}

TEST(Rational, DivideAssign) {
  Rational R(3, 2);
  R /= Rational(3);
  EXPECT_EQ(R, Rational(1, 2));
  R /= Rational(1, 4);
  EXPECT_EQ(R, Rational(2));
}
