//===- ExprTest.cpp - Interning and smart-constructor laws ----------------===//

#include "logic/Expr.h"
#include "support/ParallelFor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

using namespace slam::logic;

namespace {

class ExprTest : public ::testing::Test {
protected:
  LogicContext Ctx;
};

TEST_F(ExprTest, InterningGivesPointerEquality) {
  ExprRef A = Ctx.add(Ctx.var("x"), Ctx.intLit(1));
  ExprRef B = Ctx.add(Ctx.var("x"), Ctx.intLit(1));
  EXPECT_EQ(A, B);
  EXPECT_NE(A, Ctx.add(Ctx.var("x"), Ctx.intLit(2)));
}

TEST_F(ExprTest, ConstantFoldingArith) {
  EXPECT_EQ(Ctx.add(Ctx.intLit(2), Ctx.intLit(3)), Ctx.intLit(5));
  EXPECT_EQ(Ctx.sub(Ctx.intLit(2), Ctx.intLit(3)), Ctx.intLit(-1));
  EXPECT_EQ(Ctx.mul(Ctx.intLit(4), Ctx.intLit(3)), Ctx.intLit(12));
  EXPECT_EQ(Ctx.neg(Ctx.intLit(7)), Ctx.intLit(-7));
  EXPECT_EQ(Ctx.neg(Ctx.neg(Ctx.var("x"))), Ctx.var("x"));
}

TEST_F(ExprTest, AdditiveIdentities) {
  ExprRef X = Ctx.var("x");
  EXPECT_EQ(Ctx.add(X, Ctx.intLit(0)), X);
  EXPECT_EQ(Ctx.add(Ctx.intLit(0), X), X);
  EXPECT_EQ(Ctx.mul(X, Ctx.intLit(1)), X);
  EXPECT_EQ(Ctx.mul(X, Ctx.intLit(0)), Ctx.intLit(0));
}

TEST_F(ExprTest, ConstantFoldingCompare) {
  EXPECT_TRUE(Ctx.lt(Ctx.intLit(1), Ctx.intLit(2))->isTrue());
  EXPECT_TRUE(Ctx.ge(Ctx.intLit(1), Ctx.intLit(2))->isFalse());
  EXPECT_TRUE(Ctx.eq(Ctx.var("x"), Ctx.var("x"))->isTrue());
  EXPECT_TRUE(Ctx.ne(Ctx.var("x"), Ctx.var("x"))->isFalse());
  EXPECT_TRUE(Ctx.le(Ctx.var("x"), Ctx.var("x"))->isTrue());
}

TEST_F(ExprTest, NotPushesThroughComparisons) {
  ExprRef Cmp = Ctx.lt(Ctx.var("x"), Ctx.intLit(5));
  EXPECT_EQ(Ctx.notE(Cmp), Ctx.ge(Ctx.var("x"), Ctx.intLit(5)));
  EXPECT_EQ(Ctx.notE(Ctx.notE(Cmp)), Cmp);
  EXPECT_TRUE(Ctx.notE(Ctx.trueE())->isFalse());
}

TEST_F(ExprTest, AndOrUnits) {
  ExprRef P = Ctx.lt(Ctx.var("x"), Ctx.intLit(5));
  EXPECT_EQ(Ctx.andE(P, Ctx.trueE()), P);
  EXPECT_TRUE(Ctx.andE(P, Ctx.falseE())->isFalse());
  EXPECT_EQ(Ctx.orE(P, Ctx.falseE()), P);
  EXPECT_TRUE(Ctx.orE(P, Ctx.trueE())->isTrue());
  EXPECT_EQ(Ctx.andE(P, P), P);
}

TEST_F(ExprTest, AndFlattensAndDetectsContradiction) {
  ExprRef P = Ctx.lt(Ctx.var("x"), Ctx.intLit(5));
  ExprRef Q = Ctx.eq(Ctx.var("y"), Ctx.intLit(0));
  ExprRef Nested = Ctx.andE(Ctx.andE(P, Q), P);
  EXPECT_EQ(Nested->kind(), ExprKind::And);
  EXPECT_EQ(Nested->numOperands(), 2u);
  EXPECT_TRUE(Ctx.andE(P, Ctx.notE(P))->isFalse());
  EXPECT_TRUE(Ctx.orE(P, Ctx.notE(P))->isTrue());
}

TEST_F(ExprTest, ComplementPairsAreFoundWithoutInterningNegations) {
  ExprRef X = Ctx.var("x"), Y = Ctx.var("y");
  std::vector<ExprRef> Cmps = {Ctx.lt(X, Ctx.intLit(5)), Ctx.eq(Y, X),
                               Ctx.ge(Y, Ctx.intLit(0)), Ctx.ne(X, Y)};
  size_t Before = Ctx.numNodes();
  ExprRef Conj = Ctx.andE(Cmps);
  EXPECT_EQ(Conj->kind(), ExprKind::And);
  EXPECT_EQ(Ctx.numNodes(), Before + 1); // Only the And node itself.
  ExprRef Disj = Ctx.orE(Cmps);
  EXPECT_EQ(Disj->kind(), ExprKind::Or);
  EXPECT_EQ(Ctx.numNodes(), Before + 2);
  // Pairs in either order, among other operands, and around And/Or.
  EXPECT_TRUE(
      Ctx.andE({Cmps[0], Cmps[1], Ctx.ge(X, Ctx.intLit(5))})->isFalse());
  EXPECT_TRUE(Ctx.orE({Ctx.notE(Conj), Cmps[2], Conj})->isTrue());
  EXPECT_TRUE(Ctx.andE({Disj, Cmps[1], Ctx.notE(Disj)})->isFalse());
}

TEST_F(ExprTest, ConstantFoldingOnlyWhenDefined) {
  ExprRef Max = Ctx.intLit(INT64_MAX), Min = Ctx.intLit(INT64_MIN);
  ExprRef MinusOne = Ctx.intLit(-1);
  EXPECT_EQ(Ctx.add(Max, Ctx.intLit(1))->str(), "9223372036854775807 + 1");
  EXPECT_EQ(Ctx.mul(Ctx.intLit(INT64_C(4611686018427387904)), Ctx.intLit(4))
                ->kind(),
            ExprKind::Mul);
  EXPECT_EQ(Ctx.sub(Min, Ctx.intLit(1))->kind(), ExprKind::Sub);
  EXPECT_EQ(Ctx.add(Min, MinusOne)->kind(), ExprKind::Add);
  EXPECT_EQ(Ctx.neg(Min)->kind(), ExprKind::Neg);
  EXPECT_EQ(Ctx.div(Min, MinusOne)->kind(), ExprKind::Div);
  EXPECT_EQ(Ctx.mod(Min, MinusOne)->kind(), ExprKind::Mod);
  // In-range constants still fold, up to the int64 limits.
  EXPECT_EQ(Ctx.sub(Ctx.sub(Ctx.intLit(0), Max), Ctx.intLit(1)), Min);
  EXPECT_EQ(Ctx.div(Min, Ctx.intLit(1)), Min);
  EXPECT_EQ(Ctx.div(Ctx.intLit(-7), Ctx.intLit(2)), Ctx.intLit(-3));
  EXPECT_EQ(Ctx.mod(Ctx.intLit(-7), Ctx.intLit(2)), Ctx.intLit(-1));
  EXPECT_EQ(Ctx.mul(Max, MinusOne), Ctx.intLit(-INT64_MAX));
}

TEST_F(ExprTest, AddrOfDerefFolds) {
  ExprRef P = Ctx.var("p");
  EXPECT_EQ(Ctx.addrOf(Ctx.deref(P)), P);
  EXPECT_EQ(Ctx.deref(Ctx.addrOf(Ctx.var("x"))), Ctx.var("x"));
}

TEST_F(ExprTest, PrintsCLikeSyntax) {
  ExprRef Pred = Ctx.gt(Ctx.field(Ctx.deref(Ctx.var("curr")), "val"),
                        Ctx.var("v"));
  EXPECT_EQ(Pred->str(), "curr->val > v");

  ExprRef Deep = Ctx.orE(
      Ctx.andE(Ctx.ne(Ctx.var("curr"), Ctx.nullLit()),
               Ctx.le(Ctx.var("x"), Ctx.intLit(0))),
      Ctx.eq(Ctx.var("prev"), Ctx.nullLit()));
  EXPECT_EQ(Deep->str(), "(curr != NULL && x <= 0) || prev == NULL");

  EXPECT_EQ(Ctx.deref(Ctx.var("p"))->str(), "*p");
  EXPECT_EQ(Ctx.addrOf(Ctx.var("p"))->str(), "&p");
  EXPECT_EQ(Ctx.index(Ctx.var("a"), Ctx.add(Ctx.var("i"), Ctx.intLit(1)))
                ->str(),
            "a[i + 1]");
  EXPECT_EQ(Ctx.field(Ctx.var("s"), "f")->str(), "s.f");
}

TEST_F(ExprTest, PrintsArithmeticPrecedence) {
  ExprRef E = Ctx.mul(Ctx.add(Ctx.var("x"), Ctx.intLit(1)), Ctx.var("y"));
  EXPECT_EQ(E->str(), "(x + 1) * y");
  ExprRef F = Ctx.add(Ctx.mul(Ctx.var("x"), Ctx.intLit(2)), Ctx.var("y"));
  EXPECT_EQ(F->str(), "x * 2 + y");
}

TEST_F(ExprTest, SizeCountsNodes) {
  EXPECT_EQ(Ctx.var("x")->size(), 1u);
  EXPECT_EQ(Ctx.add(Ctx.var("x"), Ctx.intLit(1))->size(), 3u);
  // p->val is Field(Deref(Var)) = 3 nodes.
  EXPECT_EQ(Ctx.field(Ctx.deref(Ctx.var("p")), "val")->size(), 3u);
}

TEST_F(ExprTest, ConcurrentInterningGivesOneNodePerStructure) {
  // v<i % 64> < i for i < N: 64 variables, N literals and N comparisons,
  // enough to grow the table several times while four workers race.
  constexpr size_t N = 10000, NumWorkers = 4;
  auto Build = [&](size_t I) {
    return Ctx.lt(Ctx.var("v" + std::to_string(I % 64)),
                  Ctx.intLit(static_cast<int64_t>(I)));
  };
  size_t Before = Ctx.numNodes();
  std::vector<std::vector<ExprRef>> Got(NumWorkers,
                                        std::vector<ExprRef>(N));
  // Each worker starts at a different offset, so every node is raced for.
  slam::parallelFor(NumWorkers, NumWorkers, [&](unsigned, size_t W) {
    for (size_t K = 0; K < N; ++K) {
      size_t I = (W * N / NumWorkers + K) % N;
      Got[W][I] = Build(I);
    }
  });
  for (size_t W = 1; W < NumWorkers; ++W)
    EXPECT_EQ(Got[W], Got[0]) << "worker " << W;
  ASSERT_EQ(Ctx.numNodes() - Before, 64 + 2 * N);

  std::vector<unsigned> Ids = {Ctx.trueE()->id(), Ctx.falseE()->id()};
  std::vector<ExprRef> Vars(64);
  for (size_t I = 0; I < N; ++I) {
    Ids.push_back(Got[0][I]->id());
    Ids.push_back(Got[0][I]->op(1)->id());
    Vars[I % 64] = Got[0][I]->op(0);
  }
  for (ExprRef V : Vars)
    Ids.push_back(V->id());
  std::sort(Ids.begin(), Ids.end());
  std::vector<unsigned> Expected(Ctx.numNodes());
  std::iota(Expected.begin(), Expected.end(), 0u);
  EXPECT_EQ(Ids, Expected);
}

} // namespace
