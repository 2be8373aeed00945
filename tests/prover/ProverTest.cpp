//===- ProverTest.cpp - Validity queries as C2bp issues them ---------------===//

#include "prover/Prover.h"

#include "c2bp/CExprToLogic.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::prover;
using namespace slam::logic;

namespace {

ExprRef parseFormula(LogicContext &Ctx, const std::string &Text) {
  DiagnosticEngine Diags;
  ExprRef E = c2bp::parseExpr(Ctx, Text, Diags);
  EXPECT_TRUE(E != nullptr) << Diags.str();
  return E;
}

class ProverTest : public ::testing::Test {
protected:
  ProverTest() : P(Ctx, &Stats) {}

  ExprRef parse(const std::string &Text) { return parseFormula(Ctx, Text); }

  Validity implies(const std::string &A, const std::string &C) {
    return P.implies(parse(A), parse(C));
  }

  LogicContext Ctx;
  StatsRegistry Stats;
  Prover P;
};

TEST_F(ProverTest, PaperSection41Example) {
  // (x == 2) implies (x < 4); the F_V search relies on this query.
  EXPECT_EQ(implies("x == 2", "x < 4"), Validity::Valid);
  EXPECT_EQ(implies("x < 4", "x == 2"), Validity::Invalid);
}

TEST_F(ProverTest, TautologiesAndContradictions) {
  EXPECT_EQ(P.checkSat(Ctx.trueE()), Satisfiability::Sat);
  EXPECT_EQ(P.checkSat(Ctx.falseE()), Satisfiability::Unsat);
  EXPECT_EQ(implies("x == 1", "x == 1"), Validity::Valid);
  EXPECT_EQ(implies("x == 1 && x == 2", "y == 3"), Validity::Valid);
}

TEST_F(ProverTest, DisjunctiveReasoning) {
  EXPECT_EQ(implies("x == 1 || x == 2", "x >= 1"), Validity::Valid);
  EXPECT_EQ(implies("x == 1 || x == 2", "x <= 1"), Validity::Invalid);
  EXPECT_EQ(implies("x >= 1 && x <= 2", "x == 1 || x == 2"),
            Validity::Valid);
}

TEST_F(ProverTest, PartitionInvariantImpliesNoAlias) {
  // Section 2.2's decision-procedure step: the Bebop invariant at L
  // implies prev != curr.
  EXPECT_EQ(implies("curr != NULL && curr->val > v && "
                    "(prev->val <= v || prev == NULL)",
                    "prev != curr"),
            Validity::Valid);
}

TEST_F(ProverTest, WeakestPreconditionStrengthening) {
  // E(F_V(x < 4)) = (x == 2) from E = {x < 5, x == 2}: check both
  // candidate cubes the search would try.
  EXPECT_EQ(implies("x < 5", "x < 4"), Validity::Invalid);
  EXPECT_EQ(implies("x == 2", "x < 4"), Validity::Valid);
  EXPECT_EQ(implies("x < 5 && x == 2", "x < 4"), Validity::Valid);
}

TEST_F(ProverTest, Figure2AbstractionQueries) {
  // E(F_V(*p + x <= 0)) = (*p <= 0) && (x == 0).
  EXPECT_EQ(implies("*p <= 0 && x == 0", "*p + x <= 0"), Validity::Valid);
  EXPECT_EQ(implies("*p <= 0", "*p + x <= 0"), Validity::Invalid);
  EXPECT_EQ(implies("x == 0", "*p + x <= 0"), Validity::Invalid);
  // And the negative side: !(*p <= 0) && x == 0 implies !(*p + x <= 0).
  EXPECT_EQ(implies("!(*p <= 0) && x == 0", "!(*p + x <= 0)"),
            Validity::Valid);
}

TEST_F(ProverTest, CachingCountsHits) {
  EXPECT_EQ(implies("x == 2", "x < 4"), Validity::Valid);
  uint64_t Calls = Stats.get("prover.calls");
  EXPECT_EQ(implies("x == 2", "x < 4"), Validity::Valid);
  EXPECT_EQ(Stats.get("prover.calls"), Calls);
  EXPECT_GE(Stats.get("prover.cache_hits"), 1u);
}

TEST_F(ProverTest, NegationCanonicalCacheDerivesValidity) {
  // The cube search issues validity pairs: checkSat(psi) right after
  // checkSat(!psi). Unsat(psi) makes !psi valid, so the second query
  // must be answered from the cache under its own statistic.
  ExprRef Phi = parse("x == 1 && x == 2"); // Theory-unsat conjunction.
  EXPECT_EQ(P.checkSat(Phi), Satisfiability::Unsat);
  uint64_t Calls = Stats.get("prover.calls");
  EXPECT_EQ(P.checkSat(Ctx.notE(Phi)), Satisfiability::Sat);
  EXPECT_EQ(Stats.get("prover.calls"), Calls); // Derived, not recomputed.
  EXPECT_EQ(Stats.get("prover.neg_cache_hits"), 1u);
  // Counted apart from exact-entry hits.
  EXPECT_EQ(Stats.get("prover.cache_hits"), 0u);
}

TEST_F(ProverTest, NegationCacheDoesNotDeriveFromSat) {
  // Sat(psi) says nothing about !psi; the opposite polarity must be
  // computed, not guessed.
  ExprRef Phi = parse("x == 1 && y == 2");
  EXPECT_EQ(P.checkSat(Phi), Satisfiability::Sat);
  uint64_t Calls = Stats.get("prover.calls");
  EXPECT_EQ(P.checkSat(Ctx.notE(Phi)), Satisfiability::Sat);
  EXPECT_EQ(Stats.get("prover.calls"), Calls + 1);
  EXPECT_EQ(Stats.get("prover.neg_cache_hits"), 0u);
}

TEST_F(ProverTest, DeepFormulaUsesNoRecursion) {
  // ~100k-node alternating !/ || chain. The skeleton encoder used to
  // recurse per node and overflowed the stack on formulas this deep;
  // the explicit worklist must handle it, and unit propagation must
  // resolve the resulting Tseitin chain without quadratic re-sweeps.
  ExprRef A = parse("x > 0");
  ExprRef Phi = parse("y > 0");
  for (int I = 0; I != 50000; ++I)
    Phi = Ctx.notE(Ctx.orE(A, Phi));
  // Satisfiable: x <= 0 collapses every level to a bare negation, and
  // an even number of negations leaves y > 0, which y = 1 satisfies.
  EXPECT_EQ(P.checkSat(Phi), Satisfiability::Sat);
}

TEST_F(ProverTest, PointerReasoning) {
  EXPECT_EQ(implies("p == q", "p->val == q->val"), Validity::Valid);
  EXPECT_EQ(implies("p->val != q->val", "p != q"), Validity::Valid);
  EXPECT_EQ(implies("p != q", "p->val != q->val"), Validity::Invalid);
  EXPECT_EQ(implies("p == &x && q == &x", "p == q"), Validity::Valid);
}

TEST_F(ProverTest, HeapShapePredicates) {
  // From the mark/reverse example's predicate set.
  EXPECT_EQ(implies("this == h && this->next == hnext",
                    "h->next == hnext"),
            Validity::Valid);
  EXPECT_EQ(implies("prev == h && h != 0", "prev != 0"), Validity::Valid);
}

TEST_F(ProverTest, ModularArithmeticIsUninterpretedButCongruent) {
  EXPECT_EQ(implies("x == y", "x % 2 == y % 2"), Validity::Valid);
  // No arithmetic meaning: cannot conclude x % 2 < 2.
  EXPECT_EQ(implies("x >= 0", "x % 2 < 2"), Validity::Invalid);
}

// Property-style sweep: k and k+1 bounds interact correctly for a range
// of constants, exercising normalization of strict/non-strict bounds.
class ProverBoundsSweep : public ProverTest,
                          public ::testing::WithParamInterface<int> {};

TEST_P(ProverBoundsSweep, StrictVsNonStrict) {
  int K = GetParam();
  std::string KS = std::to_string(K);
  std::string K1 = std::to_string(K + 1);
  // x > k <=> x >= k+1 over the integers.
  EXPECT_EQ(implies("x > " + KS, "x >= " + K1), Validity::Valid);
  EXPECT_EQ(implies("x >= " + K1, "x > " + KS), Validity::Valid);
  // x > k does not imply x > k+1.
  EXPECT_EQ(implies("x > " + KS, "x > " + K1), Validity::Invalid);
}

INSTANTIATE_TEST_SUITE_P(Bounds, ProverBoundsSweep,
                         ::testing::Values(-7, -1, 0, 1, 5, 42, 1000));

// The reservation protocol the -j N workers rely on: a miss hands out an
// RAII claim on the in-flight slot.

TEST(SharedProverCache, AbandonedReservationFreesTheSlot) {
  // Destroying an unpublished Reservation (an exception, an Unknown
  // budget bailout) must return the slot to Empty so the query can be
  // retried — not wedge it in-flight forever.
  LogicContext Ctx;
  ExprRef Phi = parseFormula(Ctx, "x == 1");
  SharedProverCache C;
  {
    auto L = C.lookupOrReserve(Phi);
    ASSERT_EQ(L.Kind, SharedProverCache::Outcome::Miss);
    // L.Slot destroyed unpublished.
  }
  auto L2 = C.lookupOrReserve(Phi);
  ASSERT_EQ(L2.Kind, SharedProverCache::Outcome::Miss);
  L2.Slot.publish(Satisfiability::Sat);
  auto L3 = C.lookupOrReserve(Phi);
  EXPECT_EQ(L3.Kind, SharedProverCache::Outcome::Hit);
  EXPECT_EQ(L3.Value, Satisfiability::Sat);
}

TEST(SharedProverCache, MovedFromReservationDoesNotAbandon) {
  LogicContext Ctx;
  ExprRef Phi = parseFormula(Ctx, "x == 1");
  SharedProverCache C;
  auto L = C.lookupOrReserve(Phi);
  ASSERT_EQ(L.Kind, SharedProverCache::Outcome::Miss);
  {
    SharedProverCache::Reservation Moved = std::move(L.Slot);
    EXPECT_FALSE(static_cast<bool>(L.Slot));
    Moved.publish(Satisfiability::Sat);
  }
  // The publish through the moved-to reservation stuck.
  EXPECT_EQ(C.lookupOrReserve(Phi).Kind, SharedProverCache::Outcome::Hit);
}

} // namespace
