//===- TheoryTest.cpp - EUF + LIA combination -------------------------------===//

#include "prover/Theory.h"

#include "c2bp/CExprToLogic.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::prover;
using namespace slam::logic;

namespace {

class TheoryTest : public ::testing::Test {
protected:
  /// Decides \p Entries with a fresh solver.
  TheoryResult check(const std::vector<std::string> &Entries) {
    return TheorySolver().check(literals(Entries));
  }

  /// Parses "atom" or "~atom" entries into literals.
  std::vector<Literal> literals(const std::vector<std::string> &Entries) {
    std::vector<Literal> Lits;
    for (const std::string &Entry : Entries) {
      bool Positive = true;
      std::string Text = Entry;
      if (!Text.empty() && Text[0] == '~') {
        Positive = false;
        Text = Text.substr(1);
      }
      DiagnosticEngine Diags;
      ExprRef E = c2bp::parseExpr(Ctx, Text, Diags);
      EXPECT_TRUE(E != nullptr) << Diags.str();
      Lits.push_back({E, Positive});
    }
    return Lits;
  }

  LogicContext Ctx;
};

TEST_F(TheoryTest, EmptyIsSat) { EXPECT_EQ(check({}), TheoryResult::Sat); }

TEST_F(TheoryTest, ReusedSolverAnswersLikeAFreshOne) {
  // One solver decides the sequence forwards, then backwards; nothing of
  // an earlier check may leak into a later one.
  const std::vector<std::pair<std::vector<std::string>, TheoryResult>>
      Cases = {
          // An EUF conflict found before any arithmetic.
          {{"p == q", "~p->val == q->val"}, TheoryResult::Unsat},
          {{"x < 5", "x > 7"}, TheoryResult::Unsat},
          // The unfolded constant overflows: poison, so Unknown.
          {{"v == 9223372036854775807 + 1"}, TheoryResult::Unknown},
          // LIA entails x == y, which congruence lifts to a[x] == a[y].
          {{"x <= y", "y <= x", "a[x] == 3", "a[y] >= 3"}, TheoryResult::Sat},
          {{"x <= y", "y <= x", "a[x] != a[y]"}, TheoryResult::Unsat},
          {{"x >= 0", "x != 0", "x < 1"}, TheoryResult::Unsat},
          {{"x == 2", "x < 4"}, TheoryResult::Sat},
      };
  TheorySolver Reused;
  for (bool Backwards : {false, true}) {
    for (size_t I = 0; I != Cases.size(); ++I) {
      const auto &[Entries, Expected] =
          Cases[Backwards ? Cases.size() - 1 - I : I];
      SCOPED_TRACE(Entries.front());
      ASSERT_EQ(check(Entries), Expected);
      EXPECT_EQ(Reused.check(literals(Entries)), Expected);
    }
  }
}

TEST_F(TheoryTest, SimpleArithmeticUnsat) {
  EXPECT_EQ(check({"x < 5", "x > 7"}), TheoryResult::Unsat);
  EXPECT_EQ(check({"x < 5", "x > 3"}), TheoryResult::Sat);
}

TEST_F(TheoryTest, PaperStrengtheningExample) {
  // (x == 2) implies (x < 4): so x == 2 && !(x < 4) is unsat.
  EXPECT_EQ(check({"x == 2", "~x < 4"}), TheoryResult::Unsat);
  // But x == 2 alone does not contradict x < 4.
  EXPECT_EQ(check({"x == 2", "x < 4"}), TheoryResult::Sat);
}

TEST_F(TheoryTest, IntegerTightness) {
  // 3 < x < 5 forces x == 4 over the integers.
  EXPECT_EQ(check({"x > 3", "x < 5", "x != 4"}), TheoryResult::Unsat);
  EXPECT_EQ(check({"x > 3", "x < 5", "x == 4"}), TheoryResult::Sat);
}

TEST_F(TheoryTest, IntegerInfeasibleEquation) {
  // 2x == 7 has no integer solution.
  EXPECT_EQ(check({"2 * x == 7"}), TheoryResult::Unsat);
  EXPECT_EQ(check({"2 * x == 8"}), TheoryResult::Sat);
}

TEST_F(TheoryTest, EqualityChains) {
  EXPECT_EQ(check({"x == y", "y == z", "x != z"}), TheoryResult::Unsat);
  EXPECT_EQ(check({"x == y", "y != z"}), TheoryResult::Sat);
}

TEST_F(TheoryTest, CongruenceOverFields) {
  // p == q && p->val != q->val is unsat (footnote 3).
  EXPECT_EQ(check({"p == q", "p->val != q->val"}), TheoryResult::Unsat);
  EXPECT_EQ(check({"p != q", "p->val != q->val"}), TheoryResult::Sat);
}

TEST_F(TheoryTest, CombinationEUFIntoLIA) {
  // p == q makes p->val and q->val equal numbers, clashing with
  // p->val > v && q->val <= v.
  EXPECT_EQ(check({"p == q", "p->val > v", "q->val <= v"}),
            TheoryResult::Unsat);
  EXPECT_EQ(check({"p->val > v", "q->val <= v"}), TheoryResult::Sat);
}

TEST_F(TheoryTest, CombinationLIAIntoEUF) {
  // x <= y && y <= x entails x == y, so *x != *y becomes a congruence
  // conflict.
  EXPECT_EQ(check({"x <= y", "y <= x", "*x != *y"}), TheoryResult::Unsat);
  EXPECT_EQ(check({"x <= y", "*x != *y"}), TheoryResult::Sat);
}

TEST_F(TheoryTest, ConstantPinning)
{
  // 4 < x < 6 pins x to 5, so *x != *5-style congruences fire. Here:
  // deref of x vs deref of a variable known equal to 5.
  EXPECT_EQ(check({"x > 4", "x < 6", "y == 5", "*x != *y"}),
            TheoryResult::Unsat);
}

TEST_F(TheoryTest, NullIsZero) {
  EXPECT_EQ(check({"p == NULL", "p != 0"}), TheoryResult::Unsat);
  EXPECT_EQ(check({"p == NULL", "p == 0"}), TheoryResult::Sat);
}

TEST_F(TheoryTest, AddressAxioms) {
  // Addresses of distinct variables differ.
  EXPECT_EQ(check({"&x == &y"}), TheoryResult::Unsat);
  EXPECT_EQ(check({"&x != &y"}), TheoryResult::Sat);
  // A variable's address is never NULL.
  EXPECT_EQ(check({"&x == NULL"}), TheoryResult::Unsat);
  EXPECT_EQ(check({"p == &x", "p == NULL"}), TheoryResult::Unsat);
}

TEST_F(TheoryTest, PointerEqualityPropagatesThroughAddr) {
  // p == &x && q == &x forces p == q.
  EXPECT_EQ(check({"p == &x", "q == &x", "p != q"}), TheoryResult::Unsat);
}

TEST_F(TheoryTest, PartitionAliasRefinement) {
  // Section 2.2: the invariant at label L implies *prev and *curr are
  // not aliases. Case 1: prev == NULL && curr != NULL.
  EXPECT_EQ(check({"prev == NULL", "curr != NULL", "prev == curr"}),
            TheoryResult::Unsat);
  // Case 2: prev->val <= v && curr->val > v.
  EXPECT_EQ(check({"prev->val <= v", "curr->val > v", "prev == curr"}),
            TheoryResult::Unsat);
}

TEST_F(TheoryTest, StrictImpliesDisequal) {
  EXPECT_EQ(check({"x < y", "x == y"}), TheoryResult::Unsat);
}

TEST_F(TheoryTest, DivModUninterpreted) {
  // x/2 is uninterpreted but congruent: x == y forces x/2 == y/2.
  EXPECT_EQ(check({"x == y", "x / 2 != y / 2"}), TheoryResult::Unsat);
  // No arithmetic meaning is assumed: x/2 == x is satisfiable.
  EXPECT_EQ(check({"x / 2 == x", "x == 7"}), TheoryResult::Sat);
}

TEST_F(TheoryTest, MixedChain) {
  // y >= 0 && x == 0 && *p <= 0 && *p == y + x forces *p == 0... which
  // is consistent; adding *p <= -1 clashes.
  EXPECT_EQ(check({"y >= 0", "x == 0", "*p == y + x", "*p <= -1"}),
            TheoryResult::Unsat);
  EXPECT_EQ(check({"y >= 0", "x == 0", "*p == y + x", "*p <= 0"}),
            TheoryResult::Sat);
}

} // namespace
