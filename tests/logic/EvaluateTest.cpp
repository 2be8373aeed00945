//===- EvaluateTest.cpp - The concrete evaluator's rules -------------------===//
//
// The rules logic::evaluate applies for both of its stores (the prover's
// models and the reference interpreter), pinned over a store that looks
// each leaf up by its text.
//
//===----------------------------------------------------------------------===//

#include "logic/Evaluate.h"

#include "c2bp/CExprToLogic.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

using namespace slam;
using namespace slam::logic;

namespace {

/// Leaves by their text; a leaf the map does not hold is undefined.
/// Records every leaf it is asked for.
struct MapStore : Store {
  explicit MapStore(bool NullIsZero = false) : Store(NullIsZero) {}

  Result leaf(ExprRef App) override {
    Reads.push_back(App->str());
    auto It = Leaves.find(App->str());
    return It == Leaves.end() ? Result::undefined() : It->second;
  }

  std::map<std::string, Result> Leaves;
  std::vector<std::string> Reads;
};

class EvaluateTest : public ::testing::Test {
protected:
  EvaluateTest() {
    S.Leaves["x"] = Result::of(Value::makeInt(1));
    S.Leaves["y"] = Result::of(Value::makeInt(0));
    S.Leaves["z"] = Result::of(Value::makeInt(INT64_MAX));
    S.Leaves["p"] = Result::of(Value::makePtr(3));
    S.Leaves["q"] = Result::of(Value::makePtr(4));
    S.Leaves["n"] = Result::of(Value::null());
    S.Leaves["bad"] = Result::poison(); // A model's broken axiom, say.
    // "m" (missing) is undefined.
  }

  Result eval(const std::string &Text) {
    DiagnosticEngine Diags;
    ExprRef E = c2bp::parseExpr(Ctx, Text, Diags);
    EXPECT_TRUE(E != nullptr) << Diags.str();
    S.Reads.clear();
    return evaluate(E, S);
  }

  /// "poison", "undefined", or the integer value.
  std::string show(const std::string &Text) {
    Result R = eval(Text);
    if (R.S == Result::Status::Poison)
      return "poison";
    if (R.S == Result::Status::Undefined)
      return "undefined";
    return R.V.K == Value::Kind::Int ? std::to_string(R.V.I)
                                     : "ptr " + std::to_string(R.V.Obj);
  }

  LogicContext Ctx;
  MapStore S;
};

TEST_F(EvaluateTest, LiteralsArithmeticAndComparisons) {
  EXPECT_EQ(show("x + 2 * 3"), "7");
  EXPECT_EQ(show("-x"), "-1");
  EXPECT_EQ(show("7 / (x + 1) == 3 && 7 % 2 == x"), "1");
  EXPECT_EQ(show("x < y || !(x >= y)"), "0");
  EXPECT_EQ(show("p"), "ptr 3");
  EXPECT_EQ(show("&x"), "undefined"); // The store has no `&x`.
}

TEST_F(EvaluateTest, PoisonStopsEvaluationAndWinsOverADecidingOperand) {
  for (const char *Text : {"x / y == 1", "z + 1 > 0", "-(z - z - z - 2) == 0",
                           "y == 1 && x / y == 1", "x / y == 1 && y == 1",
                           "x == 1 || z * 2 > 0", "m > 0 || bad == 0",
                           "bad == 0 || m > 0"})
    EXPECT_EQ(show(Text), "poison") << Text;
  // Nothing after the poison is read.
  EXPECT_EQ(show("bad + x == 0 || y == 0"), "poison");
  EXPECT_EQ(S.Reads, std::vector<std::string>{"bad"});
  EXPECT_EQ(show("x / y + m == 0"), "poison");
  EXPECT_EQ(S.Reads, (std::vector<std::string>{"x", "y"}));
  // The connectives read every operand up to a poison: `&&` does not
  // stop at a false one.
  EXPECT_EQ(show("y == 1 && x == 1 && y == 0"), "0");
  EXPECT_EQ(S.Reads, (std::vector<std::string>{"y", "x", "y"}));
}

TEST_F(EvaluateTest, UndefinedLosesToADecidingOperandInEitherPosition) {
  EXPECT_EQ(show("m > 0 || x == 1"), "1");
  EXPECT_EQ(show("x == 1 || m > 0"), "1");
  EXPECT_EQ(show("m > 0 && x == 2"), "0");
  EXPECT_EQ(show("x == 2 && m > 0"), "0");
  // No defined operand decides.
  EXPECT_EQ(show("m > 0 || x == 2"), "undefined");
  EXPECT_EQ(show("x == 1 && m > 0"), "undefined");
  // Every other operator is strict.
  EXPECT_EQ(show("!(m > 0)"), "undefined");
  EXPECT_EQ(show("m + x == 1"), "undefined");
  EXPECT_EQ(show("x == m"), "undefined");
}

TEST_F(EvaluateTest, ArithmeticOrOrderingOnAPointerIsUndefined) {
  for (const char *Text : {"p + 1 == q", "x - p == 0", "-p == 0", "p < q",
                           "x >= p", "n <= 0", "n + 1 == 1"})
    EXPECT_EQ(show(Text), "undefined") << Text;
  EXPECT_EQ(show("p == q"), "0");
  EXPECT_EQ(show("p != NULL && n == NULL"), "1");
  EXPECT_EQ(show("p == x"), "0"); // A pointer is never an integer...
  EXPECT_EQ(show("p < q || x == 1"), "1"); // ...and `||` still decides.
}

TEST_F(EvaluateTest, NullIsZero) {
  EXPECT_EQ(show("NULL"), "ptr 0");
  EXPECT_EQ(show("NULL == 0 && n == 0 && n == y && x != NULL"), "1");
  EXPECT_EQ(show("NULL < 1"), "undefined");
  // Where pointers are integers (the prover's theory), NULL is 0.
  MapStore Ints(/*NullIsZero=*/true);
  DiagnosticEngine Diags;
  Result R = evaluate(c2bp::parseExpr(Ctx, "NULL < 1 && NULL + 2 == 2",
                                      Diags),
                      Ints);
  ASSERT_TRUE(R.defined());
  EXPECT_EQ(R.V.K, Value::Kind::Int);
  EXPECT_EQ(R.V.I, 1);
}

} // namespace
