//===- WPSemanticsTest.cpp - Morris' axiom vs. concrete execution -----------===//
//
// The sharpest check of the WP engine: for an assignment s and a
// predicate phi, WP(s, phi) must hold in the pre-state **exactly when**
// phi holds in the post-state (Morris' axiom is an equivalence, not
// just an implication). Verified by executing single-assignment
// procedures over randomized heaps — including aliased configurations
// (p == q, x pointing at a cell's field, ...) that exercise every
// disjunct of the alias case split.
//
//===----------------------------------------------------------------------===//

#include "c2bp/CExprToLogic.h"
#include "cfront/Interp.h"
#include "cfront/Normalize.h"
#include "logic/WP.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::cfront;

namespace {

const char *Stmts[] = {
    "i = j + 1",     "i = p->val",     "*x = j",       "*x = *y",
    "p->val = j",    "p->val = q->val", "p->next = q",  "p = q",
    "x = y",         "p->next = NULL", "i = 3",        "*y = i + j",
};

const char *Preds[] = {
    "i == j",        "i > 0",          "*x <= j",      "*x == *y",
    "p->val > j",    "p == q",         "p->next == q", "q->val == i",
    "p->val == q->val", "p == NULL",   "x == y",       "*y < 3",
};

struct Rng {
  uint64_t State;
  uint32_t next() {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return static_cast<uint32_t>(State >> 32);
  }
  uint32_t range(uint32_t N) { return next() % N; }
};

/// Observes the single assignment: evaluates WP(s, phi) just before it
/// and phi just after.
struct WpProbe : StepHook {
  Interpreter *I = nullptr;
  logic::ExprRef Wp = nullptr, Phi = nullptr;
  std::optional<Value> Before, After;

  void onStep(const Stmt &S, bool) override {
    if (S.Kind == CStmtKind::Assign && !Before)
      Before = I->evalLogic(Wp);
  }
  void afterStore(const Stmt &) override {
    if (!After)
      After = I->evalLogic(Phi);
  }
};

class WPSemantics : public ::testing::TestWithParam<int> {};

TEST_P(WPSemantics, MorrisAxiomIsExact) {
  Rng R{static_cast<uint64_t>(GetParam()) * 0x9e3779b97f4a7c15ULL + 5};
  logic::LogicContext Ctx;
  logic::ShapeAliasOracle Oracle;
  logic::WPEngine Engine(Ctx, Oracle);

  int Undefined = 0; // Trials where WP(s, phi) or phi has no value.
  for (int Trial = 0; Trial != 24; ++Trial) {
    std::string StmtText = Stmts[R.range(std::size(Stmts))];
    std::string PredText = Preds[R.range(std::size(Preds))];

    std::string Source =
        "typedef struct cell { int val; struct cell *next; } *list;\n"
        "void f(list p, list q, int *x, int *y, int i, int j) {\n  " +
        StmtText + ";\n}\n";
    DiagnosticEngine Diags;
    auto P = frontend(Source, Diags);
    ASSERT_TRUE(P != nullptr) << Diags.str() << Source;

    // The WP of the (single) assignment with respect to the predicate.
    const Stmt *Assign = nullptr;
    std::function<void(const Stmt *)> Find = [&](const Stmt *S) {
      if (S->Kind == CStmtKind::Assign && !Assign)
        Assign = S;
      for (const Stmt *Sub : {S->Then, S->Else, S->Body, S->Sub})
        if (Sub)
          Find(Sub);
      for (const Stmt *Sub : S->Stmts)
        Find(Sub);
    };
    Find(P->findFunction("f")->Body);
    ASSERT_TRUE(Assign != nullptr);

    DiagnosticEngine PD;
    logic::ExprRef Phi = c2bp::parseExpr(Ctx, PredText, PD);
    ASSERT_TRUE(Phi != nullptr);
    // Rebuild the assignment sides as logic terms via the predicate
    // parser (the statement text is in the predicate language too).
    std::string LhsText = StmtText.substr(0, StmtText.find(" ="));
    std::string RhsText = StmtText.substr(StmtText.find("= ") + 2);
    logic::ExprRef Lhs = c2bp::parseExpr(Ctx, LhsText, PD);
    logic::ExprRef Rhs = c2bp::parseExpr(Ctx, RhsText, PD);
    ASSERT_TRUE(Lhs && Rhs) << StmtText;
    logic::ExprRef Wp = Engine.assignment(Lhs, Rhs, Phi);

    // A randomized heap: two cells (possibly shared), int pointers
    // aimed at fields, fresh cells, or aliased with each other.
    Interpreter I(*P, R.next());
    const RecordDecl *Rec = P->Types.findRecord("cell");
    int C1 = I.allocStruct(Rec), C2 = I.allocStruct(Rec);
    I.setField(C1, "val", Value::makeInt(int(R.range(9)) - 4));
    I.setField(C2, "val", Value::makeInt(int(R.range(9)) - 4));
    if (R.range(2))
      I.setField(C1, "next", Value::makePtr(C2));
    if (R.range(2))
      I.setField(C2, "next", Value::makePtr(R.range(2) ? C1 : C2));
    Value PV = Value::makePtr(C1);
    Value QV = R.range(2) ? Value::makePtr(C1) : Value::makePtr(C2);
    int Fresh = I.allocCell(Value::makeInt(int(R.range(9)) - 4));
    Value XV = Value::makePtr(Fresh);
    Value YV = R.range(2) ? XV
                          : Value::makePtr(I.allocCell(
                                Value::makeInt(int(R.range(9)) - 4)));
    Value IV = Value::makeInt(int(R.range(9)) - 4);
    Value JV = Value::makeInt(int(R.range(9)) - 4);

    WpProbe Probe;
    Probe.I = &I;
    Probe.Wp = Wp;
    Probe.Phi = Phi;
    auto Out = I.run("f", {PV, QV, XV, YV, IV, JV}, &Probe);
    ASSERT_EQ(Out, Interpreter::Outcome::Finished) << StmtText;

    if (!Probe.Before || !Probe.After) {
      ++Undefined; // E.g. a NULL dereference in the predicate: skip.
      continue;
    }
    EXPECT_EQ(Probe.Before->I != 0, Probe.After->I != 0)
        << "WP(" << StmtText << ", " << PredText << ") = " << Wp->str()
        << "\npre-state value " << Probe.Before->I
        << " but post-state phi " << Probe.After->I;
  }
  // Every trial has a value on both sides: where a WP's alias case split
  // dereferences NULL, a defined operand decides the connective around
  // it. With strict connectives every seed would skip trials here.
  EXPECT_LE(Undefined, 0) << "trials skipped as undefined";
}

INSTANTIATE_TEST_SUITE_P(Heaps, WPSemantics, ::testing::Range(0, 25));

} // namespace
