//===- InterpTest.cpp - Reference interpreter -------------------------------===//

#include "cfront/Interp.h"

#include "c2bp/CExprToLogic.h"
#include "cfront/Normalize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

using namespace slam;
using namespace slam::cfront;

namespace {

class InterpTest : public ::testing::Test {
protected:
  std::unique_ptr<Program> load(const std::string &Source) {
    DiagnosticEngine Diags;
    auto P = frontend(Source, Diags);
    EXPECT_TRUE(P != nullptr) << Diags.str();
    return P;
  }

  logic::ExprRef parse(const std::string &Text) {
    DiagnosticEngine Diags;
    return c2bp::parseExpr(Ctx, Text, Diags);
  }

  logic::LogicContext Ctx;
};

TEST_F(InterpTest, ArithmeticAndReturn) {
  auto P = load("int f(int x) { int y; y = x * 2 + 1; return y; }");
  Interpreter I(*P, 1);
  auto Out = I.run("f", {Value::makeInt(20)});
  EXPECT_EQ(Out, Interpreter::Outcome::Finished);
  ASSERT_TRUE(I.returnValue().has_value());
  EXPECT_EQ(I.returnValue()->I, 41);
}

TEST_F(InterpTest, LoopsAndBreak) {
  auto P = load(R"(
    int f(int n) {
      int s;
      s = 0;
      while (n > 0) {
        if (n == 3)
          break;
        s = s + n;
        n = n - 1;
      }
      return s;
    }
  )");
  Interpreter I(*P, 1);
  I.run("f", {Value::makeInt(5)});
  EXPECT_EQ(I.returnValue()->I, 5 + 4); // Stops at n == 3.
}

TEST_F(InterpTest, GotoFlow) {
  auto P = load(R"(
    int f(int x) {
      int r;
      r = 0;
      top: r = r + x;
      x = x - 1;
      if (x > 0) goto top;
      return r;
    }
  )");
  Interpreter I(*P, 1);
  I.run("f", {Value::makeInt(4)});
  EXPECT_EQ(I.returnValue()->I, 4 + 3 + 2 + 1);
}

TEST_F(InterpTest, RecursionAndCalls) {
  auto P = load(R"(
    int fact(int n) {
      int r;
      if (n <= 1) { return 1; }
      r = fact(n - 1);
      return r * n;
    }
  )");
  Interpreter I(*P, 1);
  I.run("fact", {Value::makeInt(5)});
  EXPECT_EQ(I.returnValue()->I, 120);
}

TEST_F(InterpTest, PointersAndAddressOf) {
  auto P = load(R"(
    void f() {
      int x;
      int *p;
      x = 1;
      p = &x;
      *p = 42;
      assert(x == 42);
    }
  )");
  Interpreter I(*P, 1);
  EXPECT_EQ(I.run("f", {}), Interpreter::Outcome::Finished);
}

TEST_F(InterpTest, StructsAndLists) {
  auto P = load(R"(
    typedef struct cell { int val; struct cell *next; } *list;
    int sum(list l) {
      int s;
      s = 0;
      while (l != NULL) {
        s = s + l->val;
        l = l->next;
      }
      return s;
    }
  )");
  Interpreter I(*P, 1);
  const RecordDecl *Rec = P->Types.findRecord("cell");
  int N1 = I.allocStruct(Rec), N2 = I.allocStruct(Rec);
  I.setField(N1, "val", Value::makeInt(10));
  I.setField(N1, "next", Value::makePtr(N2));
  I.setField(N2, "val", Value::makeInt(32));
  I.run("sum", {Value::makePtr(N1)});
  EXPECT_EQ(I.returnValue()->I, 42);
}

TEST_F(InterpTest, Arrays) {
  auto P = load(R"(
    int a[4];
    int f() {
      int i;
      int s;
      i = 0;
      s = 0;
      while (i < 4) {
        a[i] = i * i;
        s = s + a[i];
        i = i + 1;
      }
      return s;
    }
  )");
  Interpreter I(*P, 1);
  I.run("f", {});
  EXPECT_EQ(I.returnValue()->I, 0 + 1 + 4 + 9);
}

TEST_F(InterpTest, AssertFailureStops) {
  auto P = load("void f(int x) { assert(x > 0); x = 1; }");
  Interpreter I(*P, 1);
  EXPECT_EQ(I.run("f", {Value::makeInt(-1)}),
            Interpreter::Outcome::AssertFailed);
  ASSERT_TRUE(I.stopStmt() != nullptr);
  EXPECT_EQ(I.stopStmt()->Kind, CStmtKind::Assert);
}

TEST_F(InterpTest, NullDereferenceIsRuntimeError) {
  auto P = load(R"(
    struct s { int v; };
    void f(struct s *p) { p->v = 1; }
  )");
  Interpreter I(*P, 1);
  EXPECT_EQ(I.run("f", {Value::null()}),
            Interpreter::Outcome::RuntimeError);
}

TEST_F(InterpTest, SignedOverflowIsRuntimeError) {
  // INT64_MIN / -1 overflows like INT64_MAX + 1: neither may trap or
  // wrap.
  auto P = load(R"(
    int g;
    void f() {
      int x; int y;
      x = 0 - 9223372036854775807;
      x = x - 1;
      y = 0 - 1;
      g = x / y;
    }
    void h() { int x; x = 9223372036854775807; x = x + 1; }
    void k(int x) { assert(x + 1 > x); }
  )");
  for (const char *Entry : {"f", "h"}) {
    Interpreter I(*P, 1);
    EXPECT_EQ(I.run(Entry, {}), Interpreter::Outcome::RuntimeError) << Entry;
    ASSERT_TRUE(I.stopStmt() != nullptr) << Entry;
    EXPECT_EQ(I.stopStmt()->Kind, CStmtKind::Assign) << Entry;
  }
  // An assert whose condition overflows errs; it does not fail.
  Interpreter I(*P, 1);
  EXPECT_EQ(I.run("k", {Value::makeInt(INT64_MAX)}),
            Interpreter::Outcome::RuntimeError);
}

// A runtime error in a branch condition, a call argument or a return
// expression stops the run at that statement; one inside a callee
// stops it at the callee's statement, not at the call. Normalization
// turns `return e;` into an assignment to the return value (with the
// return's location) and a jump to the exit.
TEST_F(InterpTest, RuntimeErrorStopsAtTheStatementThatErred) {
  auto P = load("int g;\n"
                "int id(int v) { return v; }\n"
                "int div(int v) { return v / 0; }\n"
                "void br(int x) { if (x / 0 > 1) { g = 1; } }\n"
                "void ca(int x) { g = id(x / 0); }\n"
                "int re(int x) { return x / 0; }\n"
                "void in(int x) { g = div(x); }\n");
  struct Case {
    const char *Entry;
    CStmtKind Kind;
    unsigned Line;
  };
  const Case Cases[] = {{"br", CStmtKind::If, 4},
                        {"ca", CStmtKind::CallStmt, 5},
                        {"re", CStmtKind::Assign, 6},
                        {"in", CStmtKind::Assign, 3}};
  for (const Case &C : Cases) {
    Interpreter I(*P, 1);
    EXPECT_EQ(I.run(C.Entry, {Value::makeInt(3)}),
              Interpreter::Outcome::RuntimeError)
        << C.Entry;
    ASSERT_TRUE(I.stopStmt() != nullptr) << C.Entry;
    EXPECT_EQ(I.stopStmt()->Kind, C.Kind) << C.Entry;
    EXPECT_EQ(I.stopStmt()->Loc.Line, C.Line) << C.Entry;
  }
  // The error of "ca" comes before the call: g keeps its value.
  Interpreter I(*P, 1);
  I.setGlobal("g", Value::makeInt(7));
  I.run("ca", {Value::makeInt(3)});
  EXPECT_EQ(I.getGlobal("g").I, 7);
}

TEST_F(InterpTest, StepLimitOnInfiniteLoop) {
  auto P = load("void f() { int x; x = 0; while (x == 0) { x = 0; } }");
  Interpreter I(*P, 1);
  EXPECT_EQ(I.run("f", {}, nullptr, 1000),
            Interpreter::Outcome::StepLimit);
}

TEST_F(InterpTest, ExternHandlerAndDeterminism) {
  auto P = load(R"(
    int nondet();
    int f() { int x; x = nondet(); return x; }
  )");
  Interpreter I(*P, 7);
  I.setExternHandler("nondet",
                     [](Interpreter &, std::vector<Value> &) {
                       return Value::makeInt(99);
                     });
  I.run("f", {});
  EXPECT_EQ(I.returnValue()->I, 99);
  // Without a handler, values are seeded-deterministic.
  auto P2 = load("int nondet(); int g() { int x; x = nondet(); return x; }");
  Interpreter A(*P2, 7), B(*P2, 7);
  A.run("g", {});
  B.run("g", {});
  EXPECT_EQ(A.returnValue()->I, B.returnValue()->I);
}

TEST_F(InterpTest, EvalLogicAgainstState) {
  auto P = load(R"(
    typedef struct cell { int val; struct cell *next; } *list;
    void f(list curr, int v) {
      L: assert(curr != NULL);
    }
  )");
  Interpreter I(*P, 1);
  const RecordDecl *Rec = P->Types.findRecord("cell");
  int N = I.allocStruct(Rec);
  I.setField(N, "val", Value::makeInt(7));

  struct Probe : StepHook {
    Interpreter *I = nullptr;
    logic::LogicContext *Ctx = nullptr;
    std::optional<Value> CurrNonNull, ValGtV, Undefined;
    void onStep(const Stmt &, bool) override {
      DiagnosticEngine D;
      CurrNonNull = I->evalLogic(c2bp::parseExpr(*Ctx, "curr != NULL", D));
      ValGtV = I->evalLogic(c2bp::parseExpr(*Ctx, "curr->val > v", D));
      Undefined = I->evalLogic(c2bp::parseExpr(*Ctx, "mystery->val", D));
    }
    void afterStore(const Stmt &) override {}
  } Probe;
  Probe.I = &I;
  Probe.Ctx = &Ctx;

  I.run("f", {Value::makePtr(N), Value::makeInt(3)}, &Probe);
  ASSERT_TRUE(Probe.CurrNonNull.has_value());
  EXPECT_EQ(Probe.CurrNonNull->I, 1);
  ASSERT_TRUE(Probe.ValGtV.has_value());
  EXPECT_EQ(Probe.ValGtV->I, 1); // 7 > 3.
  EXPECT_FALSE(Probe.Undefined.has_value());
}

// An undefined operand (mystery is no variable) does not hide a defined
// one that decides a connective.
TEST_F(InterpTest, EvalLogicConnectivesDecideAroundUndefined) {
  auto P = load(R"(
    typedef struct cell { int val; struct cell *next; } *list;
    void f(list curr) { L: assert(curr != NULL); }
  )");
  struct Probe : StepHook {
    Interpreter *I = nullptr;
    logic::LogicContext *Ctx = nullptr;
    std::map<std::string, std::optional<Value>> Values;
    void onStep(const Stmt &, bool) override {
      DiagnosticEngine D;
      for (const char *Text : {"mystery->val > 0 || curr != NULL",
                               "mystery->val > 0 && curr == NULL",
                               "mystery->val > 0 || curr == NULL"})
        Values[Text] = I->evalLogic(c2bp::parseExpr(*Ctx, Text, D));
    }
    void afterStore(const Stmt &) override {}
  } Probe;
  Interpreter I(*P, 1);
  Probe.I = &I;
  Probe.Ctx = &Ctx;
  I.run("f", {Value::makePtr(I.allocStruct(P->Types.findRecord("cell")))},
        &Probe);
  ASSERT_TRUE(Probe.Values.at("mystery->val > 0 || curr != NULL"));
  EXPECT_EQ(Probe.Values.at("mystery->val > 0 || curr != NULL")->I, 1);
  ASSERT_TRUE(Probe.Values.at("mystery->val > 0 && curr == NULL"));
  EXPECT_EQ(Probe.Values.at("mystery->val > 0 && curr == NULL")->I, 0);
  EXPECT_FALSE(Probe.Values.at("mystery->val > 0 || curr == NULL"));
}

TEST_F(InterpTest, EvalLogicOverflowHasNoValue) {
  auto P = load("void f(int x, int y, int z) { L: assert(y != 0); }");
  struct Probe : StepHook {
    Interpreter *I = nullptr;
    logic::LogicContext *Ctx = nullptr;
    std::map<std::string, std::optional<Value>> Values;
    void onStep(const Stmt &, bool) override {
      DiagnosticEngine D;
      for (const char *Text :
           {"x / y", "x % y", "-x", "x - 1", "z + 1", "z * 2", "x + 1"})
        Values[Text] = I->evalLogic(c2bp::parseExpr(*Ctx, Text, D));
    }
    void afterStore(const Stmt &) override {}
  } Probe;
  Interpreter I(*P, 1);
  Probe.I = &I;
  Probe.Ctx = &Ctx;
  I.run("f",
        {Value::makeInt(INT64_MIN), Value::makeInt(-1),
         Value::makeInt(INT64_MAX)},
        &Probe);
  for (const char *Text : {"x / y", "x % y", "-x", "x - 1", "z + 1", "z * 2"})
    EXPECT_FALSE(Probe.Values.at(Text).has_value()) << Text;
  ASSERT_TRUE(Probe.Values.at("x + 1").has_value());
  EXPECT_EQ(Probe.Values.at("x + 1")->I, INT64_MIN + 1);
}

} // namespace
