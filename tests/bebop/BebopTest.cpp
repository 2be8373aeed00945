//===- BebopTest.cpp - Model checking boolean programs ---------------------===//

#include "bebop/Bebop.h"

#include "bp/BPParser.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::bebop;
using namespace slam::bp;

namespace {

class BebopTest : public ::testing::Test {
protected:
  std::unique_ptr<BProgram> parse(const std::string &Source) {
    DiagnosticEngine Diags;
    auto P = parseBProgram(Source, Diags);
    EXPECT_TRUE(P != nullptr) << Diags.str();
    EXPECT_TRUE(verifyBProgram(*P, Diags)) << Diags.str();
    return P;
  }

  CheckResult check(const std::string &Source,
                    const std::string &Entry = "main") {
    Prog = parse(Source);
    Checker = std::make_unique<Bebop>(*Prog);
    return Checker->run(Entry);
  }

  std::unique_ptr<BProgram> Prog;
  std::unique_ptr<Bebop> Checker;
};

TEST_F(BebopTest, PassingAssert) {
  auto R = check(R"(
    void main() begin
      decl a;
      a := true;
      assert(a);
    end
  )");
  EXPECT_FALSE(R.AssertViolated);
}

TEST_F(BebopTest, FailingAssert) {
  auto R = check(R"(
    void main() begin
      decl a;
      a := false;
      assert(a);
    end
  )");
  EXPECT_TRUE(R.AssertViolated);
  ASSERT_FALSE(R.Trace.empty());
  EXPECT_EQ(R.Trace.back().Op, NodeOp::Assert);
}

// The CFG belongs to the procedure: every Bebop over a program reads
// the graph the procedure lowered once, and answers the same, down to
// the statements of its trace.
TEST_F(BebopTest, TwoCheckersShareOneCfg) {
  auto P = parse(R"(
    void flip(x) begin
      decl y;
      y := !x;
      assert(y != x);
    end
    void main() begin
      decl a;
      a := *;
      call flip(a);
      assert(a);
    end
  )");
  Bebop First(*P);
  Bebop Second(*P);
  for (const BProc *Proc : P->Procs) {
    EXPECT_EQ(First.cfg(Proc->Name), &Proc->cfg()) << Proc->Name;
    EXPECT_EQ(Second.cfg(Proc->Name), &Proc->cfg()) << Proc->Name;
  }
  EXPECT_EQ(First.cfg("nosuch"), nullptr);
  CheckResult A = First.run("main");
  CheckResult B = Second.run("main");
  EXPECT_TRUE(A.AssertViolated);
  EXPECT_EQ(A.FailingStmt, B.FailingStmt);
  ASSERT_EQ(A.Trace.size(), B.Trace.size());
  for (size_t I = 0; I != A.Trace.size(); ++I)
    EXPECT_EQ(A.Trace[I].Stmt, B.Trace[I].Stmt) << I;
  EXPECT_EQ(First.bddNodes(), Second.bddNodes());
}

TEST_F(BebopTest, UnconstrainedInitialValues) {
  // Initial values are unconstrained, so the assert can fail.
  auto R = check("void main() begin decl a; assert(a); end");
  EXPECT_TRUE(R.AssertViolated);
}

TEST_F(BebopTest, AssumeFilters) {
  auto R = check(R"(
    void main() begin
      decl a;
      assume(a);
      assert(a);
    end
  )");
  EXPECT_FALSE(R.AssertViolated);
}

TEST_F(BebopTest, CorrelationsAreTracked) {
  // Bebop computes over sets of bit vectors, capturing correlations.
  auto R = check(R"(
    void main() begin
      decl a, b;
      a := *;
      b := a;
      assert(a == b);
    end
  )");
  EXPECT_FALSE(R.AssertViolated);
}

TEST_F(BebopTest, ParallelAssignmentSwaps) {
  auto R = check(R"(
    void main() begin
      decl a, b;
      a := true;
      b := false;
      a, b := b, a;
      assert(!a && b);
    end
  )");
  EXPECT_FALSE(R.AssertViolated);
}

TEST_F(BebopTest, BranchesJoin) {
  auto R = check(R"(
    void main() begin
      decl a, b;
      if (*) begin
        a := true; b := true;
      end else begin
        a := false; b := false;
      end
      assert(a == b);
    end
  )");
  EXPECT_FALSE(R.AssertViolated);
  // But a is not always true:
  auto R2 = check(R"(
    void main() begin
      decl a;
      if (*) begin a := true; end else begin a := false; end
      assert(a);
    end
  )");
  EXPECT_TRUE(R2.AssertViolated);
}

TEST_F(BebopTest, LoopReachesFixpoint) {
  auto R = check(R"(
    void main() begin
      decl a;
      a := true;
      while (*) begin
        a := !a;
        a := !a;
      end
      assert(a);
    end
  )");
  EXPECT_FALSE(R.AssertViolated);
}

TEST_F(BebopTest, ChooseSemantics) {
  // choose(p, n): p forces true, n forces false, neither is nondet.
  auto R = check(R"(
    void main() begin
      decl p, b;
      p := true;
      b := choose(p, !p);
      assert(b);
    end
  )");
  EXPECT_FALSE(R.AssertViolated);
  auto R2 = check(R"(
    void main() begin
      decl p, b;
      p := false;
      b := choose(p, false);
      assert(b);
    end
  )");
  EXPECT_TRUE(R2.AssertViolated); // choose(false,false) is unknown.
}

TEST_F(BebopTest, ProcedureSummaries) {
  auto R = check(R"(
    bool<1> negate(x) begin
      return !x;
    end
    void main() begin
      decl a, b;
      a := *;
      b := call negate(a);
      assert(a != b);
    end
  )");
  EXPECT_FALSE(R.AssertViolated);
}

TEST_F(BebopTest, MultipleReturnValues) {
  auto R = check(R"(
    bool<2> pair(x) begin
      return x, !x;
    end
    void main() begin
      decl a, t1, t2;
      a := *;
      t1, t2 := call pair(a);
      assert(t1 == a && t2 != a);
    end
  )");
  EXPECT_FALSE(R.AssertViolated);
}

TEST_F(BebopTest, GlobalsFlowThroughCalls) {
  auto R = check(R"(
    decl g;
    void set() begin
      g := true;
    end
    void main() begin
      g := false;
      call set();
      assert(g);
    end
  )");
  EXPECT_FALSE(R.AssertViolated);
}

TEST_F(BebopTest, GlobalCallTargetTakesTheReturnValue) {
  // set() leaves g true and returns false; the target assignment comes
  // last, so g is false after the call. Binding g to both the callee's
  // g and its return value would drop the path instead.
  auto R = check(R"(
    decl g;
    bool<1> set() begin
      g := true;
      return false;
    end
    void main() begin
      g := call set();
      assert(g);
    end
  )");
  EXPECT_TRUE(R.AssertViolated);
  auto R2 = check(R"(
    decl g;
    bool<1> set() begin
      g := true;
      return false;
    end
    void main() begin
      g := call set();
      assert(!g);
    end
  )");
  EXPECT_FALSE(R2.AssertViolated);
}

TEST_F(BebopTest, SummariesAreContextSensitive) {
  // The identity procedure must not conflate different call sites.
  auto R = check(R"(
    bool<1> id(x) begin
      return x;
    end
    void main() begin
      decl a, b;
      a := call id(true);
      b := call id(false);
      assert(a && !b);
    end
  )");
  EXPECT_FALSE(R.AssertViolated);
}

TEST_F(BebopTest, RecursionConverges) {
  // flip calls itself through a star guard; g's parity is preserved
  // two flips at a time.
  auto R = check(R"(
    decl g;
    void flip2() begin
      g := !g;
      g := !g;
      if (*) begin
        call flip2();
      end
    end
    void main() begin
      g := true;
      call flip2();
      assert(g);
    end
  )");
  EXPECT_FALSE(R.AssertViolated);
}

TEST_F(BebopTest, AssertInsideCalleeUsesCallingContext) {
  auto R = check(R"(
    void expects(x) begin
      assert(x);
    end
    void main() begin
      call expects(true);
    end
  )");
  EXPECT_FALSE(R.AssertViolated);
  auto R2 = check(R"(
    void expects(x) begin
      assert(x);
    end
    void main() begin
      call expects(false);
    end
  )");
  EXPECT_TRUE(R2.AssertViolated);
  EXPECT_EQ(R2.FailingProc, "expects");
}

TEST_F(BebopTest, EnforcePrunesStates) {
  // Without enforce, x1 and x2 can be simultaneously true and the
  // assert fails; the invariant rules the state out.
  const char *Body = R"(
    void main() begin
      decl {x == 1}, {x == 2};
      %ENFORCE%
      {x == 1} := *;
      {x == 2} := *;
      assume({x == 1});
      assert(!{x == 2});
    end
  )";
  std::string NoEnforce(Body);
  NoEnforce.replace(NoEnforce.find("%ENFORCE%"), 9, "");
  EXPECT_TRUE(check(NoEnforce).AssertViolated);
  std::string WithEnforce(Body);
  WithEnforce.replace(WithEnforce.find("%ENFORCE%"), 9,
                      "enforce !({x == 1} && {x == 2});");
  EXPECT_FALSE(check(WithEnforce).AssertViolated);
}

TEST_F(BebopTest, GotoNondeterminism) {
  auto R = check(R"(
    void main() begin
      decl a;
      a := false;
      goto L1, L2;
      L1: a := true;
      L2: skip;
      assert(a);
    end
  )");
  // Via L2 directly, a stays false.
  EXPECT_TRUE(R.AssertViolated);
}

TEST_F(BebopTest, LabelInvariants) {
  check(R"(
    void main() begin
      decl a, b;
      a := true;
      b := !a;
      L: skip;
    end
  )");
  EXPECT_TRUE(Checker->labelReachable("main", "L"));
  std::string Inv = Checker->invariantAtLabel("main", "L");
  EXPECT_EQ(Inv, "a && !b");
}

TEST_F(BebopTest, UnreachableLabel) {
  check(R"(
    void main() begin
      decl a;
      a := true;
      assume(!a);
      L: skip;
    end
  )");
  EXPECT_FALSE(Checker->labelReachable("main", "L"));
  EXPECT_EQ(Checker->invariantAtLabel("main", "L"), "false");
}

TEST_F(BebopTest, DisjunctiveInvariant) {
  check(R"(
    void main() begin
      decl a, b;
      if (*) begin
        a := true; b := false;
      end else begin
        a := false; b := true;
      end
      L: skip;
    end
  )");
  auto Cubes = Checker->reachableAtLabel("main", "L");
  ASSERT_TRUE(Cubes.has_value());
  // Exactly the two correlated states (as cubes covering them).
  for (const auto &Cube : *Cubes) {
    auto A = Cube.find("a"), B = Cube.find("b");
    ASSERT_TRUE(A != Cube.end() && B != Cube.end());
    EXPECT_NE(A->second, B->second);
  }
}

TEST_F(BebopTest, TraceEndsAtFailingAssert) {
  auto R = check(R"(
    void main() begin
      decl a, b;
      a := true;
      b := false;
      if (a) begin
        b := true;
      end
      assert(!b);
    end
  )");
  ASSERT_TRUE(R.AssertViolated);
  ASSERT_GE(R.Trace.size(), 3u);
  EXPECT_EQ(R.Trace.back().Op, NodeOp::Assert);
  // The trace passes through both assignments to b.
  int AssignsToB = 0;
  for (const TraceStep &S : R.Trace)
    if (S.Op == NodeOp::Assign && S.Stmt &&
        S.Stmt->Targets == std::vector<std::string>{"b"})
      ++AssignsToB;
  EXPECT_EQ(AssignsToB, 2);
}

TEST_F(BebopTest, InterproceduralTrace) {
  auto R = check(R"(
    decl g;
    void setg(v) begin
      g := v;
    end
    void main() begin
      call setg(false);
      assert(g);
    end
  )");
  ASSERT_TRUE(R.AssertViolated);
  // Trace: call setg -> g := v -> (return) -> assert.
  bool SawCall = false, SawAssign = false;
  for (const TraceStep &S : R.Trace) {
    if (S.Op == NodeOp::Call)
      SawCall = true;
    if (S.Op == NodeOp::Assign && S.ProcName == "setg")
      SawAssign = true;
  }
  EXPECT_TRUE(SawCall);
  EXPECT_TRUE(SawAssign);
  EXPECT_EQ(R.Trace.back().Op, NodeOp::Assert);
  EXPECT_EQ(R.Trace.back().ProcName, "main");
}

TEST_F(BebopTest, WhileLoopTraceUnrolls) {
  // Failing state requires one loop iteration.
  auto R = check(R"(
    void main() begin
      decl a;
      a := false;
      while (*) begin
        a := true;
      end
      assert(!a);
    end
  )");
  ASSERT_TRUE(R.AssertViolated);
  EXPECT_EQ(R.Trace.back().Op, NodeOp::Assert);
}

} // namespace
