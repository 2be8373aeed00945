//===- CegarTest.cpp - The SLAM loop end to end ------------------------------===//

#include "slam/Cegar.h"

#include "cfront/Normalize.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::slamtool;

namespace {

class CegarTest : public ::testing::Test {
protected:
  SlamResult check(const std::string &Source,
                   const SafetySpec &Spec =
                       SafetySpec::lockDiscipline("AcquireLock",
                                                  "ReleaseLock")) {
    DiagnosticEngine Diags;
    auto R = checkSafety(Source, Spec, Ctx, Diags, {}, &Stats);
    EXPECT_TRUE(R.has_value()) << Diags.str();
    return R.value_or(SlamResult{});
  }

  /// Checks the program's own asserts, with no property woven in (the
  /// slam tool without --lock or --irp).
  SlamResult checkAsserts(const std::string &Source) {
    DiagnosticEngine Diags;
    auto P = cfront::frontend(Source, Diags);
    EXPECT_TRUE(P != nullptr) << Diags.str();
    return P ? checkProgram(*P, {}, Ctx, {}, &Stats) : SlamResult{};
  }

  logic::LogicContext Ctx;
  StatsRegistry Stats;
};

TEST_F(CegarTest, WellLockedProgramValidates) {
  auto R = check(R"(
    int lock;
    void AcquireLock() { lock = 1; }
    void ReleaseLock() { lock = 0; }
    int nondet();
    void main() {
      int n;
      n = nondet();
      AcquireLock();
      if (n > 0) {
        ReleaseLock();
        AcquireLock();
      }
      ReleaseLock();
    }
  )");
  EXPECT_EQ(R.V, SlamResult::Verdict::Validated);
  EXPECT_EQ(R.Iterations, 1);
}

TEST_F(CegarTest, DoubleAcquireIsABug) {
  auto R = check(R"(
    void AcquireLock() { }
    void ReleaseLock() { }
    void main() {
      AcquireLock();
      AcquireLock();
    }
  )");
  EXPECT_EQ(R.V, SlamResult::Verdict::BugFound);
  EXPECT_FALSE(R.Trace.empty());
}

TEST_F(CegarTest, ReleaseWithoutAcquireIsABug) {
  auto R = check(R"(
    void AcquireLock() { }
    void ReleaseLock() { }
    void main() {
      ReleaseLock();
    }
  )");
  EXPECT_EQ(R.V, SlamResult::Verdict::BugFound);
}

TEST_F(CegarTest, RefinementDiscoversBranchCorrelation) {
  // The classic SLAM example: both branches test the same flag, so the
  // path "skip acquire, do release" is spurious. The seed predicates
  // cannot see that; Newton must discover `flag > 0`.
  auto R = check(R"(
    void AcquireLock() { }
    void ReleaseLock() { }
    int nondet();
    void main() {
      int flag;
      int work;
      flag = nondet();
      work = 0;
      if (flag > 0) {
        AcquireLock();
      }
      work = work + 1;
      if (flag > 0) {
        ReleaseLock();
      }
    }
  )");
  EXPECT_EQ(R.V, SlamResult::Verdict::Validated);
  EXPECT_GT(R.Iterations, 1);
  // The discovered predicate is in the final set.
  bool Found = false;
  for (logic::ExprRef E : R.Predicates.forProc("main"))
    Found |= E->str() == "flag > 0";
  EXPECT_TRUE(Found);
}

TEST_F(CegarTest, RealBugSurvivesRefinement) {
  // The release is guarded by the *wrong* flag polarity: a true bug
  // that refinement must not explain away.
  auto R = check(R"(
    void AcquireLock() { }
    void ReleaseLock() { }
    int nondet();
    void main() {
      int flag;
      flag = nondet();
      if (flag > 0) {
        AcquireLock();
      }
      if (flag <= 0) {
        ReleaseLock();
      }
    }
  )");
  EXPECT_EQ(R.V, SlamResult::Verdict::BugFound);
}

TEST_F(CegarTest, ResultTraceHoldsNoBooleanStatements) {
  // The boolean program a trace step's Stmt pointed into dies with the
  // CEGAR iteration that found the path, so the returned trace must not
  // point into it: procedure names and C statement ids only.
  auto R = check(R"(
    void AcquireLock() { }
    void ReleaseLock() { }
    int nondet();
    void main() {
      int flag;
      flag = nondet();
      if (flag > 0) {
        AcquireLock();
      }
      if (flag <= 0) {
        ReleaseLock();
      }
    }
  )");
  ASSERT_EQ(R.V, SlamResult::Verdict::BugFound);
  ASSERT_FALSE(R.Trace.empty());
  for (const bebop::TraceStep &Step : R.Trace)
    EXPECT_EQ(Step.Stmt, nullptr) << Step.ProcName;
}

TEST_F(CegarTest, LoopWithLockDiscipline) {
  auto R = check(R"(
    void AcquireLock() { }
    void ReleaseLock() { }
    int nondet();
    void main() {
      int n;
      n = nondet();
      while (n > 0) {
        AcquireLock();
        ReleaseLock();
        n = n - 1;
      }
    }
  )");
  EXPECT_EQ(R.V, SlamResult::Verdict::Validated);
}

TEST_F(CegarTest, IrpDisciplineValidates) {
  auto Spec = SafetySpec::irpDiscipline("CompleteRequest", "MarkPending");
  auto R = check(R"(
    void CompleteRequest() { }
    void MarkPending() { }
    int nondet();
    void main() {
      int status;
      status = nondet();
      if (status == 0) {
        CompleteRequest();
      } else {
        MarkPending();
      }
    }
  )",
                 Spec);
  EXPECT_EQ(R.V, SlamResult::Verdict::Validated);
}

TEST_F(CegarTest, IrpCompleteAfterPendingIsABug) {
  auto Spec = SafetySpec::irpDiscipline("CompleteRequest", "MarkPending");
  auto R = check(R"(
    void CompleteRequest() { }
    void MarkPending() { }
    void main() {
      MarkPending();
      CompleteRequest();
    }
  )",
                 Spec);
  EXPECT_EQ(R.V, SlamResult::Verdict::BugFound);
}

TEST_F(CegarTest, HelperProceduresAreSummarized) {
  auto R = check(R"(
    void AcquireLock() { }
    void ReleaseLock() { }
    void doWork() {
      AcquireLock();
      ReleaseLock();
    }
    void main() {
      doWork();
      doWork();
    }
  )");
  EXPECT_EQ(R.V, SlamResult::Verdict::Validated);
}

TEST_F(CegarTest, VoidCalleeWithoutReturnKeepsCallerFrame) {
  // f has no return statement, so only the callee's exit step marks
  // where main resumes; x must still read 3 there.
  auto R = checkAsserts(R"(
    int g;
    void f(int n) {
      if (n > 0) {
        g = g + 1;
        f(n - 1);
      }
    }
    void main() {
      int x;
      x = 3;
      f(1);
      assert(x == 3);
    }
  )");
  EXPECT_EQ(R.V, SlamResult::Verdict::Validated);
}

TEST_F(CegarTest, HeapWriteInVoidCalleeIsNoBug) {
  // set stores 5 through its parameter and returns off its end; the
  // caller reads the same cell back, so the assert cannot fail.
  auto R = checkAsserts(R"(
    struct node { int val; struct node *next; };
    struct node *head;
    void set(struct node *q, int v) { q->val = v; }
    void main() {
      struct node *p;
      int x;
      p = head;
      set(p, 5);
      x = p->val;
      assert(x >= 5);
    }
  )");
  EXPECT_NE(R.V, SlamResult::Verdict::BugFound);
}

TEST_F(CegarTest, StatsRecordIterations) {
  check(R"(
    void AcquireLock() { }
    void ReleaseLock() { }
    void main() { AcquireLock(); ReleaseLock(); }
  )");
  EXPECT_GE(Stats.get("slam.iterations"), 1u);
}

} // namespace
