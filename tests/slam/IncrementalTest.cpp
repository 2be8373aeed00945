//===- IncrementalTest.cpp - Cross-iteration reuse ------------------------===//
//
// The abstraction memo, checked for the property that makes it safe to
// ship: it changes how much work runs, never what the pipeline answers.
// Memo on/off runs must produce the same verdict, iteration count,
// predicate set, and trace; the stats then pin down that the memo
// actually skipped the work.
//
//===----------------------------------------------------------------------===//

#include "slam/Cegar.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace slam;
using namespace slam::slamtool;

namespace {

// The classic locking example under the driver's k=3 cube bound: the
// first abstraction is too coarse, so validation takes several CEGAR
// iterations — enough for iteration k+1 to reuse iteration k's work.
const char *LockingSource = R"(
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
  )";

struct PipeRun {
  SlamResult Result;
  StatsRegistry Stats; // Not movable: filled in place by runPipeline.
};

/// One fresh-process-like pipeline run: its own context, so interned
/// ids differ from every other run's (as they would across processes).
void runPipeline(const PipelineOptions &Options, PipeRun &R) {
  logic::LogicContext Ctx;
  DiagnosticEngine Diags;
  auto Res = checkSafety(LockingSource,
                         SafetySpec::lockDiscipline("AcquireLock",
                                                    "ReleaseLock"),
                         Ctx, Diags, Options, &R.Stats);
  EXPECT_TRUE(Res.has_value()) << Diags.str();
  R.Result = Res.value_or(SlamResult{});
}

PipelineOptions baseOptions() {
  PipelineOptions O;
  O.C2bp.Cubes.MaxCubeLength = 3; // The slam driver's default.
  return O;
}

/// Everything the slam tool prints to stdout, as a comparison key:
/// reuse may only change the stats, never this.
std::string resultKey(const SlamResult &R) {
  std::ostringstream Out;
  Out << static_cast<int>(R.V) << '|' << R.Iterations << '|'
      << R.Predicates.totalCount() << '|';
  for (const auto &Step : R.Trace)
    Out << Step.ProcName << ';';
  return Out.str();
}

} // namespace

TEST(Incremental, MemoDoesNotChangeTheAnswer) {
  PipelineOptions With = baseOptions();
  PipelineOptions Without = baseOptions();
  Without.Cegar.Incremental = false;
  PipeRun A;
  runPipeline(With, A);
  PipeRun B;
  runPipeline(Without, B);
  EXPECT_EQ(A.Result.V, SlamResult::Verdict::Validated);
  EXPECT_EQ(resultKey(A.Result), resultKey(B.Result));
  ASSERT_EQ(A.Result.FlightLog.size(), B.Result.FlightLog.size());
  for (size_t I = 0; I != A.Result.FlightLog.size(); ++I) {
    EXPECT_EQ(A.Result.FlightLog[I].Predicates,
              B.Result.FlightLog[I].Predicates);
    EXPECT_EQ(A.Result.FlightLog[I].NewPredicates,
              B.Result.FlightLog[I].NewPredicates);
  }
  // The memo only ever *removes* cube searches.
  EXPECT_GT(A.Stats.get("c2bp.memo_hits"), 0u);
  EXPECT_EQ(B.Stats.get("c2bp.memo_hits"), 0u);
}

TEST(Incremental, LaterIterationsRecomputeOnlyChangedStatements) {
  PipeRun R;
  runPipeline(baseOptions(), R);
  ASSERT_GE(R.Result.FlightLog.size(), 2u);
  // Iteration 1 has nothing to reuse.
  EXPECT_EQ(R.Result.FlightLog[0].StmtsReused, 0u);
  EXPECT_GT(R.Result.FlightLog[0].StmtsRecomputed, 0u);
  uint64_t Reused = 0;
  for (size_t I = 1; I != R.Result.FlightLog.size(); ++I) {
    const IterationRecord &Rec = R.Result.FlightLog[I];
    Reused += Rec.StmtsReused;
    // New predicates enlarge some cones, so *some* statements rerun —
    // but never more than iteration 1 re-ran from scratch.
    EXPECT_LE(Rec.StmtsRecomputed, R.Result.FlightLog[0].StmtsRecomputed);
  }
  EXPECT_GT(Reused, 0u);
}

TEST(Incremental, NonIncrementalLogsNoReuse) {
  PipelineOptions O = baseOptions();
  O.Cegar.Incremental = false;
  PipeRun R;
  runPipeline(O, R);
  for (const IterationRecord &Rec : R.Result.FlightLog)
    EXPECT_EQ(Rec.StmtsReused, 0u);
}
