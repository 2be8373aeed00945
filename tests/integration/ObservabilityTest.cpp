//===- ObservabilityTest.cpp - Tracing + stats across the pipeline --------===//
//
// Runs the whole SLAM loop with the trace recorder installed and checks
// the observability surface end to end: the Chrome trace is valid JSON
// with spans from every pipeline stage (including worker cube-search
// spans when -j > 1), the stats export is valid JSON naming the
// prover/BDD counters, and the flight recorder has one row per CEGAR
// iteration.
//
//===----------------------------------------------------------------------===//

#include "slam/Cegar.h"
#include "support/JsonCheck.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

using namespace slam;
using namespace slam::slamtool;

namespace {

// The classic SLAM locking example: validation needs a Newton round to
// discover the `flag > 0` correlation, so every pipeline stage
// (including refinement) appears in the trace.
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

struct PipelineRun {
  SlamResult Result;
  std::string TraceDoc;
  std::string StatsDoc;
  std::vector<TraceEvent> Events;
};

/// Runs checkSafety on the locking example with tracing installed.
PipelineRun runTraced(int Workers) {
  PipelineRun Run;
  TraceRecorder Recorder;
  TraceRecorder::setActive(&Recorder);
  {
    logic::LogicContext Ctx;
    DiagnosticEngine Diags;
    StatsRegistry Stats;
    PipelineOptions Options;
    Options.C2bp.NumWorkers = Workers;
    // The driver's default: bounded cubes make the first abstraction
    // too coarse, so the loop needs a Newton refinement round (which
    // the trace assertions below rely on).
    Options.C2bp.Cubes.MaxCubeLength = 3;
    auto R = checkSafety(LockingSource,
                         SafetySpec::lockDiscipline("AcquireLock",
                                                    "ReleaseLock"),
                         Ctx, Diags, Options, &Stats);
    EXPECT_TRUE(R.has_value()) << Diags.str();
    Run.Result = R.value_or(SlamResult{});
    Run.StatsDoc = statsToJson(Stats);
  }
  TraceRecorder::setActive(nullptr);
  Run.TraceDoc = Recorder.toChromeJson();
  Run.Events = Recorder.sortedEvents();
  return Run;
}

} // namespace

TEST(Observability, TraceCoversEveryPipelineStage) {
  PipelineRun Run = runTraced(/*Workers=*/2);
  EXPECT_EQ(Run.Result.V, SlamResult::Verdict::Validated);
  EXPECT_TRUE(json::isValid(Run.TraceDoc));
  for (const char *Span :
       {"cfront.parse", "cfront.analyze", "cfront.instrument",
        "cfront.normalize", "alias.points_to", "alias.modref", "c2bp.run",
        "c2bp.setup", "c2bp.cube_search", "prover.query", "bebop.build",
        "bebop.run", "newton.analyze_trace", "slam.iteration",
        "slam.teardown"})
    EXPECT_NE(Run.TraceDoc.find(std::string("\"") + Span + "\""),
              std::string::npos)
        << "missing span " << Span;
  // Each query span names its formula and its answer, so a trace shows
  // which query was slow.
  size_t Queries = 0;
  for (const TraceEvent &E : Run.Events) {
    if (E.Name != "prover.query")
      continue;
    ++Queries;
    std::set<std::string> Keys;
    for (const auto &[Key, Value] : E.Args)
      if (!Value.empty())
        Keys.insert(Key);
    EXPECT_EQ(Keys, (std::set<std::string>{"query", "result"}));
  }
  EXPECT_GT(Queries, 0u);
}

TEST(Observability, EveryIterationSpansItsSetupAndTeardown) {
  PipelineRun Run = runTraced(/*Workers=*/1);
  ASSERT_GT(Run.Result.Iterations, 1);
  // Each iteration holds one C2bpTool construction and one teardown;
  // a span that ends where the next iteration starts may fall in both
  // at microsecond resolution, so count each child kind once overall.
  std::vector<const TraceEvent *> Iterations;
  for (const TraceEvent &E : Run.Events)
    if (E.Name == "slam.iteration")
      Iterations.push_back(&E);
  ASSERT_EQ(Iterations.size(), static_cast<size_t>(Run.Result.Iterations));
  for (const char *Child : {"c2bp.setup", "slam.teardown"}) {
    size_t Total = 0;
    for (const TraceEvent &E : Run.Events)
      Total += E.Name == Child;
    EXPECT_EQ(Total, Iterations.size()) << Child;
    for (const TraceEvent *It : Iterations) {
      bool Inside = false;
      for (const TraceEvent &E : Run.Events)
        Inside |= E.Name == Child && E.Tid == It->Tid &&
                  E.StartUs >= It->StartUs &&
                  E.StartUs + E.DurUs <= It->StartUs + It->DurUs;
      EXPECT_TRUE(Inside) << Child << " missing from an iteration";
    }
  }
}

TEST(Observability, WorkerSpansCarryWorkerThreadIds) {
  PipelineRun Run = runTraced(/*Workers=*/2);
  // Cube searches execute on pool workers (tid >= 1); the driver phases
  // stay on the main thread (tid 0). Both must appear.
  EXPECT_NE(Run.TraceDoc.find("\"tid\":0"), std::string::npos);
  EXPECT_NE(Run.TraceDoc.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(Run.TraceDoc.find("worker-1"), std::string::npos);
}

TEST(Observability, StatsExportNamesPipelineCounters) {
  PipelineRun Run = runTraced(/*Workers=*/1);
  EXPECT_TRUE(json::isValid(Run.StatsDoc));
  for (const char *Key :
       {"\"counters\"", "\"gauges\"", "\"histograms\"", "\"prover.calls\"",
        "\"c2bp.cubes_checked\"", "\"bebop.bdd.nodes\"",
        "\"prover.query_us\"", "\"slam.iterations\""})
    EXPECT_NE(Run.StatsDoc.find(Key), std::string::npos)
        << "missing key " << Key;
}

TEST(Observability, FlightLogHasOneRecordPerIteration) {
  PipelineRun Run = runTraced(/*Workers=*/1);
  ASSERT_EQ(Run.Result.FlightLog.size(),
            static_cast<size_t>(Run.Result.Iterations));
  uint64_t TotalProverCalls = 0;
  for (size_t I = 0; I != Run.Result.FlightLog.size(); ++I) {
    const IterationRecord &Rec = Run.Result.FlightLog[I];
    EXPECT_EQ(Rec.Iteration, static_cast<int>(I) + 1);
    EXPECT_GT(Rec.Predicates, 0u);
    EXPECT_GT(Rec.Cubes, 0u);
    EXPECT_GT(Rec.BddNodes, 0u);
    TotalProverCalls += Rec.ProverCalls;
  }
  EXPECT_GT(TotalProverCalls, 0u);
  // Refinement grows the predicate set monotonically.
  for (size_t I = 1; I < Run.Result.FlightLog.size(); ++I)
    EXPECT_GT(Run.Result.FlightLog[I].Predicates,
              Run.Result.FlightLog[I - 1].Predicates);
}

TEST(Observability, FlightLogIsIndependentOfWorkerCount) {
  PipelineRun Seq = runTraced(/*Workers=*/1);
  PipelineRun Par = runTraced(/*Workers=*/2);
  ASSERT_EQ(Seq.Result.FlightLog.size(), Par.Result.FlightLog.size());
  for (size_t I = 0; I != Seq.Result.FlightLog.size(); ++I) {
    const IterationRecord &A = Seq.Result.FlightLog[I];
    const IterationRecord &B = Par.Result.FlightLog[I];
    EXPECT_EQ(A.Predicates, B.Predicates);
    EXPECT_EQ(A.Cubes, B.Cubes);
    EXPECT_EQ(A.BddNodes, B.BddNodes);
    EXPECT_EQ(A.NewPredicates, B.NewPredicates);
  }
}

TEST(Observability, UntracedRunRecordsNothing) {
  ASSERT_EQ(TraceRecorder::active(), nullptr);
  logic::LogicContext Ctx;
  DiagnosticEngine Diags;
  auto R = checkSafety(LockingSource,
                       SafetySpec::lockDiscipline("AcquireLock",
                                                  "ReleaseLock"),
                       Ctx, Diags);
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->V, SlamResult::Verdict::Validated);
  // The flight recorder still fills in (it does not depend on tracing).
  EXPECT_EQ(R->FlightLog.size(), static_cast<size_t>(R->Iterations));
}

// `slam --report`'s table on examples/programs/locking.c: the layer
// times are milliseconds, so a round's time no longer reads 0.000.
TEST(Observability, FlightLogTablePrintsLayerMilliseconds) {
  std::ifstream In(SLAM_EXAMPLES_DIR "/locking.c");
  std::ostringstream Source;
  Source << In.rdbuf();
  ASSERT_FALSE(Source.str().empty());
  logic::LogicContext Ctx;
  DiagnosticEngine Diags;
  auto R = checkSafety(Source.str(),
                       SafetySpec::lockDiscipline("AcquireLock",
                                                  "ReleaseLock"),
                       Ctx, Diags);
  ASSERT_TRUE(R.has_value()) << Diags.str();
  std::istringstream Table(formatFlightLog(R->FlightLog));
  auto Columns = [](const std::string &Line) {
    std::istringstream In(Line);
    std::vector<std::string> Out;
    for (std::string Word; In >> Word;)
      Out.push_back(Word);
    return Out;
  };
  std::string Line;
  ASSERT_TRUE(std::getline(Table, Line));
  std::vector<std::string> Header = Columns(Line);
  ASSERT_EQ(Header.size(), 11u) << Line;
  EXPECT_EQ(Header[7], "c2bp(ms)");
  EXPECT_EQ(Header[8], "bebop(ms)");
  EXPECT_EQ(Header[9], "newton(ms)");
  size_t Rows = 0;
  for (; std::getline(Table, Line); ++Rows) {
    SCOPED_TRACE(Line);
    std::vector<std::string> Row = Columns(Line);
    ASSERT_EQ(Row.size(), Header.size());
    double Sum = 0;
    for (size_t C = 7; C != 10; ++C) {
      size_t Used = 0;
      double Ms = std::stod(Row[C], &Used);
      EXPECT_EQ(Used, Row[C].size());
      EXPECT_GE(Ms, 0);
      Sum += Ms;
    }
    EXPECT_GT(Sum, 0); // A round takes at least a microsecond.
  }
  EXPECT_EQ(Rows, R->FlightLog.size());
  EXPECT_EQ(Rows, 2u);
}

TEST(Observability, AliasFactsAreBuiltOnceAndPlanSpansCountProcedures) {
  PipelineRun Run = runTraced(/*Workers=*/1);
  ASSERT_EQ(Run.Result.Iterations, 2);
  auto Count = [&Run](const std::string &Needle) {
    size_t N = 0;
    for (size_t At = Run.TraceDoc.find(Needle); At != std::string::npos;
         At = Run.TraceDoc.find(Needle, At + 1))
      ++N;
    return N;
  };
  // The memo keeps the alias facts from round 1 for round 2.
  EXPECT_EQ(Count("\"alias.points_to\""), 1u);
  EXPECT_EQ(Count("\"alias.modref\""), 1u);
  EXPECT_EQ(Count("\"c2bp.plan\""), 2u);
  // Round 1 builds all three procedures; round 2 rebuilds main only.
  EXPECT_EQ(Count("\"procs_reused\":\"0\",\"procs_rebuilt\":\"3\""), 1u)
      << Run.TraceDoc;
  EXPECT_EQ(Count("\"procs_reused\":\"2\",\"procs_rebuilt\":\"1\""), 1u);
  const IterationRecord &Round2 = Run.Result.FlightLog.at(1);
  EXPECT_EQ(Round2.ProcsReused, 2u);
  EXPECT_EQ(Round2.ProcsRebuilt, 1u);
}
