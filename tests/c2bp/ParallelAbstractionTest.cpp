//===- ParallelAbstractionTest.cpp - -j N determinism (tentpole) ------------===//
//
// The parallel abstraction contract: every worker count N runs the same
// plan-then-execute path, so the produced boolean program is
// byte-identical to the one-worker run and so are the work counters.
//
//===----------------------------------------------------------------------===//

#include "c2bp/C2bp.h"

#include "cfront/Normalize.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::c2bp;

namespace {

struct RunResult {
  bool Ok = false;
  std::string Text;
  uint64_t Cubes = 0;
  uint64_t ProverCalls = 0;
  uint64_t WitnessHits = 0;
  uint64_t ProcsRebuilt = 0;
  uint64_t ProcsReused = 0;
  size_t ProcsWithBodies = 0;
};

RunResult abstractWith(const std::string &Source, const std::string &PredText,
                       int Workers, int MaxCubeLength = -1) {
  RunResult R;
  DiagnosticEngine Diags;
  logic::LogicContext Ctx;
  auto P = cfront::frontend(Source, Diags);
  EXPECT_TRUE(P != nullptr) << Diags.str();
  if (!P)
    return R;
  auto PS = parsePredicateFile(Ctx, PredText, Diags);
  EXPECT_TRUE(PS.has_value()) << Diags.str();
  if (!PS)
    return R;
  C2bpOptions Options;
  Options.NumWorkers = Workers;
  Options.Cubes.MaxCubeLength = MaxCubeLength;
  StatsRegistry Stats;
  auto BP = abstractProgram(*P, *PS, Ctx, Options, &Stats);
  EXPECT_TRUE(BP != nullptr) << Diags.str();
  if (!BP)
    return R;
  R.Ok = true;
  R.Text = BP->str();
  R.Cubes = Stats.get("c2bp.cubes_checked");
  R.ProverCalls = Stats.get("prover.calls");
  R.WitnessHits = Stats.get("c2bp.witness_hits");
  R.ProcsRebuilt = Stats.get("c2bp.procs_rebuilt");
  R.ProcsReused = Stats.get("c2bp.procs_reused");
  for (const cfront::FuncDecl *F : P->Functions)
    R.ProcsWithBodies += F->Body != nullptr;
  return R;
}

/// Runs \p W at -j 1/2/4/8 and checks every run against the -j 1 one.
void expectSameAtEveryWorkerCount(const workloads::Workload &W,
                                  int MaxCubeLength) {
  SCOPED_TRACE(W.Name + " k=" + std::to_string(MaxCubeLength));
  RunResult One = abstractWith(W.Source, W.Predicates, 1, MaxCubeLength);
  ASSERT_TRUE(One.Ok);
  EXPECT_GT(One.ProverCalls, 0u);
  EXPECT_GT(One.WitnessHits, 0u);
  // A run given no memo plans through one of its own, which has nothing
  // committed: every procedure with a body is built, none reused.
  EXPECT_GT(One.ProcsWithBodies, 0u);
  EXPECT_EQ(One.ProcsRebuilt, One.ProcsWithBodies);
  EXPECT_EQ(One.ProcsReused, 0u);
  for (int N : {2, 4, 8}) {
    SCOPED_TRACE("N=" + std::to_string(N));
    RunResult R = abstractWith(W.Source, W.Predicates, N, MaxCubeLength);
    ASSERT_TRUE(R.Ok);
    EXPECT_EQ(R.Text, One.Text);
    EXPECT_EQ(R.Cubes, One.Cubes);
    EXPECT_EQ(R.ProverCalls, One.ProverCalls);
    EXPECT_EQ(R.WitnessHits, One.WitnessHits);
    EXPECT_EQ(R.ProcsRebuilt, One.ProcsRebuilt);
    EXPECT_EQ(R.ProcsReused, One.ProcsReused);
  }
}

// Every Table 2 workload at the paper's k = 3, plus partition at
// unlimited k: the boolean program and the work counters (cubes
// checked, prover calls, witness hits, procedures rebuilt and reused)
// are the same at every worker count.
TEST(ParallelAbstraction, ByteIdenticalAndCountersIdenticalAcrossWorkerCounts) {
  for (const workloads::Workload *W : workloads::table2Workloads())
    expectSameAtEveryWorkerCount(*W, 3);
  expectSameAtEveryWorkerCount(workloads::partitionWorkload(), -1);
}

// Repeated parallel runs of the same abstraction must also agree with
// each other (no schedule-dependent output).
TEST(ParallelAbstraction, RepeatedRunsAgree) {
  const workloads::Workload &W = workloads::partitionWorkload();
  RunResult First = abstractWith(W.Source, W.Predicates, 8);
  ASSERT_TRUE(First.Ok);
  for (int Run = 0; Run != 3; ++Run) {
    RunResult Again = abstractWith(W.Source, W.Predicates, 8);
    ASSERT_TRUE(Again.Ok);
    EXPECT_EQ(Again.Text, First.Text);
  }
}

} // namespace
