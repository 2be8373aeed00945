//===- Table2Test.cpp - Full pipeline on the Section 6.2 programs -----------===//

#include "workloads/Workloads.h"

#include "bebop/Bebop.h"
#include "c2bp/C2bp.h"
#include "cfront/Normalize.h"
#include "prover/Prover.h"
#include "slam/Newton.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

using namespace slam;
using namespace slam::workloads;

namespace {

struct RunOutcome {
  bool FrontendOk = false;
  bool Violated = true;
  bool LabelReachable = false;
  unsigned Lines = 0;
  uint64_t ProverCalls = 0;
  std::vector<bebop::TraceStep> Trace;
  std::unique_ptr<cfront::Program> Prog;
  /// Owns the statements the trace steps point into.
  std::unique_ptr<bp::BProgram> BP;
};

RunOutcome runWorkload(const Workload &W, logic::LogicContext &Ctx,
                       int MaxCubeLength = 3) {
  RunOutcome Out;
  DiagnosticEngine Diags;
  Out.Prog = cfront::frontend(W.Source, Diags);
  EXPECT_TRUE(Out.Prog != nullptr) << W.Name << ": " << Diags.str();
  if (!Out.Prog)
    return Out;
  Out.Lines = Out.Prog->SourceLines;
  auto PS = c2bp::parsePredicateFile(Ctx, W.Predicates, Diags);
  EXPECT_TRUE(PS.has_value()) << W.Name << ": " << Diags.str();
  if (!PS)
    return Out;
  Out.FrontendOk = true;
  StatsRegistry Stats;
  c2bp::C2bpOptions Options;
  Options.Cubes.MaxCubeLength = MaxCubeLength;
  Out.BP = c2bp::abstractProgram(*Out.Prog, *PS, Ctx, Options, &Stats);
  EXPECT_TRUE(Out.BP != nullptr) << W.Name;
  bebop::Bebop Checker(*Out.BP);
  auto R = Checker.run(W.Entry);
  Out.Violated = R.AssertViolated;
  Out.Trace = std::move(R.Trace);
  Out.ProverCalls = Stats.get("prover.calls");
  if (!W.InvariantLabel.empty())
    Out.LabelReachable = Checker.labelReachable(W.Entry, W.InvariantLabel);
  return Out;
}

TEST(Table2, KmpBoundsValidate) {
  logic::LogicContext Ctx;
  auto R = runWorkload(kmpWorkload(), Ctx);
  ASSERT_TRUE(R.FrontendOk);
  EXPECT_FALSE(R.Violated);
  EXPECT_TRUE(R.LabelReachable);
  EXPECT_GT(R.ProverCalls, 0u);
}

TEST(Table2, QsortBoundsValidate) {
  logic::LogicContext Ctx;
  auto R = runWorkload(qsortWorkload(), Ctx);
  ASSERT_TRUE(R.FrontendOk);
  EXPECT_FALSE(R.Violated);
  EXPECT_TRUE(R.LabelReachable);
}

TEST(Table2, PartitionInvariantHolds) {
  logic::LogicContext Ctx;
  auto R = runWorkload(partitionWorkload(), Ctx, /*MaxCubeLength=*/-1);
  ASSERT_TRUE(R.FrontendOk);
  EXPECT_FALSE(R.Violated);
  EXPECT_TRUE(R.LabelReachable);
}

TEST(Table2, ListfindValidates) {
  logic::LogicContext Ctx;
  auto R = runWorkload(listfindWorkload(), Ctx);
  ASSERT_TRUE(R.FrontendOk);
  EXPECT_FALSE(R.Violated);
}

TEST(Table2, ReverseAbstractCounterexampleIsInfeasible) {
  // With the paper's seven predicates our (locally computed) transfer
  // functions cannot establish the shape invariant outright; the
  // toolkit's guarantee still holds: the abstract counterexample is
  // rejected by Newton, so no spurious error is ever reported.
  logic::LogicContext Ctx;
  auto R = runWorkload(reverseWorkload(), Ctx);
  ASSERT_TRUE(R.FrontendOk);
  if (!R.Violated)
    return; // Even better: the invariant was established.
  ASSERT_FALSE(R.Trace.empty());
  prover::Prover P(Ctx);
  c2bp::PredicateSet Existing;
  auto NR =
      slamtool::analyzeTrace(*R.Prog, R.Trace, Ctx, P, Existing);
  EXPECT_FALSE(NR.Feasible)
      << "the abstract trace must not be concretely executable";
}

TEST(Table2, BooleanProgramsMatchGoldenFiles) {
  // Every row's boolean program at k = 3, at one and at four workers, is
  // byte-identical to the committed one: prover changes must not change
  // a single answer.
  for (const Workload *W : table2Workloads()) {
    std::ifstream In(std::string(SLAM_TABLE2_GOLDEN_DIR) + "/" + W->Name +
                     ".k3.bp");
    ASSERT_TRUE(In.good()) << W->Name;
    std::stringstream Golden;
    Golden << In.rdbuf();
    for (int Workers : {1, 4}) {
      DiagnosticEngine Diags;
      logic::LogicContext Ctx;
      auto Prog = cfront::frontend(W->Source, Diags);
      ASSERT_TRUE(Prog != nullptr) << W->Name << ": " << Diags.str();
      auto PS = c2bp::parsePredicateFile(Ctx, W->Predicates, Diags);
      ASSERT_TRUE(PS.has_value()) << W->Name << ": " << Diags.str();
      c2bp::C2bpOptions Options;
      Options.Cubes.MaxCubeLength = 3;
      Options.NumWorkers = Workers;
      auto BP = c2bp::abstractProgram(*Prog, *PS, Ctx, Options);
      ASSERT_TRUE(BP != nullptr) << W->Name;
      EXPECT_EQ(BP->str(), Golden.str()) << W->Name << " at -j " << Workers;
    }
  }
}

TEST(Table2, AllRowsRunThroughC2bp) {
  // The table itself: every row abstracts without diagnostics, has the
  // size in EXPERIMENTS.md's lines column, and reports nonzero prover
  // work.
  const std::map<std::string, unsigned> Lines = {
      {"kmp", 42}, {"qsort", 38}, {"partition", 27},
      {"listfind", 22}, {"reverse", 44}};
  logic::LogicContext Ctx;
  for (const Workload *W : table2Workloads()) {
    auto R = runWorkload(*W, Ctx);
    EXPECT_TRUE(R.FrontendOk) << W->Name;
    EXPECT_EQ(R.Lines, Lines.at(W->Name)) << W->Name;
    EXPECT_GT(R.ProverCalls, 0u) << W->Name;
  }
}

} // namespace
