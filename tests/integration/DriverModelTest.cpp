//===- DriverModelTest.cpp - SLAM on the Table 1 driver models --------------===//

#include "workloads/Workloads.h"

#include "c2bp/CExprToLogic.h"
#include "slam/Cegar.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::workloads;
using slamtool::SlamResult;

namespace {

SlamResult checkDriver(const DriverModel &M, logic::LogicContext &Ctx) {
  DiagnosticEngine Diags;
  slamtool::PipelineOptions Options;
  Options.C2bp.Cubes.MaxCubeLength = 3;
  auto R = slamtool::checkSafety(M.Source, M.Spec, Ctx, Diags, Options);
  EXPECT_TRUE(R.has_value()) << M.Name << ": " << Diags.str();
  return R.value_or(SlamResult{});
}

SlamResult checkDriver(const DriverModel &M) {
  logic::LogicContext Ctx;
  return checkDriver(M, Ctx);
}

TEST(DriverModels, GenerationIsDeterministic) {
  DriverConfig C;
  C.Name = "x";
  C.Seed = 5;
  EXPECT_EQ(generateDriver(C).Source, generateDriver(C).Source);
  C.Seed = 6;
  EXPECT_NE(generateDriver(C).Source, generateDriver(DriverConfig{}).Source);
}

TEST(DriverModels, SizesFollowThePaperOrdering) {
  auto Drivers = table1Drivers();
  ASSERT_EQ(Drivers.size(), 5u);
  auto Lines = [&](const std::string &Name) -> unsigned {
    for (const auto &D : Drivers)
      if (D.Name == Name)
        return D.SourceLines;
    return 0;
  };
  // floppy and srdriver are the big ones; ioctl the smallest.
  EXPECT_GT(Lines("floppy"), Lines("log"));
  EXPECT_GT(Lines("srdriver"), Lines("log"));
  EXPECT_GT(Lines("log"), Lines("openclos"));
  EXPECT_GT(Lines("openclos"), Lines("ioctl"));
  // The exact sizes are the lines column of EXPERIMENTS.md's Table 1.
  EXPECT_EQ(Lines("floppy"), 2849u);
  EXPECT_EQ(Lines("ioctl"), 427u);
  EXPECT_EQ(Lines("openclos"), 575u);
  EXPECT_EQ(Lines("srdriver"), 2643u);
  EXPECT_EQ(Lines("log"), 1009u);
}

TEST(DriverModels, DiscoveredPredicatesRoundTripThroughTheParser) {
  // Bebop names a predicate's variable by its text, and readers such as
  // examples/partition_invariants.cpp parse that text back, so every
  // predicate the loop ends with must re-parse to the same node.
  for (const DriverModel &M : table1Drivers()) {
    logic::LogicContext Ctx;
    SlamResult R = checkDriver(M, Ctx);
    std::vector<logic::ExprRef> All = R.Predicates.Globals;
    for (const auto &[Proc, V] : R.Predicates.PerProc)
      All.insert(All.end(), V.begin(), V.end());
    EXPECT_GT(All.size(), 1u) << M.Name;
    for (logic::ExprRef E : All) {
      DiagnosticEngine Diags;
      EXPECT_EQ(c2bp::parseExpr(Ctx, E->str(), Diags), E)
          << M.Name << ": " << E->str() << " " << Diags.str();
    }
  }
}

TEST(DriverModels, FloppyBugIsFound) {
  auto Drivers = table1Drivers();
  SlamResult R = checkDriver(Drivers[0]);
  ASSERT_EQ(Drivers[0].Name, "floppy");
  EXPECT_EQ(R.V, SlamResult::Verdict::BugFound);
  EXPECT_FALSE(R.Trace.empty());
  // The violating path ends inside the lock automaton.
  EXPECT_EQ(R.Trace.back().ProcName, "AcquireLock");
}

TEST(DriverModels, IoctlValidates) {
  auto Drivers = table1Drivers();
  ASSERT_EQ(Drivers[1].Name, "ioctl");
  EXPECT_EQ(checkDriver(Drivers[1]).V, SlamResult::Verdict::Validated);
}

TEST(DriverModels, OpenclosValidates) {
  auto Drivers = table1Drivers();
  ASSERT_EQ(Drivers[2].Name, "openclos");
  EXPECT_EQ(checkDriver(Drivers[2]).V, SlamResult::Verdict::Validated);
}

TEST(DriverModels, SrdriverValidates) {
  auto Drivers = table1Drivers();
  ASSERT_EQ(Drivers[3].Name, "srdriver");
  SlamResult R = checkDriver(Drivers[3]);
  EXPECT_EQ(R.V, SlamResult::Verdict::Validated);
  // Refinement discovered the per-dispatch flag predicates.
  EXPECT_GT(R.Predicates.totalCount(), 2u);
  // "It usually converges in a few iterations."
  EXPECT_LE(R.Iterations, 12);
}

TEST(DriverModels, LogValidates) {
  auto Drivers = table1Drivers();
  ASSERT_EQ(Drivers[4].Name, "log");
  EXPECT_EQ(checkDriver(Drivers[4]).V, SlamResult::Verdict::Validated);
}

TEST(DriverModels, FixedFloppyValidates) {
  // The same floppy model without the planted bug verifies clean —
  // the error is the injected one, not an artifact of the model.
  DriverConfig C{"floppy-fixed", 10, 5, 3, 14, true, false, 11};
  DriverModel M = generateDriver(C);
  EXPECT_EQ(checkDriver(M).V, SlamResult::Verdict::Validated);
}

} // namespace
