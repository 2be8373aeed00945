//===- NewtonGoldenTest.cpp - Newton's discoveries pinned to files --------===//
//
// Newton turns each spurious counterexample into new predicates, so the
// predicates a CEGAR run ends with record every path constraint and
// weakest precondition Newton translated along the way. Each test here
// pins one run against a file in newton_golden/: the verdict, the
// number of rounds and the final predicate set, scope by scope in
// insertion order. A direct test pins the predicates Newton harvests
// from reverse's abstract counterexample, whose path reads and writes
// the heap. On a mismatch the actual text is written to
// <name>.newton.actual in the working directory.
//
//===----------------------------------------------------------------------===//

#include "workloads/Workloads.h"

#include "bebop/Bebop.h"
#include "c2bp/C2bp.h"
#include "cfront/Normalize.h"
#include "slam/Cegar.h"
#include "slam/Newton.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace slam;
using namespace slam::workloads;
using slamtool::SafetySpec;
using slamtool::SlamResult;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// One line per predicate, `<scope>: <text>`, globals first.
std::string renderPredicates(const c2bp::PredicateSet &Preds) {
  std::string Out;
  for (logic::ExprRef E : Preds.Globals)
    Out += "global: " + E->str() + "\n";
  for (const auto &[Proc, V] : Preds.PerProc)
    for (logic::ExprRef E : V)
      Out += Proc + ": " + E->str() + "\n";
  return Out;
}

void expectGolden(const std::string &Name, const std::string &Actual) {
  std::string File = Name + ".newton";
  std::string Golden = readFile(SLAM_NEWTON_GOLDEN_DIR "/" + File);
  if (Golden != Actual)
    std::ofstream(File + ".actual") << Actual;
  EXPECT_EQ(Golden, Actual) << "differs from newton_golden/" << File;
}

/// The SLAM loop on \p Source at k = 3 (the slam tool's default) and
/// -j \p Workers. Every worker count must reach the same golden file.
void expectSlamGolden(const std::string &Name, std::string_view Source,
                      const SafetySpec &Spec, int Workers) {
  SCOPED_TRACE(Name + " at -j " + std::to_string(Workers));
  logic::LogicContext Ctx;
  DiagnosticEngine Diags;
  slamtool::PipelineOptions Options;
  Options.C2bp.Cubes.MaxCubeLength = 3;
  Options.C2bp.NumWorkers = Workers;
  auto R = slamtool::checkSafety(Source, Spec, Ctx, Diags, Options);
  ASSERT_TRUE(R.has_value()) << Diags.str();
  const char *Verdict = R->V == SlamResult::Verdict::Validated ? "VALIDATED"
                        : R->V == SlamResult::Verdict::BugFound
                            ? "BUG FOUND"
                            : "UNKNOWN";
  expectGolden(Name, std::string("verdict: ") + Verdict + "\niterations: " +
                         std::to_string(R->Iterations) + "\n" +
                         renderPredicates(R->Predicates));
}

SafetySpec lockSpec() {
  return SafetySpec::lockDiscipline("AcquireLock", "ReleaseLock");
}

TEST(NewtonGolden, Table1Drivers) {
  for (const DriverModel &M : table1Drivers())
    for (int Workers : {1, 4})
      expectSlamGolden(M.Name, M.Source, M.Spec, Workers);
}

TEST(NewtonGolden, Dispatch8) {
  DriverConfig C;
  C.Name = "dispatch8";
  C.NumDispatch = 8;
  DriverModel M = generateDriver(C);
  for (int Workers : {1, 4})
    expectSlamGolden("dispatch8", M.Source, M.Spec, Workers);
}

TEST(NewtonGolden, ExamplePrograms) {
  std::string Dispatch = readFile(SLAM_EXAMPLES_DIR "/dispatch.c");
  std::string Locking = readFile(SLAM_EXAMPLES_DIR "/locking.c");
  std::string Irp = readFile(SLAM_EXAMPLES_DIR "/irp.c");
  for (int Workers : {1, 4}) {
    expectSlamGolden("dispatch", Dispatch, lockSpec(), Workers);
    expectSlamGolden("locking", Locking, lockSpec(), Workers);
    expectSlamGolden(
        "irp", Irp,
        SafetySpec::irpDiscipline("CompleteRequest", "MarkPending"), Workers);
  }
}

TEST(NewtonGolden, ReverseHeapPath) {
  // Bebop's counterexample for mark at k = 3, replayed with no existing
  // predicates, so every harvested one is reported.
  const Workload &W = reverseWorkload();
  logic::LogicContext Ctx;
  DiagnosticEngine Diags;
  auto Prog = cfront::frontend(W.Source, Diags);
  ASSERT_TRUE(Prog != nullptr) << Diags.str();
  auto PS = c2bp::parsePredicateFile(Ctx, W.Predicates, Diags);
  ASSERT_TRUE(PS.has_value()) << Diags.str();
  c2bp::C2bpOptions Options;
  Options.Cubes.MaxCubeLength = 3;
  auto BP = c2bp::abstractProgram(*Prog, *PS, Ctx, Options);
  ASSERT_TRUE(BP != nullptr);
  bebop::Bebop Checker(*BP);
  bebop::CheckResult R = Checker.run(W.Entry);
  ASSERT_TRUE(R.AssertViolated);
  prover::Prover P(Ctx);
  slamtool::NewtonResult NR =
      slamtool::analyzeTrace(*Prog, R.Trace, Ctx, P, c2bp::PredicateSet());
  expectGolden("reverse", std::string("feasible: ") +
                              (NR.Feasible ? "yes" : "no") + "\n" +
                              renderPredicates(NR.NewPreds));
}

} // namespace
