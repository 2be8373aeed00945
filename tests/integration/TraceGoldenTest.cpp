//===- TraceGoldenTest.cpp - Counterexample traces pinned step by step -----===//
//
// Bebop rebuilds a counterexample by walking path edges backwards:
// statement pre-images, callee splices at call sites and ascents from a
// callee's entry to the caller that seeded it. Each test here pins every
// step of one trace against a file in trace_golden/: the procedure, the
// CFG operation, the originating C statement and the printed boolean
// statement. On a mismatch the trace actually produced is written to
// <name>.trace.actual in the working directory.
//
//===----------------------------------------------------------------------===//

#include "workloads/Workloads.h"

#include "bebop/Bebop.h"
#include "bp/BPParser.h"
#include "slam/Cegar.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace slam;
using namespace slam::bebop;
using slam::bp::NodeOp;
using slamtool::SlamResult;

namespace {

const char *opName(NodeOp Op) {
  switch (Op) {
  case NodeOp::Entry:
    return "Entry";
  case NodeOp::Exit:
    return "Exit";
  case NodeOp::Skip:
    return "Skip";
  case NodeOp::Assign:
    return "Assign";
  case NodeOp::Call:
    return "Call";
  case NodeOp::Assume:
    return "Assume";
  case NodeOp::Assert:
    return "Assert";
  case NodeOp::Return:
    return "Return";
  }
  return "?";
}

/// One header line per step, then its printed statement indented.
std::string render(const std::vector<TraceStep> &Trace) {
  std::string Out;
  for (size_t I = 0; I != Trace.size(); ++I) {
    const TraceStep &S = Trace[I];
    Out += std::to_string(I) + ": [" + S.ProcName + "] " + opName(S.Op) +
           " origin " + std::to_string(S.OriginId) + "\n";
    if (!S.Stmt)
      continue;
    std::istringstream Lines(bp::printBStmt(*S.Stmt));
    for (std::string Line; std::getline(Lines, Line);)
      Out += "    " + Line + "\n";
  }
  return Out;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

void expectGolden(const std::string &Name, const std::string &Actual) {
  std::string File = Name + ".trace";
  std::string Golden = readFile(SLAM_TRACE_GOLDEN_DIR "/" + File);
  if (Golden != Actual)
    std::ofstream(File + ".actual") << Actual;
  EXPECT_EQ(Golden, Actual) << "trace differs from trace_golden/" << File;
}

/// Bebop's trace to the first violation from \p Entry, as `bebop
/// --entry <Entry> --trace` computes it.
void expectBebopGolden(const std::string &Name, const std::string &Path,
                       const std::string &Entry) {
  DiagnosticEngine Diags;
  auto P = bp::parseBProgram(readFile(Path), Diags);
  ASSERT_TRUE(P && bp::verifyBProgram(*P, Diags)) << Diags.str();
  Bebop Checker(*P);
  CheckResult R = Checker.run(Entry);
  ASSERT_TRUE(R.AssertViolated);
  expectGolden(Name, render(R.Trace));
}

/// The final trace of the SLAM loop at k = 3 (the slam tool's default)
/// and -j \p Workers. Every worker count must reach the same golden file.
void expectSlamGolden(const std::string &Name, std::string_view Source,
                      const slamtool::SafetySpec &Spec, int Workers) {
  SCOPED_TRACE(Name + " at -j " + std::to_string(Workers));
  logic::LogicContext Ctx;
  DiagnosticEngine Diags;
  slamtool::PipelineOptions Options;
  Options.C2bp.Cubes.MaxCubeLength = 3;
  Options.C2bp.NumWorkers = Workers;
  auto R = slamtool::checkSafety(Source, Spec, Ctx, Diags, Options);
  ASSERT_TRUE(R.has_value()) << Diags.str();
  ASSERT_EQ(R->V, SlamResult::Verdict::BugFound);
  expectGolden(Name, render(R->Trace));
}

TEST(TraceGolden, ReverseMarkBooleanProgram) {
  expectBebopGolden("reverse_mark",
                    SLAM_TABLE2_GOLDEN_DIR "/reverse.k3.bp", "mark");
}

TEST(TraceGolden, InvariantAfterViolation) {
  expectBebopGolden("invariant_after_violation",
                    SLAM_EXAMPLES_DIR "/invariant_after_violation.bp",
                    "main");
}

TEST(TraceGolden, FloppyFinalTrace) {
  workloads::DriverModel Floppy = workloads::table1Drivers()[0];
  ASSERT_EQ(Floppy.Name, "floppy");
  for (int Workers : {1, 4})
    expectSlamGolden("floppy", Floppy.Source, Floppy.Spec, Workers);
}

TEST(TraceGolden, LockingBugFinalTrace) {
  std::string Source = readFile(SLAM_EXAMPLES_DIR "/locking_bug.c");
  for (int Workers : {1, 4})
    expectSlamGolden(
        "locking_bug", Source,
        slamtool::SafetySpec::lockDiscipline("AcquireLock", "ReleaseLock"),
        Workers);
}

} // namespace
