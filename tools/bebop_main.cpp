//===- bebop_main.cpp - The bebop command-line tool -------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Usage: bebop <program.bp> [options] — see `bebop --help` (the flag
// set lives in tools/PipelineFlags.h, shared with slam and c2bp).
//
//===----------------------------------------------------------------------===//

#include "PipelineFlags.h"
#include "bebop/Bebop.h"
#include "bp/BPParser.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace slam;

int main(int argc, char **argv) {
  tools::PipelineArgs PA;
  if (auto Exit =
          tools::parsePipelineFlags(tools::ToolKind::Bebop, argc, argv, PA))
    return *Exit;
  const slamtool::BebopToolOptions &Options = PA.Options.Bebop;

  std::ifstream In(PA.Inputs[0]);
  if (!In) {
    std::fprintf(stderr, "bebop: cannot read '%s'\n", PA.Inputs[0].c_str());
    return 2;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();

  DiagnosticEngine Diags;
  auto P = bp::parseBProgram(Buf.str(), Diags);
  if (!P || !bp::verifyBProgram(*P, Diags)) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  if (!P->findProc(Options.EntryProc)) {
    std::fprintf(stderr, "bebop: no procedure '%s'\n",
                 Options.EntryProc.c_str());
    return 2;
  }

  tools::ObservabilityFlags Obs(PA.Options.Obs);
  Obs.install();
  StatsRegistry Stats;
  bebop::Bebop Checker(*P, &Stats);
  // An invariant must come from the complete fixpoint, so a requested
  // one keeps propagation going past the first violation.
  auto R = Checker.run(Options.EntryProc, Options.InvariantProc.empty());
  std::printf("assert violated: %s\n", R.AssertViolated ? "yes" : "no");
  if (R.AssertViolated) {
    std::printf("failing procedure: %s\n", R.FailingProc.c_str());
    if (Options.PrintTrace) {
      std::printf("trace (%zu steps):\n", R.Trace.size());
      for (const auto &Step : R.Trace)
        std::printf("  [%s] %s", Step.ProcName.c_str(),
                    Step.Stmt ? bp::printBStmt(*Step.Stmt).c_str()
                              : "<exit>\n");
    }
  }
  if (!Options.InvariantProc.empty())
    std::printf("invariant at %s:%s: %s\n", Options.InvariantProc.c_str(),
                Options.InvariantLabel.c_str(),
                Checker.invariantAtLabel(Options.InvariantProc,
                                         Options.InvariantLabel).c_str());
  if (Obs.wantReport())
    tools::ObservabilityFlags::printStatsReport(stdout, Stats);
  if (!Obs.finish("bebop", Stats))
    return 2;
  return R.AssertViolated ? 1 : 0;
}
