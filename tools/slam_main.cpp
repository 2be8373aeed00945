//===- slam_main.cpp - The SLAM command-line driver -------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Usage: slam <program.c> [options] — see `slam --help` (the flag set
// lives in tools/PipelineFlags.h, shared with c2bp and bebop).
//
// stdout carries only the stable result lines (verdict, iterations,
// predicates, error path); work counters and timings — prover-call
// volume, cache effectiveness, the flight recorder — are behind
// --report / --stats-json, so runs at any -j print byte-identical
// output.
//
//===----------------------------------------------------------------------===//

#include "PipelineFlags.h"
#include "cfront/Normalize.h"
#include "slam/Cegar.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace slam;
using slamtool::SlamResult;

/// The logic context must outlive results that reference its terms.
static logic::LogicContext &Ctx() {
  static logic::LogicContext C;
  return C;
}

int main(int argc, char **argv) {
  tools::PipelineArgs PA;
  if (auto Exit =
          tools::parsePipelineFlags(tools::ToolKind::Slam, argc, argv, PA))
    return *Exit;

  std::ifstream In(PA.Inputs[0]);
  if (!In) {
    std::fprintf(stderr, "slam: cannot read '%s'\n", PA.Inputs[0].c_str());
    return 2;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Source = Buf.str();

  tools::ObservabilityFlags Obs(PA.Options.Obs);
  Obs.install();
  DiagnosticEngine Diags;
  StatsRegistry Stats;
  std::optional<SlamResult> R;
  if (PA.HaveSpec) {
    R = slamtool::checkSafety(Source, PA.Spec, Ctx(), Diags, PA.Options,
                              &Stats);
  } else {
    auto P = cfront::frontend(Source, Diags);
    if (P && slamtool::findEntry(*P, PA.Options.Cegar.EntryProc, Diags))
      R = slamtool::checkProgram(*P, {}, Ctx(), PA.Options, &Stats);
  }
  if (!R) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    Obs.finish("slam", Stats);
    return 2;
  }

  const char *Verdict =
      R->V == SlamResult::Verdict::Validated  ? "VALIDATED"
      : R->V == SlamResult::Verdict::BugFound ? "BUG FOUND"
                                              : "UNKNOWN";
  std::printf("verdict: %s\n", Verdict);
  std::printf("iterations: %d\n", R->Iterations);
  std::printf("predicates: %zu\n", R->Predicates.totalCount());
  if (R->V == SlamResult::Verdict::BugFound) {
    std::printf("error path (procedures entered): ");
    std::string Last;
    for (const auto &Step : R->Trace) {
      if (Step.ProcName != Last)
        std::printf("%s ", Step.ProcName.c_str());
      Last = Step.ProcName;
    }
    std::printf("\n");
  }

  if (Obs.wantReport())
    std::printf("\nCEGAR flight recorder:\n%s",
                slamtool::formatFlightLog(R->FlightLog).c_str());

  if (!Obs.finish("slam", Stats))
    return 2;
  return R->V == SlamResult::Verdict::BugFound ? 1 : 0;
}
