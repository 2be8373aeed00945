//===- bench_slam.cpp - SLAM runs with and without the memo ---------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Measures what the cross-iteration abstraction memo buys on the driver
// models: each model is checked once with the memo and once without
// (`--no-incremental`). `--json` emits the benchutil::JsonReport schema
// instead of the table.
//
//===----------------------------------------------------------------------===//

#include "slam/Cegar.h"
#include "support/Timer.h"
#include "workloads/Workloads.h"

#include "BenchUtil.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace slam;
using slamtool::SlamResult;

namespace {

struct CheckedRun {
  double Seconds = 0;
  int Iterations = 0;
  uint64_t ProverCalls = 0;
  uint64_t MemoHits = 0;
  uint64_t StmtsReused = 0;
  bool Validated = false;
};

CheckedRun runOnce(const workloads::DriverModel &M, bool Incremental) {
  logic::LogicContext Ctx;
  DiagnosticEngine Diags;
  StatsRegistry Stats;
  slamtool::PipelineOptions Options;
  Options.C2bp.Cubes.MaxCubeLength = 3;
  Options.Cegar.Incremental = Incremental;
  Timer T;
  auto R = slamtool::checkSafety(M.Source, M.Spec, Ctx, Diags, Options,
                                 &Stats);
  CheckedRun Out;
  Out.Seconds = T.seconds();
  if (R) {
    Out.Iterations = R->Iterations;
    Out.Validated = R->V == SlamResult::Verdict::Validated;
  }
  Out.ProverCalls = Stats.get("prover.calls");
  Out.MemoHits = Stats.get("c2bp.memo_hits");
  Out.StmtsReused = Stats.get("c2bp.stmts_reused");
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  bool Json = argc > 1 && !std::strcmp(argv[1], "--json");

  benchutil::JsonReport Report("bench_slam");
  auto emit = [&](const std::string &Name, const CheckedRun &R) {
    Report.beginRun(Name);
    Report.metric("seconds", R.Seconds);
    Report.metric("iterations", static_cast<uint64_t>(R.Iterations));
    Report.metric("prover_calls", R.ProverCalls);
    Report.metric("memo_hits", R.MemoHits);
    Report.metric("stmts_reused", R.StmtsReused);
    Report.metric("validated", R.Validated);
    Report.endRun();
  };

  if (!Json)
    std::printf("\nSLAM runs with and without the abstraction memo\n"
                "%-14s %-8s %9s %6s %8s %7s\n", "model", "run",
                "time (s)", "iters", "prover", "memo");
  for (const auto &M : workloads::table1Drivers()) {
    CheckedRun Memo = runOnce(M, /*Incremental=*/true);
    CheckedRun NoMemo = runOnce(M, /*Incremental=*/false);
    if (Json) {
      emit(M.Name + "/memo", Memo);
      emit(M.Name + "/no-memo", NoMemo);
      continue;
    }
    auto row = [&](const char *Kind, const CheckedRun &R) {
      std::printf("%-14s %-8s %9.3f %6d %8llu %7llu\n", M.Name.c_str(), Kind,
                  R.Seconds, R.Iterations,
                  static_cast<unsigned long long>(R.ProverCalls),
                  static_cast<unsigned long long>(R.MemoHits));
    };
    row("memo", Memo);
    row("no-memo", NoMemo);
  }

  if (Json)
    std::printf("%s", Report.str().c_str());
  return 0;
}
