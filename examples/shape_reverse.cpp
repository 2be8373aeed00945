//===- shape_reverse.cpp - Figure 3 and the no-spurious-errors guarantee ----===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Figure 3's mark procedure traverses a list twice, reversing and then
// restoring the next pointers; the auxiliary variables h and hnext
// witness that the shape is preserved (h->next == hnext at the end).
//
// This example also demonstrates the SLAM toolkit's central guarantee:
// it NEVER reports a spurious error path. When the abstraction over the
// paper's seven predicates admits an abstract violation of the shape
// property, Newton's symbolic replay shows the abstract path is not
// concretely executable, so nothing is reported to the user — instead
// new predicates are proposed for refinement.
//
//===----------------------------------------------------------------------===//

#include "bebop/Bebop.h"
#include "c2bp/C2bp.h"
#include "cfront/Normalize.h"
#include "prover/Prover.h"
#include "slam/Newton.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace slam;

int main() {
  const workloads::Workload &W = workloads::reverseWorkload();
  std::printf("== Figure 3: list traversal using back pointers ==\n%s\n",
              W.Source.c_str());
  std::printf("== Predicates (the paper's seven) ==\n%s\n",
              W.Predicates.c_str());

  DiagnosticEngine Diags;
  auto Program = cfront::frontend(W.Source, Diags);
  if (!Program) {
    std::printf("front end failed:\n%s", Diags.str().c_str());
    return 1;
  }
  logic::LogicContext Ctx;
  auto Preds = c2bp::parsePredicateFile(Ctx, W.Predicates, Diags);
  StatsRegistry Stats;
  c2bp::C2bpOptions Options;
  Options.Cubes.MaxCubeLength = 3; // The paper's practical k.
  auto BP = c2bp::abstractProgram(*Program, *Preds, Ctx, Options, &Stats);
  std::printf("abstraction: %llu theorem prover calls\n\n",
              static_cast<unsigned long long>(Stats.get("prover.calls")));

  bebop::Bebop Checker(*BP);
  auto Result = Checker.run(W.Entry);
  if (!Result.AssertViolated) {
    std::printf("Bebop: h->next == hnext holds at L — shape preserved.\n");
    return 0;
  }

  std::printf("Bebop: found an ABSTRACT violation of h->next == hnext\n");
  std::printf("       (a path over %zu statements).\n\n",
              Result.Trace.size());

  // The toolkit detects spurious paths instead of reporting them.
  prover::Prover P(Ctx);
  auto NR = slamtool::analyzeTrace(*Program, Result.Trace, Ctx, P, *Preds);
  if (NR.Feasible) {
    std::printf("Newton: the path is concretely executable — a real "
                "bug (unexpected!).\n");
    return 1;
  }
  std::printf("Newton: the abstract path is NOT concretely executable; "
              "no error is reported.\n");
  std::printf("Predicates proposed for the next refinement round:\n");
  for (const auto &[Proc, V] : NR.NewPreds.PerProc)
    for (logic::ExprRef E : V)
      std::printf("  %s: %s\n", Proc.c_str(), E->str().c_str());
  for (logic::ExprRef E : NR.NewPreds.Globals)
    std::printf("  global: %s\n", E->str().c_str());
  return 0;
}
