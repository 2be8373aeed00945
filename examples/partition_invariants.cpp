//===- partition_invariants.cpp - Figures 1(a)/(b) and Section 2.2 ----------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Reproduces the paper's running example end to end:
//
//   * Figure 1(b): the boolean program C2bp builds from the list
//     partition procedure and the four predicates;
//   * Section 2.2: the Bebop invariant at label L,
//       (curr != NULL) && (curr->val > v) &&
//       ((prev->val <= v) || (prev == NULL));
//   * the alias refinement: a decision procedure shows the invariant
//     implies *prev and *curr are never aliases at L — which no
//     flow-sensitive alias analysis can see, since none use the values
//     of fields to rule out aliasing.
//
//===----------------------------------------------------------------------===//

#include "bebop/Bebop.h"
#include "c2bp/C2bp.h"
#include "c2bp/CExprToLogic.h"
#include "cfront/Normalize.h"
#include "prover/Prover.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace slam;

int main() {
  const workloads::Workload &W = workloads::partitionWorkload();
  std::printf("== Figure 1(a): the C procedure ==\n%s\n",
              W.Source.c_str());
  std::printf("== Predicate input file ==\n%s\n", W.Predicates.c_str());

  DiagnosticEngine Diags;
  auto Program = cfront::frontend(W.Source, Diags);
  if (!Program) {
    std::printf("front end failed:\n%s", Diags.str().c_str());
    return 1;
  }

  logic::LogicContext Ctx;
  auto Preds = c2bp::parsePredicateFile(Ctx, W.Predicates, Diags);
  StatsRegistry Stats;
  auto BP = c2bp::abstractProgram(*Program, *Preds, Ctx, {}, &Stats);
  std::printf("== Figure 1(b): the boolean program ==\n%s\n",
              BP->str().c_str());

  bebop::Bebop Checker(*BP, &Stats);
  auto Result = Checker.run(W.Entry);
  std::printf("== Section 2.2: model checking ==\n");
  std::printf("assert violations: %s\n",
              Result.AssertViolated ? "yes" : "none");
  std::printf("invariant at label L:\n  %s\n\n",
              Checker.invariantAtLabel(W.Entry, "L").c_str());

  // The alias refinement. Every cube of the invariant must imply
  // prev != curr; a Nelson-Oppen prover decides each implication.
  std::printf("== Alias refinement (prev != curr at L) ==\n");
  prover::Prover P(Ctx);
  auto Cubes = Checker.reachableAtLabel(W.Entry, "L");
  bool AllImply = Cubes && !Cubes->empty();
  for (const auto &Cube : *Cubes) {
    std::vector<logic::ExprRef> Facts;
    for (const auto &[Name, Value] : Cube) {
      DiagnosticEngine D;
      logic::ExprRef E = c2bp::parseExpr(Ctx, Name, D);
      Facts.push_back(Value ? E : Ctx.notE(E));
    }
    logic::ExprRef State = Ctx.andE(Facts);
    logic::ExprRef Goal = Ctx.ne(Ctx.var("prev"), Ctx.var("curr"));
    bool Implies = P.implies(State, Goal) == prover::Validity::Valid;
    std::printf("  %s  =>  prev != curr : %s\n", State->str().c_str(),
                Implies ? "valid" : "NOT valid");
    AllImply &= Implies;
  }
  std::printf("\n*prev and *curr are %s aliases at L.\n",
              AllImply ? "never" : "possibly");
  std::printf("(theorem prover calls total: %llu)\n",
              static_cast<unsigned long long>(Stats.get("prover.calls")));
  return AllImply && !Result.AssertViolated ? 0 : 1;
}
