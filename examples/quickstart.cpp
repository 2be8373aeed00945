//===- quickstart.cpp - Five-minute tour of the toolkit --------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The smallest end-to-end use of the library: abstract a C program with
// respect to two predicates (C2bp), model check the resulting boolean
// program (Bebop), and read off an invariant.
//
//===----------------------------------------------------------------------===//

#include "bebop/Bebop.h"
#include "c2bp/C2bp.h"
#include "cfront/Normalize.h"

#include <cstdio>

using namespace slam;

int main() {
  // 1. A C program. `lock` follows a strict acquire/release discipline
  //    guarded by a status flag.
  const char *Source = R"(
int lock;
void main() {
  int status;
  status = 0;
  lock = 1;
  if (status == 0) {
    status = 1;
  }
  lock = 0;
  DONE: assert(lock == 0);
}
)";

  // 2. Predicates to track (a predicate input file, Section 2.1).
  const char *Predicates = R"(
global:
  lock == 0
main:
  status == 0
)";

  std::printf("== The C program ==\n%s\n", Source);

  // 3. Front end: parse, check, normalize to the simple intermediate
  //    form of Section 4.
  DiagnosticEngine Diags;
  auto Program = cfront::frontend(Source, Diags);
  if (!Program) {
    std::printf("front end failed:\n%s", Diags.str().c_str());
    return 1;
  }

  // 4. C2bp: build the boolean program BP(P, E).
  logic::LogicContext Ctx;
  auto Preds = c2bp::parsePredicateFile(Ctx, Predicates, Diags);
  if (!Preds) {
    std::printf("bad predicates:\n%s", Diags.str().c_str());
    return 1;
  }
  StatsRegistry Stats;
  auto BP = c2bp::abstractProgram(*Program, *Preds, Ctx, {}, &Stats);
  std::printf("== BP(P, E), the boolean program ==\n%s\n",
              BP->str().c_str());
  std::printf("theorem prover calls during abstraction: %llu\n\n",
              static_cast<unsigned long long>(Stats.get("prover.calls")));

  // 5. Bebop: reachable states by interprocedural BDD dataflow.
  bebop::Bebop Checker(*BP);
  auto Result = Checker.run("main");
  std::printf("== Bebop ==\nassert violated: %s\n",
              Result.AssertViolated ? "yes" : "no");
  std::printf("invariant at label DONE: %s\n",
              Checker.invariantAtLabel("main", "DONE").c_str());
  return Result.AssertViolated ? 1 : 0;
}
