//===- proccall_abstraction.cpp - Figure 2 and Section 4.5 ------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The modular procedure-call machinery: signatures (formal-parameter
// predicates E_f and return predicates E_r, Section 4.5.2) computed for
// Figure 2's `bar`, and the abstraction of `r = bar(p, x)` in `foo` —
// choose(...) actuals, return-value temporaries, and the post-call
// update of the caller's invalidated predicates.
//
//===----------------------------------------------------------------------===//

#include "alias/ModRef.h"
#include "c2bp/C2bp.h"
#include "c2bp/Signatures.h"
#include "cfront/Normalize.h"

#include <cstdio>

using namespace slam;

int main() {
  const char *Source = R"(
int bar(int *q, int y) {
  int l1, l2;
  if (*q > y) {
    *q = y;
  }
  l1 = y;
  l2 = y - 1;
  return l1;
}

void foo(int *p, int x) {
  int r;
  if (*p <= x) {
    *p = x;
  } else {
    *p = *p + x;
  }
  r = bar(p, x);
}
)";
  const char *Predicates = R"(
bar:
  y >= 0, *q <= y, y == l1, y > l2
foo:
  *p <= 0, x == 0, r == 0
)";

  std::printf("== Figure 2: the C procedures ==\n%s\n", Source);
  std::printf("== Predicates ==\n%s\n", Predicates);

  DiagnosticEngine Diags;
  auto Program = cfront::frontend(Source, Diags);
  if (!Program) {
    std::printf("front end failed:\n%s", Diags.str().c_str());
    return 1;
  }
  logic::LogicContext Ctx;
  auto Preds = c2bp::parsePredicateFile(Ctx, Predicates, Diags);

  // The signature of bar, computable in isolation (Section 4.5.2).
  alias::PointsTo PT(*Program);
  alias::ModRef MR(*Program, PT);
  c2bp::ProcSignature Sig = c2bp::computeSignature(
      *Program, *Program->findFunction("bar"), Preds->forProc("bar"), PT, MR);
  std::printf("== Signature of bar ==\n");
  std::printf("return variable r: %s\n",
              Sig.RetVar ? Sig.RetVar->Name.c_str() : "<void>");
  std::printf("E_f (formal parameter predicates):\n");
  for (logic::ExprRef E : Sig.Formals)
    std::printf("  %s\n", E->str().c_str());
  std::printf("E_r (return predicates):\n");
  for (logic::ExprRef E : Sig.Returns)
    std::printf("  %s\n", E->str().c_str());

  // The full abstraction: bar' gets bool<|E_r|> returns; the call in
  // foo' passes choose(...) actuals and updates r == 0 and *p <= 0
  // from the returned temporaries.
  StatsRegistry Stats;
  auto BP = c2bp::abstractProgram(*Program, *Preds, Ctx, {}, &Stats);
  std::printf("\n== BP(P, E) ==\n%s", BP->str().c_str());
  std::printf("theorem prover calls: %llu\n",
              static_cast<unsigned long long>(Stats.get("prover.calls")));
  return 0;
}
