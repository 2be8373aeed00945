//===- bench_prover.cpp - Theorem prover micro-benchmarks --------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The paper: "Profiling shows that the running time of C2bp is
// dominated by the cost of theorem proving." These micro-benchmarks
// measure the cost of the query classes the cube search issues:
// equality-only (congruence closure fast path), linear arithmetic
// (Simplex + branch-and-bound), pointer queries (EUF/LIA combination),
// and the effect of the query cache.
//
//===----------------------------------------------------------------------===//

#include "c2bp/CExprToLogic.h"
#include "prover/Prover.h"

#include <benchmark/benchmark.h>

using namespace slam;

namespace {

logic::ExprRef parse(logic::LogicContext &Ctx, const std::string &Text) {
  DiagnosticEngine Diags;
  logic::ExprRef E = c2bp::parseExpr(Ctx, Text, Diags);
  assert(E && "benchmark formulas must parse");
  return E;
}

void BM_EqualityOnly(benchmark::State &State) {
  logic::LogicContext Ctx;
  logic::ExprRef A = parse(Ctx, "x == 1 && y == 2 && z == x");
  logic::ExprRef C = parse(Ctx, "z == 1");
  for (auto _ : State) {
    prover::Prover P(Ctx);
    benchmark::DoNotOptimize(P.implies(A, C));
  }
}
BENCHMARK(BM_EqualityOnly);

void BM_LinearArithmetic(benchmark::State &State) {
  logic::LogicContext Ctx;
  logic::ExprRef A =
      parse(Ctx, "lo >= 0 && hi < n && i <= hi && p <= i && lo < hi");
  logic::ExprRef C = parse(Ctx, "p < n");
  for (auto _ : State) {
    prover::Prover P(Ctx);
    benchmark::DoNotOptimize(P.implies(A, C));
  }
}
BENCHMARK(BM_LinearArithmetic);

void BM_PointerCombination(benchmark::State &State) {
  logic::LogicContext Ctx;
  // The Section 2.2 alias-refinement query: EUF + LIA combination.
  logic::ExprRef A = parse(
      Ctx, "curr != NULL && curr->val > v && prev->val <= v");
  logic::ExprRef C = parse(Ctx, "prev != curr");
  for (auto _ : State) {
    prover::Prover P(Ctx);
    benchmark::DoNotOptimize(P.implies(A, C));
  }
}
BENCHMARK(BM_PointerCombination);

void BM_IntegerBranchAndBound(benchmark::State &State) {
  logic::LogicContext Ctx;
  logic::ExprRef A = parse(Ctx, "x > 3 && x < 5");
  logic::ExprRef C = parse(Ctx, "x == 4");
  for (auto _ : State) {
    prover::Prover P(Ctx);
    benchmark::DoNotOptimize(P.implies(A, C));
  }
}
BENCHMARK(BM_IntegerBranchAndBound);

void BM_CacheHit(benchmark::State &State) {
  logic::LogicContext Ctx;
  prover::Prover P(Ctx);
  logic::ExprRef A = parse(Ctx, "x == 2");
  logic::ExprRef C = parse(Ctx, "x < 4");
  P.implies(A, C); // Warm the cache.
  for (auto _ : State)
    benchmark::DoNotOptimize(P.implies(A, C));
}
BENCHMARK(BM_CacheHit);

void BM_DisjunctiveSkeleton(benchmark::State &State) {
  logic::LogicContext Ctx;
  logic::ExprRef A = parse(Ctx, "(x == 1 || x == 2) && (y == x || y == 0)");
  logic::ExprRef C = parse(Ctx, "y <= 2");
  for (auto _ : State) {
    prover::Prover P(Ctx);
    benchmark::DoNotOptimize(P.implies(A, C));
  }
}
BENCHMARK(BM_DisjunctiveSkeleton);

} // namespace

BENCHMARK_MAIN();
