//===- bench_bdd.cpp - BDD package micro-benchmarks ---------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The operations Bebop leans on: conjunction/disjunction of transfer
// relations, existential quantification of staged rails, and the
// order-preserving renames between rails.
//
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"

#include <benchmark/benchmark.h>

using namespace slam;
using namespace slam::bdd;

namespace {

/// Builds the "rail equality" relation AND_i (x_i <-> y_i) over N pairs
/// — the workhorse shape of Bebop's bind relations.
Node railEquality(BddManager &M, int N) {
  Node R = BddManager::True;
  for (int I = 0; I != N; ++I)
    R = M.mkAnd(R, M.mkXnor(M.varNode(2 * I), M.varNode(2 * I + 1)));
  return R;
}

void BM_RailEquality(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  for (auto _ : State) {
    BddManager M;
    for (int I = 0; I != 2 * N; ++I)
      M.newVar();
    benchmark::DoNotOptimize(railEquality(M, N));
    State.counters["nodes"] = static_cast<double>(M.numNodes());
  }
}
BENCHMARK(BM_RailEquality)->Arg(8)->Arg(16)->Arg(32);

void BM_ExistsSweep(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  BddManager M;
  for (int I = 0; I != 2 * N; ++I)
    M.newVar();
  Node R = railEquality(M, N);
  std::vector<int> Evens;
  for (int I = 0; I != N; ++I)
    Evens.push_back(2 * I);
  VarSet Quant = M.varSet(Evens);
  for (auto _ : State)
    benchmark::DoNotOptimize(M.exists(R, Quant));
}
BENCHMARK(BM_ExistsSweep)->Arg(8)->Arg(16)->Arg(32);

void BM_Rename(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  BddManager M;
  for (int I = 0; I != 2 * N; ++I)
    M.newVar();
  // A function over the even rail; rename to the odd rail.
  Node F = BddManager::True;
  for (int I = 0; I + 2 < N; ++I)
    F = M.mkAnd(F, M.mkOr(M.varNode(2 * I), M.varNode(2 * I + 2)));
  std::map<int, int> Ren;
  for (int I = 0; I != N; ++I)
    Ren[2 * I] = 2 * I + 1;
  Renaming ToOdd = M.renaming(Ren);
  for (auto _ : State)
    benchmark::DoNotOptimize(M.rename(F, ToOdd));
}
BENCHMARK(BM_Rename)->Arg(8)->Arg(16)->Arg(32);

void BM_AndExists(benchmark::State &State) {
  // The fused relational product vs. its unfused spelling over the
  // post-image shape: exists(evens, states & transfer).
  int N = static_cast<int>(State.range(0));
  bool Fused = State.range(1) != 0;
  BddManager M;
  for (int I = 0; I != 2 * N; ++I)
    M.newVar();
  Node T = railEquality(M, N);
  // A nontrivial state set over the even rail.
  Node S = BddManager::True;
  for (int I = 0; I + 2 < N; ++I)
    S = M.mkAnd(S, M.mkOr(M.varNode(2 * I), M.varNode(2 * I + 2)));
  std::vector<int> Evens;
  for (int I = 0; I != N; ++I)
    Evens.push_back(2 * I);
  VarSet Quant = M.varSet(Evens);
  for (auto _ : State)
    benchmark::DoNotOptimize(Fused ? M.andExists(S, T, Quant)
                                   : M.exists(M.mkAnd(S, T), Quant));
}
BENCHMARK(BM_AndExists)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({32, 0})
    ->Args({32, 1});

void BM_IteChain(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  for (auto _ : State) {
    BddManager M;
    for (int I = 0; I != N; ++I)
      M.newVar();
    Node F = BddManager::False;
    for (int I = 0; I != N; ++I)
      F = M.mkIte(M.varNode(I), M.mkNot(F), F);
    benchmark::DoNotOptimize(F);
  }
}
BENCHMARK(BM_IteChain)->Arg(16)->Arg(64);

} // namespace

BENCHMARK_MAIN();
