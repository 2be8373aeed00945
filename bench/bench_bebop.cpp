//===- bench_bebop.cpp - Bebop scaling ("under 10 seconds") ------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The paper: "For all these examples ... Bebop ran in under 10 seconds
// on the boolean program output by C2bp." Three measurements:
//
//   1. Bebop on every boolean program our Table 1 / Table 2 runs
//      produce (all should be well under the bound);
//   2. a synthetic scaling sweep: generated boolean programs with
//      growing variable counts and loop nests, reporting time and peak
//      BDD node counts (the symbolic representation is what keeps the
//      2^n state spaces tractable);
//   3. a relational-product-heavy sweep: mirrored equalities spanning
//      the variable order force path-edge BDDs exponential in the pair
//      count, so the exists(and(...)) in Bebop's post-image dominates.
//
// `--json` prints the same measurements as a machine-readable snapshot
// ({"bench": "bench_bebop", "runs": [{"name", "metrics": {...}}]},
// the benchutil::JsonReport schema) and skips the registered
// benchmarks.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "bp/BPParser.h"

#include <benchmark/benchmark.h>

#include <cstring>

using namespace slam;

namespace {

/// Generates a boolean program with N correlated variables updated in
/// nested nondeterministic control flow, plus an invariant assert.
std::string syntheticBP(int NumVars) {
  std::string Out = "void main() begin\n  decl ";
  for (int I = 0; I != NumVars; ++I)
    Out += (I ? ", b" : "b") + std::to_string(I);
  Out += ";\n";
  // Establish a parity invariant: b0 == b1, b2 == b3, ...
  for (int I = 0; I + 1 < NumVars; I += 2) {
    Out += "  b" + std::to_string(I) + " := *;\n";
    Out += "  b" + std::to_string(I + 1) + " := b" + std::to_string(I) +
           ";\n";
  }
  // Churn inside a loop, preserving the invariant pairwise.
  Out += "  while (*) begin\n";
  for (int I = 0; I + 1 < NumVars; I += 2) {
    Out += "    if (*) begin\n";
    Out += "      b" + std::to_string(I) + ", b" + std::to_string(I + 1) +
           " := !b" + std::to_string(I) + ", !b" + std::to_string(I + 1) +
           ";\n";
    Out += "    end\n";
  }
  Out += "  end\n";
  for (int I = 0; I + 1 < NumVars; I += 2)
    Out += "  assert(b" + std::to_string(I) + " == b" +
           std::to_string(I + 1) + ");\n";
  Out += "end\n";
  return Out;
}

/// Generates the relational-product-heavy variant: the invariant pairs
/// b_i with b_{N-1-i}, so every equality spans the whole variable order
/// and the reachable-state BDD has ~2^(N/2) nodes. The loop churn then
/// pushes that BDD through Bebop's post-image (an exists of a
/// conjunction) on every iteration.
std::string mirrorBP(int NumVars) {
  std::string Out = "void main() begin\n  decl ";
  for (int I = 0; I != NumVars; ++I)
    Out += (I ? ", b" : "b") + std::to_string(I);
  Out += ";\n";
  for (int I = 0; I < NumVars / 2; ++I) {
    Out += "  b" + std::to_string(I) + " := *;\n";
    Out += "  b" + std::to_string(NumVars - 1 - I) + " := b" +
           std::to_string(I) + ";\n";
  }
  Out += "  while (*) begin\n";
  for (int I = 0; I < NumVars / 2; ++I) {
    Out += "    if (*) begin\n";
    Out += "      b" + std::to_string(I) + ", b" +
           std::to_string(NumVars - 1 - I) + " := !b" + std::to_string(I) +
           ", !b" + std::to_string(NumVars - 1 - I) + ";\n";
    Out += "    end\n";
  }
  Out += "  end\n";
  for (int I = 0; I < NumVars / 2; ++I)
    Out += "  assert(b" + std::to_string(I) + " == b" +
           std::to_string(NumVars - 1 - I) + ");\n";
  Out += "end\n";
  return Out;
}

struct SyntheticRun {
  double Seconds = 0;
  size_t BddNodes = 0;
  bool Violated = false;
  std::map<std::string, uint64_t> Stats;
};

SyntheticRun runGenerated(const std::string &Source) {
  SyntheticRun Run;
  DiagnosticEngine Diags;
  auto P = bp::parseBProgram(Source, Diags);
  StatsRegistry Stats;
  Timer T;
  bebop::Bebop Checker(*P, &Stats);
  auto R = Checker.run("main");
  Run.Seconds = T.seconds();
  Run.Violated = R.AssertViolated;
  Run.BddNodes = Checker.bddNodes();
  Run.Stats = Stats.all();
  return Run;
}

void BM_BebopSynthetic(benchmark::State &State) {
  int NumVars = static_cast<int>(State.range(0));
  for (auto _ : State) {
    SyntheticRun Run = runGenerated(syntheticBP(NumVars));
    benchmark::DoNotOptimize(Run.Seconds);
    State.counters["bdd_nodes"] = static_cast<double>(Run.BddNodes);
  }
}

BENCHMARK(BM_BebopSynthetic)
    ->Arg(8)
    ->Arg(16)
    ->Arg(24)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_BebopMirror(benchmark::State &State) {
  int NumVars = static_cast<int>(State.range(0));
  for (auto _ : State) {
    SyntheticRun Run = runGenerated(mirrorBP(NumVars));
    benchmark::DoNotOptimize(Run.Seconds);
    State.counters["bdd_nodes"] = static_cast<double>(Run.BddNodes);
  }
}

BENCHMARK(BM_BebopMirror)
    ->Arg(16)
    ->Arg(20)
    ->Arg(24)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  bool Json = false;
  // Strip --json before google-benchmark sees the argument list.
  int Out = 1;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--json"))
      Json = true;
    else
      argv[Out++] = argv[I];
  }
  argc = Out;

  // Flags are checked before any table is computed: an unknown or
  // malformed one is an error, not ignored.
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;

  benchutil::JsonReport Report("bench_bebop");
  auto emit = [&](const std::string &Name, double Seconds, size_t BddNodes,
                  bool Violated, const std::map<std::string, uint64_t> &Stats) {
    Report.beginRun(Name);
    Report.metric("seconds", Seconds);
    Report.metric("bdd_nodes", static_cast<uint64_t>(BddNodes));
    Report.metric("violated", Violated);
    for (const auto &[Key, Value] : Stats) {
      // Only the BDD-engine counters; step counts are noise here.
      if (Key.rfind("bebop.bdd", 0) != 0)
        continue;
      Report.metric(Key, Value);
    }
    Report.endRun();
  };

  if (!Json)
    std::printf("\nBebop on the Table 2 boolean programs (paper: \"under "
                "10 seconds\" each)\n%-10s %10s %9s\n", "program",
                "bebop (s)", "violated");
  for (const workloads::Workload *W : workloads::table2Workloads()) {
    c2bp::C2bpOptions Options;
    Options.Cubes.MaxCubeLength = 3;
    benchutil::RunRow Row = benchutil::runTable2(*W, Options);
    if (Json)
      emit("table2/" + Row.Name, Row.BebopSeconds, Row.BddNodes,
           Row.Violated, Row.BebopStats);
    else
      std::printf("%-10s %10.3f %9s\n", Row.Name.c_str(), Row.BebopSeconds,
                  Row.Violated ? "yes" : "no");
  }

  if (!Json)
    std::printf("\nSynthetic scaling (N correlated variables, loop churn; "
                "2^N states):\n%6s %10s %12s\n", "vars", "time (s)",
                "bdd nodes");
  for (int N : {8, 16, 24, 32, 40}) {
    SyntheticRun Run = runGenerated(syntheticBP(N));
    if (Run.Violated && !Json)
      std::printf("  (unexpected violation at %d vars!)\n", N);
    if (Json)
      emit("synthetic/" + std::to_string(N), Run.Seconds, Run.BddNodes,
           Run.Violated, Run.Stats);
    else
      std::printf("%6d %10.3f %12zu\n", N, Run.Seconds, Run.BddNodes);
  }

  if (!Json)
    std::printf("\nRelational-product-heavy (mirrored equalities; path "
                "edges ~2^(N/2) nodes):\n%6s %10s %12s %14s\n", "vars",
                "time (s)", "bdd nodes", "andexists hits");
  for (int N : {16, 20, 24}) {
    SyntheticRun Run = runGenerated(mirrorBP(N));
    if (Run.Violated && !Json)
      std::printf("  (unexpected violation at %d vars!)\n", N);
    if (Json)
      emit("relprod/" + std::to_string(N), Run.Seconds, Run.BddNodes,
           Run.Violated, Run.Stats);
    else
      std::printf("%6d %10.3f %12zu %14llu\n", N, Run.Seconds, Run.BddNodes,
                  static_cast<unsigned long long>(
                      Run.Stats.count("bebop.bdd.andexists.hits")
                          ? Run.Stats.at("bebop.bdd.andexists.hits")
                          : 0));
  }

  if (Json) {
    std::printf("%s", Report.str().c_str());
    return 0;
  }

  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
