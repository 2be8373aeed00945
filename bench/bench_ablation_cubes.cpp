//===- bench_ablation_cubes.cpp - Section 5.2 optimizations 1 and k ----------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Ablates the cube-enumeration optimizations:
//
//   * optimization 1 (prime-implicant pruning): with it off, every cube
//     up to the length bound is checked — the prover-call count shows
//     the savings;
//   * the maximum cube length k in {1, 2, 3, unlimited}: the paper
//     reports k = 3 usually suffices; here k = 1 loses qsort's bounds
//     (2- and 3-literal cubes are needed) while k = 3 matches the exact
//     result at a fraction of the calls.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <benchmark/benchmark.h>

using namespace slam;
using namespace slam::benchutil;

namespace {

void BM_CubeConfig(benchmark::State &State, const workloads::Workload *W,
                   int MaxLen, bool Prune) {
  for (auto _ : State) {
    c2bp::C2bpOptions Options;
    Options.Cubes.MaxCubeLength = MaxLen;
    Options.Cubes.PruneSupersets = Prune;
    RunRow Row = runTable2(*W, Options);
    State.counters["prover_calls"] =
        static_cast<double>(Row.ProverCalls);
    State.counters["cubes_checked"] =
        static_cast<double>(Row.CubesChecked);
    State.counters["validated"] = Row.Violated ? 0 : 1;
  }
}

} // namespace

int main(int argc, char **argv) {
  // Flags are checked before any table is computed: an unknown or
  // malformed one is an error, not ignored.
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  std::printf("\nAblation: cube length k and prime-implicant pruning "
              "(Section 5.2, opts 1 and k)\n");
  std::printf("%-10s %6s %6s %12s %12s %10s %9s\n", "program", "k",
              "prune", "prover calls", "cubes", "c2bp (s)", "validated");
  for (const workloads::Workload *W :
       {&workloads::qsortWorkload(), &workloads::partitionWorkload()}) {
    for (int K : {1, 2, 3, -1}) {
      for (bool Prune : {true, false}) {
        if (K == -1 && !Prune && W->Name == "qsort")
          continue; // Unbounded unpruned qsort is deliberately absurd.
        c2bp::C2bpOptions Options;
        Options.Cubes.MaxCubeLength = K;
        Options.Cubes.PruneSupersets = Prune;
        RunRow Row = runTable2(*W, Options);
        std::printf("%-10s %6s %6s %12llu %12llu %10.2f %9s\n",
                    W->Name.c_str(), K < 0 ? "inf" : std::to_string(K).c_str(),
                    Prune ? "on" : "off",
                    static_cast<unsigned long long>(Row.ProverCalls),
                    static_cast<unsigned long long>(Row.CubesChecked),
                    Row.C2bpSeconds, Row.Violated ? "no" : "yes");
      }
    }
  }
  std::printf("\n(k = 3 reproduces the exact result with far fewer "
              "calls — the paper's finding.)\n");

  benchmark::RegisterBenchmark("cubes/partition_k3", BM_CubeConfig,
                               &workloads::partitionWorkload(), 3, true)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("cubes/partition_kinf", BM_CubeConfig,
                               &workloads::partitionWorkload(), -1, true)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("cubes/qsort_k3", BM_CubeConfig,
                               &workloads::qsortWorkload(), 3, true)
      ->Unit(benchmark::kMillisecond);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
