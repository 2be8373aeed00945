//===- bench_ablation_cone.cpp - Section 5.2 optimization 3 ------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The cone-of-influence heuristic restricts each F_V query to the
// predicates (transitively) sharing aliased locations with the query.
// The paper: "In most cases, the cone-of-influence heuristics ... were
// able to reduce the number of theorem prover calls to a manageable
// number. In the case of the reverse example, every pair of pointers
// could potentially alias, and the cone-of-influence heuristics could
// not avoid the exponential number of calls."
//
// This bench shows both effects: partition/kmp benefit; reverse's cone
// degenerates to (nearly) the full predicate set.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <benchmark/benchmark.h>

using namespace slam;
using namespace slam::benchutil;

namespace {

void BM_Cone(benchmark::State &State, const workloads::Workload *W,
             bool Cone) {
  for (auto _ : State) {
    c2bp::C2bpOptions Options;
    Options.Cubes.MaxCubeLength = 3;
    Options.Cubes.ConeOfInfluence = Cone;
    RunRow Row = runTable2(*W, Options, /*RunBebop=*/false);
    State.counters["prover_calls"] =
        static_cast<double>(Row.ProverCalls);
  }
}

} // namespace

int main(int argc, char **argv) {
  // Flags are checked before any table is computed: an unknown or
  // malformed one is an error, not ignored.
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  std::printf("\nAblation: cone of influence (Section 5.2, opt 3), "
              "k = 3\n");
  std::printf("%-10s %8s %12s %12s %10s\n", "program", "cone",
              "prover calls", "cubes", "c2bp (s)");
  for (const workloads::Workload *W :
       {&workloads::kmpWorkload(), &workloads::partitionWorkload(),
        &workloads::reverseWorkload()}) {
    uint64_t With = 0, Without = 0;
    for (bool Cone : {true, false}) {
      c2bp::C2bpOptions Options;
      Options.Cubes.MaxCubeLength = 3;
      Options.Cubes.ConeOfInfluence = Cone;
      RunRow Row = runTable2(*W, Options, /*RunBebop=*/false);
      (Cone ? With : Without) = Row.ProverCalls;
      std::printf("%-10s %8s %12llu %12llu %10.2f\n", W->Name.c_str(),
                  Cone ? "on" : "off",
                  static_cast<unsigned long long>(Row.ProverCalls),
                  static_cast<unsigned long long>(Row.CubesChecked),
                  Row.C2bpSeconds);
    }
    std::printf("%-10s saving: %.1f%%\n", "",
                Without == 0
                    ? 0.0
                    : 100.0 * (1.0 - static_cast<double>(With) /
                                         static_cast<double>(Without)));
  }
  std::printf("\n(reverse shows the paper's pathology: the aliasing web "
              "keeps nearly every\n predicate in every cone.)\n");

  benchmark::RegisterBenchmark("cone/partition_on", BM_Cone,
                               &workloads::partitionWorkload(), true)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("cone/partition_off", BM_Cone,
                               &workloads::partitionWorkload(), false)
      ->Unit(benchmark::kMillisecond);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
