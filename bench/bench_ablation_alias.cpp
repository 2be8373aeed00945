//===- bench_ablation_alias.cpp - Section 4.2's alias pruning ----------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Without a points-to analysis, Morris' axiom must case-split on every
// syntactically possible alias pair (2^k disjuncts for k locations); the
// analysis prunes no-alias pairs outright. Compares the oracle backed by
// Das's one-level flow analysis with the purely syntactic shape oracle
// (c2bp --no-alias) on the pointer-rich Table 2 programs. The shape to
// observe: prover calls and WP sizes drop sharply with the analysis on.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <benchmark/benchmark.h>

using namespace slam;
using namespace slam::benchutil;

namespace {

void BM_Alias(benchmark::State &State, const workloads::Workload *W,
              bool UseAnalysis) {
  for (auto _ : State) {
    c2bp::C2bpOptions Options;
    Options.Cubes.MaxCubeLength = 3;
    Options.UseAliasAnalysis = UseAnalysis;
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
  std::printf("\nAblation: pointer analysis in the WP computation "
              "(Section 4.2), k = 3\n");
  std::printf("%-10s %-12s %12s %10s\n", "program", "oracle",
              "prover calls", "c2bp (s)");
  for (const workloads::Workload *W :
       {&workloads::partitionWorkload(), &workloads::listfindWorkload(),
        &workloads::reverseWorkload()}) {
    for (bool Use : {true, false}) {
      c2bp::C2bpOptions Options;
      Options.Cubes.MaxCubeLength = 3;
      Options.UseAliasAnalysis = Use;
      RunRow Row = runTable2(*W, Options, /*RunBebop=*/false);
      std::printf("%-10s %-12s %12llu %10.2f\n", W->Name.c_str(),
                  Use ? "das" : "syntactic",
                  static_cast<unsigned long long>(Row.ProverCalls),
                  Row.C2bpSeconds);
    }
  }

  benchmark::RegisterBenchmark("alias/partition_das", BM_Alias,
                               &workloads::partitionWorkload(), true)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("alias/partition_syntactic", BM_Alias,
                               &workloads::partitionWorkload(), false)
      ->Unit(benchmark::kMillisecond);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
