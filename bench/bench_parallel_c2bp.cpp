//===- bench_parallel_c2bp.cpp - Worker scaling of the abstraction -----------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Scaling of the parallel per-statement abstraction: every Table 1 and
// Table 2 workload at -j 1/2/4/8. The output and the work counters
// reported alongside each benchmark are identical at every worker
// count (the pass merges results in statement order, and every worker
// answers through the run's one prover cache), so the only thing that
// moves is wall-clock time.
//
// Speedup requires hardware parallelism: on a single-core container the
// pool adds only scheduling overhead.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <benchmark/benchmark.h>

using namespace slam;
using namespace slam::benchutil;

namespace {

c2bp::C2bpOptions workerOptions(int Workers) {
  c2bp::C2bpOptions Options;
  Options.Cubes.MaxCubeLength = 3;
  Options.NumWorkers = Workers;
  return Options;
}

/// One abstraction pass; Bebop is deliberately excluded so the timing
/// isolates the sharded cube searches.
void runOnce(benchmark::State &State, const workloads::Workload &W,
             const c2bp::C2bpOptions &Options) {
  DiagnosticEngine Diags;
  logic::LogicContext Ctx;
  auto P = cfront::frontend(W.Source, Diags);
  std::optional<c2bp::PredicateSet> PS;
  if (P)
    PS = c2bp::parsePredicateFile(Ctx, W.Predicates, Diags);
  if (!P || !PS) {
    State.SkipWithError("frontend failed");
    return;
  }
  StatsRegistry Stats;
  auto BP = c2bp::abstractProgram(*P, *PS, Ctx, Options, &Stats);
  benchmark::DoNotOptimize(BP);
  State.counters["prover_calls"] =
      static_cast<double>(Stats.get("prover.calls"));
  State.counters["cache_hits"] =
      static_cast<double>(Stats.get("prover.cache_hits") +
                          Stats.get("prover.neg_cache_hits"));
}

void BM_Workload(benchmark::State &State, const workloads::Workload *W,
                 c2bp::C2bpOptions Options) {
  for (auto _ : State)
    runOnce(State, *W, Options);
}

void registerWorkload(const std::string &Group,
                      const workloads::Workload &W) {
  for (int Workers : {1, 2, 4, 8})
    benchmark::RegisterBenchmark(
        (Group + "/" + W.Name + "/j" + std::to_string(Workers)).c_str(),
        BM_Workload, &W, workerOptions(Workers))
        ->Unit(benchmark::kMillisecond);
}

} // namespace

int main(int argc, char **argv) {
  // Table 1 drivers check a safety property; their workload for this
  // harness is the abstraction of the driver source under the
  // instrumentation predicates, approximated here by the assert-based
  // entry (the C2bp pass itself is property-agnostic).
  static std::vector<workloads::Workload> Table1;
  for (const workloads::DriverModel &D : workloads::table1Drivers()) {
    workloads::Workload W;
    W.Name = D.Name;
    W.Source = D.Source;
    W.Predicates = ""; // Empty set: control-flow skeleton abstraction.
    W.Entry = "main";
    Table1.push_back(std::move(W));
  }
  for (const workloads::Workload &W : Table1)
    registerWorkload("parallel_table1", W);
  for (const workloads::Workload *W : workloads::table2Workloads())
    registerWorkload("parallel_table2", *W);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
