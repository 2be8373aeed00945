//===- BenchUtil.h - Shared helpers for the benchmark harness ---*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#ifndef BENCH_BENCHUTIL_H
#define BENCH_BENCHUTIL_H

#include "bebop/Bebop.h"
#include "c2bp/C2bp.h"
#include "cfront/Normalize.h"
#include "support/Json.h"
#include "support/Timer.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <string>

namespace slam {
namespace benchutil {

/// Result of one C2bp (+ optional Bebop) run on a workload.
struct RunRow {
  std::string Name;
  uint64_t ProverCalls = 0;
  uint64_t CubesChecked = 0;
  double C2bpSeconds = 0;
  double BebopSeconds = 0;
  bool Violated = false;
  size_t BddNodes = 0;
  /// Bebop-side counters (BDD node/cache statistics among them).
  std::map<std::string, uint64_t> BebopStats;
};

/// Runs C2bp (and Bebop when \p RunBebop) on one Table 2 workload.
inline RunRow runTable2(const workloads::Workload &W,
                        c2bp::C2bpOptions Options = {},
                        bool RunBebop = true) {
  RunRow Row;
  Row.Name = W.Name;
  DiagnosticEngine Diags;
  logic::LogicContext Ctx;
  auto P = cfront::frontend(W.Source, Diags);
  if (!P)
    return Row;
  auto PS = c2bp::parsePredicateFile(Ctx, W.Predicates, Diags);
  if (!PS)
    return Row;
  StatsRegistry Stats;
  Timer T;
  auto BP = c2bp::abstractProgram(*P, *PS, Ctx, Options, &Stats);
  Row.C2bpSeconds = T.seconds();
  Row.ProverCalls = Stats.get("prover.calls");
  Row.CubesChecked = Stats.get("c2bp.cubes_checked");
  if (BP && RunBebop) {
    StatsRegistry BebopStats;
    Timer T2;
    bebop::Bebop Checker(*BP, &BebopStats);
    auto R = Checker.run(W.Entry);
    Row.BebopSeconds = T2.seconds();
    Row.Violated = R.AssertViolated;
    Row.BddNodes = Checker.bddNodes();
    Row.BebopStats = BebopStats.all();
  }
  return Row;
}

/// Machine-readable snapshot shared by the benchmark mains' `--json`
/// modes, built on json::Writer so escaping and comma placement cannot
/// drift from the rest of the toolkit:
///
///   {"bench": "<tool>", "runs": [{"name": ..., "metrics": {...}}]}
///
/// Every measurement (time, node counts, counters) goes under
/// "metrics" so consumers can treat runs uniformly.
class JsonReport {
public:
  explicit JsonReport(std::string_view Bench) : W(Doc) {
    W.beginObject();
    W.kv("bench", Bench);
    W.key("runs");
    W.beginArray();
  }

  void beginRun(std::string_view Name) {
    W.beginObject();
    W.kv("name", Name);
    W.key("metrics");
    W.beginObject();
  }

  template <typename T> void metric(std::string_view Key, T Value) {
    W.kv(Key, Value);
  }

  void endRun() {
    W.endObject(); // metrics
    W.endObject(); // run
  }

  /// Finishes the document; call once.
  std::string str() {
    W.endArray();
    W.endObject();
    Doc += '\n';
    return Doc;
  }

private:
  std::string Doc;
  json::Writer W;
};

} // namespace benchutil
} // namespace slam

#endif // BENCH_BENCHUTIL_H
