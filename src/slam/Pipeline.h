//===- Pipeline.h - Unified pipeline configuration --------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One options aggregate for the whole toolkit. The three drivers
/// (slam, c2bp, bebop) and every embedded use of the pipeline configure
/// themselves from a single PipelineOptions value, so a knob added for
/// one phase is visible — with the same name and default — everywhere
/// the phase runs. tools/PipelineFlags.h maps command lines onto this
/// struct; nothing here parses anything.
///
//===----------------------------------------------------------------------===//

#ifndef SLAM_PIPELINE_H
#define SLAM_PIPELINE_H

#include "c2bp/C2bp.h"

#include <string>

namespace slam {
namespace slamtool {

/// The CEGAR driver's knobs (Section 6.1's loop).
struct CegarOptions {
  /// Refinement cap; hitting it yields Verdict::Unknown.
  int MaxIterations = 24;
  std::string EntryProc = "main";
  /// Carry abstraction work across iterations: the program facts are
  /// built once, and a procedure whose key (see AbstractionMemo) is
  /// unchanged reuses its boolean program. Off = every iteration
  /// abstracts from scratch (the ablation baseline; output is
  /// byte-identical either way).
  bool Incremental = true;
};

/// The standalone bebop driver's knobs.
struct BebopToolOptions {
  std::string EntryProc = "main";
  /// When both set: print the reachable-state invariant at this
  /// labeled statement after checking.
  std::string InvariantProc;
  std::string InvariantLabel;
  /// Print the counterexample trace on failure.
  bool PrintTrace = false;
};

/// Observability settings, as plain data. Installation of the trace
/// recorder and emission of the files is the
/// drivers' job (tools::ObservabilityFlags in tools/PipelineFlags.h);
/// the pipeline itself only ever reads the already-installed globals.
struct ObservabilityOptions {
  /// Chrome trace-event JSON output path; empty = tracing off.
  std::string TraceOutPath;
  /// Statistics-registry JSON output path; empty = none.
  std::string StatsJsonPath;
  /// Print the per-tool report (flight recorder / stats summary).
  bool Report = false;
};

/// Everything one pipeline run is configured by.
struct PipelineOptions {
  c2bp::C2bpOptions C2bp;
  BebopToolOptions Bebop;
  CegarOptions Cegar;
  ObservabilityOptions Obs;
};

} // namespace slamtool
} // namespace slam

#endif // SLAM_PIPELINE_H
