//===- Cegar.h - The SLAM iterative refinement loop -------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SLAM process (Section 6.1): abstraction (C2bp), model checking
/// (Bebop), and predicate discovery (Newton), iterated until the
/// property is validated, a concrete error path is found, or refinement
/// makes no progress. The toolkit never reports a spurious error path:
/// every abstract counterexample is checked for concrete feasibility
/// before being surfaced.
///
//===----------------------------------------------------------------------===//

#ifndef SLAM_CEGAR_H
#define SLAM_CEGAR_H

#include "bebop/Bebop.h"
#include "c2bp/C2bp.h"
#include "slam/Pipeline.h"
#include "slam/SafetySpec.h"

#include <optional>
#include <string>
#include <vector>

namespace slam {
namespace slamtool {

/// One row of the CEGAR flight recorder: what a single
/// abstract-check-refine iteration cost and what it produced. Counter
/// fields are per-iteration deltas of the run's StatsRegistry; the BDD
/// node count is the checker's bddNodes(), the size of the round's path
/// edges and summaries.
struct IterationRecord {
  int Iteration = 0;        ///< 1-based iteration number.
  size_t Predicates = 0;    ///< Predicates entering the iteration.
  uint64_t ProverCalls = 0; ///< Uncached prover decisions this iteration.
  uint64_t CacheHits = 0;   ///< Prover cache hits (exact+negation).
  uint64_t Cubes = 0;       ///< Cubes enumerated by the C2bp searches.
  uint64_t ProcsReused = 0;  ///< Procedures reused whole from the memo.
  uint64_t ProcsRebuilt = 0; ///< Procedures planned and abstracted.
  uint64_t BddNodes = 0;    ///< Nodes of the path edges and summaries.
  double C2bpSeconds = 0;
  double BebopSeconds = 0;
  double NewtonSeconds = 0;
  size_t NewPredicates = 0; ///< Predicates Newton added (0 on the last round).
};

struct SlamResult {
  enum class Verdict {
    Validated, ///< No assert can fail: the property holds.
    BugFound,  ///< A concretely feasible violating path exists.
    Unknown,   ///< Refinement stopped making progress (or hit the cap).
  };
  Verdict V = Verdict::Unknown;
  int Iterations = 0;
  /// The violating path (for BugFound), as C statement ids with
  /// procedure names. Every step's Stmt is null: the boolean program it
  /// pointed into belongs to the CEGAR iteration that found the path
  /// and is destroyed before the result is returned.
  std::vector<bebop::TraceStep> Trace;
  /// Final predicate set (for reporting).
  c2bp::PredicateSet Predicates;
  /// Per-iteration flight recorder, one record per CEGAR round.
  std::vector<IterationRecord> FlightLog;
};

/// Runs the SLAM loop on a parsed+analyzed+normalized program with the
/// given initial predicates (often just the property seeds). Honors
/// Options.Cegar (loop control, incremental reuse) and Options.C2bp (the
/// per-iteration abstraction). Each iteration's abstraction answers its
/// prover queries through a cache of its own, and Newton's prover owns
/// another; only the AbstractionMemo carries results across iterations.
SlamResult checkProgram(const cfront::Program &P,
                        const c2bp::PredicateSet &InitialPreds,
                        logic::LogicContext &Ctx,
                        const PipelineOptions &Options = {},
                        StatsRegistry *Stats = nullptr);

/// End-to-end front door: parse \p Source, weave \p Spec, normalize,
/// seed `__state` predicates, and run the loop. Returns nullopt with
/// diagnostics on front-end failure.
std::optional<SlamResult> checkSafety(std::string_view Source,
                                      const SafetySpec &Spec,
                                      logic::LogicContext &Ctx,
                                      DiagnosticEngine &Diags,
                                      const PipelineOptions &Options = {},
                                      StatsRegistry *Stats = nullptr);

/// The flight recorder as `slam --report` prints it: a header, then one
/// row per round, with each layer's time in milliseconds.
std::string formatFlightLog(const std::vector<IterationRecord> &Log);

} // namespace slamtool
} // namespace slam

#endif // SLAM_CEGAR_H
