//===- C2bp.h - Predicate abstraction of C programs -------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's contribution: given a (normalized) C program P and a set
/// E of predicates, constructs the boolean program BP(P, E) — same
/// control structure, one boolean variable per predicate, and for every
/// statement the strongest boolean transfer function expressible over E
/// (computed with weakest preconditions and the theorem prover).
///
///   * assignments  -> parallel `choose(F(WP(s,e)), F(WP(s,!e)))`
///                     updates (Section 4.3), with alias-aware WP
///                     (Section 4.2);
///   * conditionals -> `if (*)` with assume(G(c)) / assume(G(!c))
///                     (Section 4.4);
///   * procedures   -> modular translation through signatures with
///                     formal-parameter and return predicates
///                     (Section 4.5);
///   * enforce      -> the per-procedure data invariant F(false)
///                     (Section 5.1).
///
/// A run plans the skeleton sequentially, then executes the deferred
/// cube searches in one parallelFor on up to C2bpOptions::NumWorkers
/// workers (the calling thread is worker 0), all answering through one
/// prover cache. The boolean
/// program and the work counters do not depend on the worker count.
///
//===----------------------------------------------------------------------===//

#ifndef C2BP_C2BP_H
#define C2BP_C2BP_H

#include "alias/PointsTo.h"
#include "bp/BPAst.h"
#include "c2bp/CubeSearch.h"
#include "c2bp/PredicateSet.h"
#include "cfront/AST.h"
#include "prover/Prover.h"
#include "support/Stats.h"

#include <memory>

namespace slam {
namespace c2bp {

class AbstractionMemo; // From AbstractionMemo.h (which includes this).

/// Tool configuration; every flag is an ablation axis.
struct C2bpOptions {
  CubeSearchOptions Cubes;
  /// Emit the enforce data invariant (Section 5.1).
  bool UseEnforce = true;
  /// Use the points-to analysis to prune Morris disjuncts; without it
  /// the purely syntactic shape oracle is used.
  bool UseAliasAnalysis = true;
  /// Read by nothing; it remains only because the benchmark harness
  /// still names it (see alias::Mode).
  alias::Mode AliasMode = alias::Mode::Das;
  /// Worker threads for the per-statement cube searches. Every N runs
  /// the same plan-then-execute loop: the statement-level abstraction
  /// tasks go to min(N, tasks) workers, the calling thread among them,
  /// each with a private prover over the run's one prover cache.
  /// Output and work counters are identical for every N (results are
  /// merged in statement order); only wall-clock time changes.
  int NumWorkers = 1;
  /// Cross-iteration memo, owned by the CEGAR driver and bound to one
  /// program: this run takes its program facts, reuses procedures
  /// committed by earlier iterations, and stages its own. Null = the
  /// run uses a memo of its own, so every procedure is built fresh
  /// (standalone c2bp, ablations).
  AbstractionMemo *Memo = nullptr;
};

/// One abstraction run. The logic context must be the one the
/// predicates were parsed into and must outlive the tool.
class C2bpTool {
public:
  C2bpTool(const cfront::Program &P, const PredicateSet &Preds,
           logic::LogicContext &Ctx, C2bpOptions Options = {},
           StatsRegistry *Stats = nullptr);
  ~C2bpTool();

  /// Builds BP(P, E).
  std::unique_ptr<bp::BProgram> run();

private:
  struct Impl;
  std::unique_ptr<Impl> M;
};

/// Convenience: one C2bpTool run over \p P, which must already be
/// analyzed and normalized (cfront::frontend). Abstraction reports no
/// errors.
std::unique_ptr<bp::BProgram>
abstractProgram(const cfront::Program &P, const PredicateSet &Preds,
                logic::LogicContext &Ctx, C2bpOptions Options = {},
                StatsRegistry *Stats = nullptr);

} // namespace c2bp
} // namespace slam

#endif // C2BP_C2BP_H
