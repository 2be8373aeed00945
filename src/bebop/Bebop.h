//===- Bebop.h - Interprocedural model checker for boolean programs -*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bebop [5]: computes the set of reachable states for each statement of
/// a boolean program by interprocedural dataflow analysis in the spirit
/// of Sharir–Pnueli and Reps–Horwitz–Sagiv [31, 28], with sets of bit
/// vectors represented as BDDs and control flow kept explicit.
///
/// The core object is the *path edge* PE(n) ⊆ Entry × Current for each
/// CFG node n of each procedure: pairs (state at procedure entry, state
/// at n). Procedure summaries are PE(exit) projected to the visible
/// state (globals in/out, parameters in, return values out) and are
/// applied at call sites, giving precise call/return matching including
/// recursion. Disjunctive completion is inherent to the BDD union.
///
/// Besides reachability, the checker reports assertion failures with a
/// hierarchical counterexample trace (used by SLAM's Newton step) and
/// renders per-label invariants as boolean functions over the predicate
/// variables — the output shown in Section 2.2 of the paper.
///
//===----------------------------------------------------------------------===//

#ifndef BEBOP_BEBOP_H
#define BEBOP_BEBOP_H

#include "bdd/Bdd.h"
#include "bp/BPAst.h"
#include "support/Stats.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace slam {
namespace bebop {

/// One step of a counterexample trace: a statement of some procedure,
/// or the exit through which a called procedure returns.
struct TraceStep {
  std::string ProcName;
  const bp::BStmt *Stmt; ///< Null for a callee's exit step.
  bp::NodeOp Op;
  /// Originating C statement id (from BStmt::OriginId), or -1.
  int OriginId = -1;
};

/// Result of a reachability check.
struct CheckResult {
  bool AssertViolated = false;
  /// Failing assert (when violated).
  std::string FailingProc;
  const bp::BStmt *FailingStmt = nullptr;
  /// Interprocedural statement path from the entry procedure to the
  /// failing assert (inclusive).
  std::vector<TraceStep> Trace;
};

/// What checkers of successive versions of one program share: the BDD
/// manager and, per procedure, the work that depends only on the
/// procedure (its statement relations, assert conditions, enforce and
/// identity BDDs, interned quantifier sets and renamings, call bindings
/// and node tables). SLAM's CEGAR loop passes one session to every
/// round's checker, so a procedure the abstraction memo hands to the
/// next round keeps what earlier rounds built for it. Entries are keyed
/// by BProc::Serial, never by address; a call binding also by its
/// callee's serial. The session also keeps the last run, and the next
/// checker resumes it from just before the first call of a procedure
/// whose serial changed, with the same answers as a run from zero. The
/// session starts over when the globals change, widens its frame when
/// a procedure outgrows it, and drops the entries of procedures a
/// checker's program no longer has. It serves one checker at a time.
class Session {
public:
  Session();
  ~Session();
  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

private:
  friend class Bebop;
  struct Impl;
  std::unique_ptr<Impl> M;
};

/// The model checker. Construct once per boolean program, call run(),
/// then query invariants / results.
class Bebop {
public:
  /// A checker of \p P. With \p S, it reuses and extends what the
  /// session holds, and \p S must outlive it and serve no other checker
  /// meanwhile (std::logic_error otherwise); without, it makes its own.
  /// Either way the answers are the same.
  explicit Bebop(const bp::BProgram &P, StatsRegistry *Stats = nullptr,
                 Session *S = nullptr);
  ~Bebop();

  /// Runs reachability from \p EntryProc (globals and parameters
  /// unconstrained). Returns the verdict with a counterexample trace if
  /// some assert can fail. With \p StopAtFirstViolation (the default),
  /// propagation halts as soon as a violation is recorded — a
  /// "Validated" verdict always reflects the complete fixpoint either
  /// way, but label invariants queried after an early stop may be
  /// under-approximate.
  CheckResult run(const std::string &EntryProc = "main",
                  bool StopAtFirstViolation = true);

  /// The invariant (set of reachable states) at the statement labeled
  /// \p Label in \p Proc, as a disjunction of cubes over the variables
  /// in scope. Empty optional if the label is unknown or run() has not
  /// executed.
  std::optional<std::vector<std::map<std::string, bool>>>
  reachableAtLabel(const std::string &Proc, const std::string &Label) const;

  /// Renders reachableAtLabel as the paper prints invariants, e.g.
  /// "(!{curr == NULL} && {curr->val > v}) || (...)".
  std::string invariantAtLabel(const std::string &Proc,
                               const std::string &Label) const;

  /// True if the labeled statement is reachable at all.
  bool labelReachable(const std::string &Proc,
                      const std::string &Label) const;

  /// The number of distinct BDD nodes reachable from the path edges and
  /// summaries of the last run() (0 before it): the size of the state
  /// sets the run computed, which does not depend on what else the
  /// manager holds, so a checker with a session and one without report
  /// the same count.
  size_t bddNodes() const;

  /// The control-flow graph the checker explores for procedure \p Proc:
  /// the procedure's own (BProc::cfg()), shared with every other
  /// checker over it. Null if there is no such procedure.
  const bp::ProcCfg *cfg(const std::string &Proc) const;

private:
  struct Impl;
  std::unique_ptr<Impl> M;
};

} // namespace bebop
} // namespace slam

#endif // BEBOP_BEBOP_H
