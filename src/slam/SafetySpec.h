//===- SafetySpec.h - Temporal safety properties ----------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Temporal safety properties in the style of SLAM's interface rules
/// (e.g. "a lock is never released without first being acquired"): a
/// finite automaton whose events are calls to named interface functions
/// and whose error state encodes the violation. The instrumenter weaves
/// the automaton into the C program as a global `__state` variable with
/// transition code at the top of each monitored function; reaching the
/// error transition becomes a failing assert, which the SLAM loop then
/// checks for reachability.
///
//===----------------------------------------------------------------------===//

#ifndef SLAM_SAFETYSPEC_H
#define SLAM_SAFETYSPEC_H

#include "c2bp/PredicateSet.h"
#include "cfront/AST.h"

#include <string>
#include <vector>

namespace slam {
namespace slamtool {

/// A deterministic safety automaton. State 0 is initial; transitions
/// to Error (-1) mark violations. Events without a transition from the
/// current state self-loop.
struct SafetySpec {
  static constexpr int Error = -1;

  struct Transition {
    std::string Event; ///< Name of the monitored function.
    int From;
    int To; ///< Error for a violation.
  };

  std::string Name;
  int NumStates = 1;
  std::vector<Transition> Transitions;

  /// "A lock is never acquired twice nor released when free."
  static SafetySpec lockDiscipline(const std::string &AcquireFn,
                                   const std::string &ReleaseFn);

  /// "An IRP is completed exactly once and not after being marked
  /// pending" (the interrupt-request-packet discipline of Section 6.1).
  static SafetySpec irpDiscipline(const std::string &CompleteFn,
                                  const std::string &MarkPendingFn);
};

/// The procedure \p Name of \p P with a body, where a SLAM run starts;
/// nullptr after reporting to \p Diags if there is none.
cfront::FuncDecl *findEntry(const cfront::Program &P, const std::string &Name,
                            DiagnosticEngine &Diags);

/// Weaves \p Spec into \p P: declares the global `__state`, resets it at
/// the top of \p EntryProc, and prepends transition code to each
/// monitored function (externs receive a body). Re-runs Sema; returns
/// false with diagnostics, leaving \p P unchanged, if \p Spec has two
/// transitions on one event from one state; returns false with
/// diagnostics if a monitored function is missing.
bool instrument(cfront::Program &P, const SafetySpec &Spec,
                const std::string &EntryProc, DiagnosticEngine &Diags);

/// The seed predicates for checking \p Spec: `__state == k` for every
/// automaton state, as global predicates.
void seedPredicates(logic::LogicContext &Ctx, const SafetySpec &Spec,
                    c2bp::PredicateSet &Preds);

} // namespace slamtool
} // namespace slam

#endif // SLAM_SAFETYSPEC_H
