//===- SafetySpec.cpp - Automaton weaving -------------------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "slam/SafetySpec.h"

#include "cfront/Sema.h"

#include <set>

using namespace slam;
using namespace slam::slamtool;
using namespace slam::cfront;

SafetySpec SafetySpec::lockDiscipline(const std::string &AcquireFn,
                                      const std::string &ReleaseFn) {
  SafetySpec S;
  S.Name = "locking";
  S.NumStates = 2; // 0 = unlocked, 1 = locked.
  S.Transitions = {
      {AcquireFn, 0, 1},
      {AcquireFn, 1, Error}, // Double acquire.
      {ReleaseFn, 1, 0},
      {ReleaseFn, 0, Error}, // Release without acquire.
  };
  return S;
}

SafetySpec SafetySpec::irpDiscipline(const std::string &CompleteFn,
                                     const std::string &MarkPendingFn) {
  SafetySpec S;
  S.Name = "irp";
  S.NumStates = 3; // 0 = fresh, 1 = completed, 2 = pending.
  S.Transitions = {
      {CompleteFn, 0, 1},
      {CompleteFn, 1, Error}, // Completed twice.
      {CompleteFn, 2, Error}, // Completed after marked pending.
      {MarkPendingFn, 0, 2},
      {MarkPendingFn, 1, Error}, // Pending after completion.
      {MarkPendingFn, 2, Error}, // Marked pending twice.
  };
  return S;
}

namespace {

Expr *intLit(Program &P, int64_t V) {
  Expr *E = P.makeExpr(CExprKind::IntLit, SourceLoc());
  E->IntValue = V;
  return E;
}

Expr *stateRef(Program &P) {
  Expr *E = P.makeExpr(CExprKind::VarRef, SourceLoc());
  E->Name = "__state";
  return E;
}

Expr *stateEquals(Program &P, int K) {
  Expr *E = P.makeExpr(CExprKind::Binary, SourceLoc());
  E->BOp = BinaryOp::Eq;
  E->Ops.push_back(stateRef(P));
  E->Ops.push_back(intLit(P, K));
  return E;
}

Stmt *assignState(Program &P, int K) {
  Stmt *S = P.makeStmt(CStmtKind::Assign, SourceLoc());
  S->Lhs = stateRef(P);
  S->Rhs = intLit(P, K);
  return S;
}

/// `assert(0 == 1);` — the violation marker.
Stmt *violation(Program &P) {
  Stmt *S = P.makeStmt(CStmtKind::Assert, SourceLoc());
  Expr *E = P.makeExpr(CExprKind::Binary, SourceLoc());
  E->BOp = BinaryOp::Eq;
  E->Ops.push_back(intLit(P, 0));
  E->Ops.push_back(intLit(P, 1));
  S->Cond = E;
  return S;
}

/// Builds the if-chain dispatching the transitions of one event.
Stmt *transitionChain(Program &P, const SafetySpec &Spec,
                      const std::string &Event) {
  Stmt *Chain = nullptr;
  Stmt *LastIf = nullptr;
  for (const SafetySpec::Transition &T : Spec.Transitions) {
    if (T.Event != Event)
      continue;
    Stmt *If = P.makeStmt(CStmtKind::If, SourceLoc());
    If->Cond = stateEquals(P, T.From);
    If->Then = T.To == SafetySpec::Error ? violation(P)
                                         : assignState(P, T.To);
    if (LastIf)
      LastIf->Else = If;
    else
      Chain = If;
    LastIf = If;
  }
  return Chain;
}

} // namespace

FuncDecl *slamtool::findEntry(const Program &P, const std::string &Name,
                              DiagnosticEngine &Diags) {
  FuncDecl *Entry = P.findFunction(Name);
  if (Entry && Entry->Body)
    return Entry;
  Diags.error(SourceLoc(),
              "entry procedure '" + Name + "' not found or extern");
  return nullptr;
}

bool slamtool::instrument(Program &P, const SafetySpec &Spec,
                          const std::string &EntryProc,
                          DiagnosticEngine &Diags) {
  // The woven if-chain takes the first transition that matches, so a
  // second one on the same event and state would be silently ignored.
  std::set<std::pair<std::string, int>> Sources;
  for (const SafetySpec::Transition &T : Spec.Transitions)
    if (!Sources.emplace(T.Event, T.From).second) {
      Diags.error(SourceLoc(), "safety automaton '" + Spec.Name +
                                   "' is nondeterministic: event '" +
                                   T.Event + "' has two transitions from "
                                   "state " + std::to_string(T.From));
      return false;
    }

  // The automaton state variable.
  if (!P.findGlobal("__state"))
    P.Globals.push_back(P.makeVar("__state", P.Types.intType(),
                                  VarDecl::Scope::Global, SourceLoc()));

  // Reset at the entry.
  FuncDecl *Entry = findEntry(P, EntryProc, Diags);
  if (!Entry)
    return false;
  Entry->Body->Stmts.insert(Entry->Body->Stmts.begin(),
                            assignState(P, 0));

  // Transition code at the head of each monitored function.
  std::set<std::string> Events;
  for (const SafetySpec::Transition &T : Spec.Transitions)
    Events.insert(T.Event);
  for (const std::string &Event : Events) {
    FuncDecl *F = P.findFunction(Event);
    if (!F) {
      Diags.error(SourceLoc(),
                  "monitored function '" + Event + "' not found");
      return false;
    }
    if (!F->Body)
      F->Body = P.makeStmt(CStmtKind::Block, F->Loc); // Extern: stub body.
    Stmt *Chain = transitionChain(P, Spec, Event);
    if (Chain)
      F->Body->Stmts.insert(F->Body->Stmts.begin(), Chain);
  }

  // Renumber statements and resolve the synthesized nodes.
  return analyze(P, Diags);
}

void slamtool::seedPredicates(logic::LogicContext &Ctx,
                              const SafetySpec &Spec,
                              c2bp::PredicateSet &Preds) {
  for (int K = 0; K != Spec.NumStates; ++K)
    Preds.addGlobal(Ctx.eq(Ctx.var("__state"), Ctx.intLit(K)));
}
