//===- Newton.cpp - Symbolic path replay ---------------------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "slam/Newton.h"

#include "c2bp/CExprToLogic.h"
#include "logic/ExprUtils.h"
#include "logic/WP.h"
#include "support/Trace.h"

#include <algorithm>
#include <map>

using namespace slam;
using namespace slam::slamtool;
using namespace slam::cfront;
using logic::ExprRef;

namespace {

/// One collected path constraint with its provenance.
struct PathConstraint {
  ExprRef Sym;         ///< Over symbolic values.
  ExprRef ProgramForm; ///< Over program variables (for predicates).
  const FuncDecl *Proc;
  size_t TraceIdx;
};

/// Forward symbolic executor over the flattened trace. It is the
/// location reader of C2bp's translation that reads each location from
/// its stores: a variable by its per-activation location (a global's
/// name, a local's `name@activation`), memory by its symbolic location.
/// A location read before any write holds a fresh `$hint_N` symbol.
class SymExec : public c2bp::LocationReader {
public:
  SymExec(const Program &P, logic::LogicContext &Ctx) : P(P), Ctx(Ctx) {}

  /// Replays the trace; returns false if the trace is malformed (e.g.
  /// an origin id is missing — treated as "don't know" upstream).
  bool replay(const std::vector<bebop::TraceStep> &Trace);

  const std::vector<PathConstraint> &constraints() const {
    return Constraints;
  }

  ExprRef varLocation(logic::LogicContext &, const Expr &Ref) override {
    return locationOf(Ref.Var);
  }

  ExprRef read(ExprRef Loc) override {
    bool IsVar = Loc->kind() == logic::ExprKind::Var;
    auto [It, First] = (IsVar ? Vars : Heap).try_emplace(Loc, nullptr);
    if (First)
      It->second =
          fresh(IsVar ? Loc->name().substr(0, Loc->name().find('@')) : "mem");
    return It->second;
  }

private:
  struct Frame {
    const FuncDecl *F;
    int Activation;
    const Stmt *PendingCall = nullptr; // Call awaiting its Exit.
    ExprRef Returned = nullptr;        // Value of the Return taken.
  };

  ExprRef fresh(const std::string &Hint) {
    return Ctx.var("$" + Hint + "_" + std::to_string(FreshCounter++));
  }

  ExprRef locationOf(const VarDecl *V) {
    if (V->isGlobal())
      return Ctx.var(V->Name);
    return Ctx.var(V->Name + "@" + std::to_string(topFrame().Activation));
  }

  Frame &topFrame() { return Stack.back(); }

  ExprRef value(const Expr &E) { return c2bp::toLogic(Ctx, E, *this); }

  /// Stores \p Value, computed first, at the location \p Lhs names.
  void write(const Expr &Lhs, ExprRef Value) {
    ExprRef Loc = c2bp::locationToLogic(Ctx, Lhs, *this);
    if (Loc->kind() == logic::ExprKind::Var) {
      Vars[Loc] = Value;
      return;
    }
    // Invalidate may-aliases (syntactic shapes only), keep the rest.
    for (auto It = Heap.begin(); It != Heap.end();) {
      if (It->first != Loc &&
          Shape.alias(It->first, Loc) != logic::AliasResult::NoAlias)
        It = Heap.erase(It);
      else
        ++It;
    }
    Heap[Loc] = Value;
  }

  /// Records that \p Cond evaluated to \p Holds, in both forms.
  void addConstraint(const Expr &Cond, bool Holds, size_t TraceIdx) {
    ExprRef Sym = c2bp::conditionToLogic(Ctx, Cond, *this);
    ExprRef Prog = c2bp::conditionToLogic(Ctx, Cond);
    if (!Holds) {
      Sym = Ctx.notE(Sym);
      Prog = Ctx.notE(Prog);
    }
    Constraints.push_back({Sym, Prog, topFrame().F, TraceIdx});
  }

  const Program &P;
  logic::LogicContext &Ctx;
  logic::ShapeAliasOracle Shape;
  std::vector<Frame> Stack;
  std::map<ExprRef, ExprRef> Vars; ///< Variable location -> value.
  std::map<ExprRef, ExprRef> Heap; ///< Memory location -> value.
  std::vector<PathConstraint> Constraints;
  int FreshCounter = 0;
  int ActivationCounter = 0;
};

bool SymExec::replay(const std::vector<bebop::TraceStep> &Trace) {
  if (Trace.empty())
    return false;
  // The entry procedure is the first step's procedure.
  const FuncDecl *Entry = P.findFunction(Trace.front().ProcName);
  if (!Entry)
    return false;
  Stack.push_back({Entry, ActivationCounter++});

  for (size_t I = 0; I != Trace.size(); ++I) {
    const bebop::TraceStep &Step = Trace[I];
    const Stmt *Origin = P.stmtById(Step.OriginId);

    switch (Step.Op) {
    case bp::NodeOp::Skip:
    case bp::NodeOp::Assign: {
      if (!Origin)
        break;
      if (Origin->Kind == CStmtKind::Assign) {
        write(*Origin->Lhs, value(*Origin->Rhs));
        break;
      }
      if (Origin->Kind == CStmtKind::CallStmt) {
        // Either an extern-call havoc or the caller-side predicate
        // update after a real call (already modeled by the Call step).
        const FuncDecl *Callee = Origin->CallE->Callee;
        if (Callee && Callee->isExtern()) {
          if (Origin->Lhs)
            write(*Origin->Lhs, fresh("ext"));
          bool TakesPointers = false;
          for (const VarDecl *Param : Callee->Params)
            TakesPointers |= Param->Ty->isPointer();
          if (TakesPointers)
            Heap.clear();
        }
      }
      break;
    }
    case bp::NodeOp::Call: {
      if (!Origin || Origin->Kind != CStmtKind::CallStmt)
        return false;
      const FuncDecl *Callee = Origin->CallE->Callee;
      std::vector<ExprRef> Args;
      for (const Expr *A : Origin->CallE->Ops)
        Args.push_back(value(*A));
      topFrame().PendingCall = Origin;
      Stack.push_back({Callee, ActivationCounter++});
      for (size_t J = 0; J != Callee->Params.size() && J != Args.size();
           ++J)
        Vars[locationOf(Callee->Params[J])] = Args[J];
      break;
    }
    case bp::NodeOp::Return:
      if (Stack.size() > 1) // Not the terminal return of the entry.
        topFrame().Returned =
            Origin && Origin->Rhs ? value(*Origin->Rhs) : fresh("ret");
      break;
    case bp::NodeOp::Exit: {
      // A callee returns, through a `return` statement or off its end.
      if (Stack.size() <= 1)
        break;
      ExprRef Value = topFrame().Returned;
      Stack.pop_back();
      const Stmt *CallSite = topFrame().PendingCall;
      topFrame().PendingCall = nullptr;
      if (CallSite && CallSite->Lhs)
        write(*CallSite->Lhs, Value ? Value : fresh("ret"));
      break;
    }
    case bp::NodeOp::Assume: {
      if (!Origin || !Origin->Cond || Step.Stmt == nullptr)
        break;
      int Taken = Step.Stmt->BranchTaken;
      if (Taken < 0)
        break; // Not a branch assume.
      addConstraint(*Origin->Cond, Taken != 0, I);
      break;
    }
    case bp::NodeOp::Assert:
      // The violation: the assert's condition is false.
      if (Origin && Origin->Cond)
        addConstraint(*Origin->Cond, false, I);
      break;
    default:
      break;
    }
  }
  return true;
}

/// Comparison atoms of a formula.
void collectAtoms(ExprRef E, std::vector<ExprRef> &Out) {
  if (logic::isCmpKind(E->kind())) {
    if (std::find(Out.begin(), Out.end(), E) == Out.end())
      Out.push_back(E);
    return;
  }
  for (ExprRef Op : E->operands())
    collectAtoms(Op, Out);
}

} // namespace

NewtonResult slamtool::analyzeTrace(const Program &P,
                                    const std::vector<bebop::TraceStep> &Trace,
                                    logic::LogicContext &Ctx,
                                    prover::Prover &Prover,
                                    const c2bp::PredicateSet &Existing,
                                    StatsRegistry *Stats) {
  TraceSpan Span("newton.analyze_trace", "newton");
  if (Span.enabled())
    Span.arg("steps", static_cast<uint64_t>(Trace.size()));
  NewtonResult Result;
  SymExec Exec(P, Ctx);
  if (!Exec.replay(Trace))
    return Result; // Malformed: infeasible with no predicates = unknown.
  if (Stats)
    Stats->add("newton.paths");

  const std::vector<PathConstraint> &Cs = Exec.constraints();
  std::vector<ExprRef> Conj;
  for (const PathConstraint &C : Cs)
    Conj.push_back(C.Sym);
  ExprRef Path = Ctx.andE(Conj);

  prover::Satisfiability Sat = Prover.checkSat(Path);
  if (Sat == prover::Satisfiability::Sat) {
    Result.Feasible = true;
    return Result;
  }
  if (Sat == prover::Satisfiability::Unknown)
    return Result; // Cannot refute or confirm: no predicates, unknown.

  // Infeasible: minimize the core greedily, then harvest predicates.
  std::vector<size_t> Core;
  for (size_t I = 0; I != Cs.size(); ++I)
    Core.push_back(I);
  for (size_t I = 0; I < Core.size();) {
    std::vector<ExprRef> Without;
    for (size_t J = 0; J != Core.size(); ++J)
      if (J != I)
        Without.push_back(Cs[Core[J]].Sym);
    if (Prover.checkSat(Ctx.andE(Without)) ==
        prover::Satisfiability::Unsat)
      Core.erase(Core.begin() + I);
    else
      ++I;
  }

  auto AddPredicate = [&](ExprRef Atom, const FuncDecl *Proc) {
    if (Atom->isTrue() || Atom->isFalse())
      return;
    // Canonical polarity: a boolean variable for x == 5 carries the
    // same information as one for x != 5; prefer the equality.
    if (Atom->kind() == logic::ExprKind::Ne)
      Atom = Ctx.eq(Atom->op(0), Atom->op(1));
    // Reject atoms that escaped the program-variable level.
    for (const std::string &Name : logic::collectVars(Atom))
      if (Name.find('$') != std::string::npos ||
          Name.find('@') != std::string::npos)
        return;
    bool AllGlobal = true; // Globals-only atoms are scoped globally.
    for (const std::string &Name : logic::collectVars(Atom))
      AllGlobal &= P.findGlobal(Name) != nullptr;
    if (AllGlobal)
      Result.NewPreds.addGlobal(Atom);
    else
      Result.NewPreds.addLocal(Proc->Name, Atom);
  };

  for (size_t I : Core) {
    std::vector<ExprRef> Atoms;
    collectAtoms(Cs[I].ProgramForm, Atoms);
    for (ExprRef A : Atoms)
      AddPredicate(A, Cs[I].Proc);
  }

  // Backward WP pass from the final violated condition through the
  // trace's assignments (same-procedure, bounded).
  if (!Cs.empty()) {
    const PathConstraint &Last = Cs.back();
    ExprRef Phi = Last.ProgramForm;
    logic::ShapeAliasOracle Shape;
    logic::WPEngine WP(Ctx, Shape);
    for (size_t I = Last.TraceIdx; I-- > 0;) {
      const bebop::TraceStep &Step = Trace[I];
      if (Step.Op == bp::NodeOp::Call || Step.Op == bp::NodeOp::Exit)
        break; // Stop at frame boundaries.
      const Stmt *A = P.stmtById(Step.OriginId);
      if ((Step.Op != bp::NodeOp::Assign &&
           Step.Op != bp::NodeOp::Skip) ||
          !A || A->Kind != CStmtKind::Assign)
        continue;
      Phi = WP.assignment(c2bp::toLogic(Ctx, *A->Lhs),
                          c2bp::toLogic(Ctx, *A->Rhs), Phi);
      if (Phi->size() > 200)
        break;
      std::vector<ExprRef> Atoms;
      collectAtoms(Phi, Atoms);
      const FuncDecl *Proc = P.ProcOfStmt[A->Id];
      for (ExprRef At : Atoms)
        AddPredicate(At, Proc);
    }
  }

  // Drop predicates the abstraction already has.
  c2bp::PredicateSet Fresh;
  for (ExprRef E : Result.NewPreds.Globals)
    if (std::find(Existing.Globals.begin(), Existing.Globals.end(), E) ==
        Existing.Globals.end())
      Fresh.addGlobal(E);
  for (const auto &[ProcName, V] : Result.NewPreds.PerProc) {
    const auto &Have = Existing.forProc(ProcName);
    for (ExprRef E : V)
      if (std::find(Have.begin(), Have.end(), E) == Have.end())
        Fresh.addLocal(ProcName, E);
  }
  Result.NewPreds = std::move(Fresh);
  if (Stats)
    Stats->add("newton.predicates", Result.NewPreds.totalCount());
  return Result;
}
