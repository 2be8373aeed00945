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

/// Forward symbolic executor over the flattened trace.
class SymExec {
public:
  SymExec(const Program &P, logic::LogicContext &Ctx) : P(P), Ctx(Ctx) {}

  /// Replays the trace; returns false if the trace is malformed (e.g.
  /// an origin id is missing — treated as "don't know" upstream).
  bool replay(const std::vector<bebop::TraceStep> &Trace);

  const std::vector<PathConstraint> &constraints() const {
    return Constraints;
  }
  const std::vector<bebop::TraceStep> *trace() const { return Tr; }

private:
  struct Frame {
    const FuncDecl *F;
    int Activation;
    std::map<const VarDecl *, ExprRef> Vars;
    const Stmt *PendingCall = nullptr; // Call awaiting its Return.
  };

  ExprRef fresh(const std::string &Hint) {
    return Ctx.var("$" + Hint + "_" + std::to_string(FreshCounter++));
  }

  /// Stable per-activation identity for address-of and globals.
  ExprRef locIdent(const VarDecl *V) {
    if (V->isGlobal())
      return Ctx.var(V->Name);
    return Ctx.var(V->Name + "@" + std::to_string(topFrame().Activation));
  }

  Frame &topFrame() { return Stack.back(); }

  ExprRef readVar(const VarDecl *V) {
    auto &Map = V->isGlobal() ? GlobalVars : topFrame().Vars;
    auto It = Map.find(V);
    if (It != Map.end())
      return It->second;
    ExprRef S = fresh(V->Name);
    Map.emplace(V, S);
    return S;
  }

  void writeVar(const VarDecl *V, ExprRef Value) {
    (V->isGlobal() ? GlobalVars : topFrame().Vars)[V] = Value;
  }

  /// Symbolic heap key for an lvalue that is not a plain variable.
  ExprRef heapKey(const Expr &Lvalue) {
    switch (Lvalue.Kind) {
    case CExprKind::Unary:
      assert(Lvalue.UOp == UnaryOp::Deref);
      return Ctx.deref(eval(*Lvalue.Ops[0]));
    case CExprKind::Member: {
      ExprRef Base = Lvalue.IsArrow
                         ? Ctx.deref(eval(*Lvalue.Ops[0]))
                         : heapBase(*Lvalue.Ops[0]);
      return Ctx.field(Base, Lvalue.FieldName);
    }
    case CExprKind::Index: {
      const Expr &Base = *Lvalue.Ops[0];
      ExprRef B = Base.Ty && Base.Ty->isArray() ? locIdent(Base.Var)
                                                : eval(Base);
      return Ctx.index(B, eval(*Lvalue.Ops[1]));
    }
    default:
      assert(false && "not a heap lvalue");
      return Ctx.intLit(0);
    }
  }

  ExprRef heapBase(const Expr &E) {
    if (E.Kind == CExprKind::VarRef)
      return locIdent(E.Var);
    return heapKey(E);
  }

  ExprRef heapRead(ExprRef Key) {
    auto It = Heap.find(Key);
    if (It != Heap.end())
      return It->second;
    ExprRef S = fresh("mem");
    Heap.emplace(Key, S);
    return S;
  }

  void heapWrite(ExprRef Key, ExprRef Value) {
    // Invalidate may-aliases (syntactic shapes only), keep the rest.
    for (auto It = Heap.begin(); It != Heap.end();) {
      if (It->first != Key &&
          Shape.alias(It->first, Key) != logic::AliasResult::NoAlias)
        It = Heap.erase(It);
      else
        ++It;
    }
    Heap[Key] = Value;
  }

  void havocHeap() { Heap.clear(); }

  ExprRef eval(const Expr &E) {
    switch (E.Kind) {
    case CExprKind::IntLit:
      return Ctx.intLit(E.IntValue);
    case CExprKind::NullLit:
      return Ctx.nullLit();
    case CExprKind::VarRef:
      return readVar(E.Var);
    case CExprKind::Unary:
      switch (E.UOp) {
      case UnaryOp::Deref:
        return heapRead(heapKey(E));
      case UnaryOp::AddrOf: {
        const Expr &L = *E.Ops[0];
        if (L.Kind == CExprKind::VarRef)
          return Ctx.addrOf(locIdent(L.Var));
        return Ctx.addrOf(heapKey(L));
      }
      case UnaryOp::Neg:
        return Ctx.neg(eval(*E.Ops[0]));
      case UnaryOp::Not:
        return Ctx.notE(evalCond(*E.Ops[0]));
      }
      break;
    case CExprKind::Binary: {
      if (E.BOp == BinaryOp::LAnd || E.BOp == BinaryOp::LOr ||
          isComparisonOp(E.BOp))
        return evalCond(E);
      ExprRef L = eval(*E.Ops[0]);
      ExprRef R = eval(*E.Ops[1]);
      switch (E.BOp) {
      case BinaryOp::Add:
        return Ctx.add(L, R);
      case BinaryOp::Sub:
        return Ctx.sub(L, R);
      case BinaryOp::Mul:
        return Ctx.mul(L, R);
      case BinaryOp::Div:
        return Ctx.div(L, R);
      case BinaryOp::Mod:
        return Ctx.mod(L, R);
      default:
        break;
      }
      break;
    }
    case CExprKind::Member:
    case CExprKind::Index:
      return heapRead(heapKey(E));
    case CExprKind::Call:
      break; // Normalized away.
    }
    return fresh("e");
  }

  ExprRef evalCond(const Expr &E) {
    if (E.Kind == CExprKind::Binary) {
      if (E.BOp == BinaryOp::LAnd)
        return Ctx.andE(evalCond(*E.Ops[0]), evalCond(*E.Ops[1]));
      if (E.BOp == BinaryOp::LOr)
        return Ctx.orE(evalCond(*E.Ops[0]), evalCond(*E.Ops[1]));
      if (isComparisonOp(E.BOp)) {
        ExprRef L = eval(*E.Ops[0]);
        ExprRef R = eval(*E.Ops[1]);
        switch (E.BOp) {
        case BinaryOp::Eq:
          return Ctx.eq(L, R);
        case BinaryOp::Ne:
          return Ctx.ne(L, R);
        case BinaryOp::Lt:
          return Ctx.lt(L, R);
        case BinaryOp::Le:
          return Ctx.le(L, R);
        case BinaryOp::Gt:
          return Ctx.gt(L, R);
        default:
          return Ctx.ge(L, R);
        }
      }
    }
    if (E.Kind == CExprKind::Unary && E.UOp == UnaryOp::Not)
      return Ctx.notE(evalCond(*E.Ops[0]));
    ExprRef V = eval(E);
    return Ctx.ne(V, Ctx.intLit(0));
  }

  void execAssign(const Stmt &S) {
    ExprRef Value = eval(*S.Rhs);
    if (S.Lhs->Kind == CExprKind::VarRef)
      writeVar(S.Lhs->Var, Value);
    else
      heapWrite(heapKey(*S.Lhs), Value);
  }

  void addConstraint(ExprRef Sym, ExprRef ProgramForm, size_t TraceIdx) {
    Constraints.push_back(
        {Sym, ProgramForm, topFrame().F, TraceIdx});
  }

  const Program &P;
  logic::LogicContext &Ctx;
  logic::ShapeAliasOracle Shape;
  std::vector<Frame> Stack;
  std::map<const VarDecl *, ExprRef> GlobalVars;
  std::map<ExprRef, ExprRef> Heap;
  std::vector<PathConstraint> Constraints;
  const std::vector<bebop::TraceStep> *Tr = nullptr;
  int FreshCounter = 0;
  int ActivationCounter = 0;
};

bool SymExec::replay(const std::vector<bebop::TraceStep> &Trace) {
  Tr = &Trace;
  if (Trace.empty())
    return false;
  // The entry procedure is the first step's procedure.
  const FuncDecl *Entry = P.findFunction(Trace.front().ProcName);
  if (!Entry)
    return false;
  Stack.push_back({Entry, ActivationCounter++, {}, nullptr});

  for (size_t I = 0; I != Trace.size(); ++I) {
    const bebop::TraceStep &Step = Trace[I];
    const Stmt *Origin = P.stmtById(Step.OriginId);

    switch (Step.Op) {
    case bebop::NodeOp::Skip:
    case bebop::NodeOp::Assign: {
      if (!Origin)
        break;
      if (Origin->Kind == CStmtKind::Assign) {
        execAssign(*Origin);
        break;
      }
      if (Origin->Kind == CStmtKind::CallStmt) {
        // Either an extern-call havoc or the caller-side predicate
        // update after a real call (already modeled by the Call step).
        const FuncDecl *Callee = Origin->CallE->Callee;
        if (Callee && Callee->isExtern()) {
          if (Origin->Lhs && Origin->Lhs->Kind == CExprKind::VarRef)
            writeVar(Origin->Lhs->Var, fresh("ext"));
          else if (Origin->Lhs)
            heapWrite(heapKey(*Origin->Lhs), fresh("ext"));
          bool TakesPointers = false;
          for (const VarDecl *Param : Callee->Params)
            TakesPointers |= Param->Ty->isPointer();
          if (TakesPointers)
            havocHeap();
        }
      }
      break;
    }
    case bebop::NodeOp::Call: {
      if (!Origin || Origin->Kind != CStmtKind::CallStmt)
        return false;
      const FuncDecl *Callee = Origin->CallE->Callee;
      std::vector<ExprRef> Args;
      for (const Expr *A : Origin->CallE->Ops)
        Args.push_back(eval(*A));
      topFrame().PendingCall = Origin;
      Stack.push_back({Callee, ActivationCounter++, {}, nullptr});
      for (size_t J = 0; J != Callee->Params.size() && J != Args.size();
           ++J)
        writeVar(Callee->Params[J], Args[J]);
      break;
    }
    case bebop::NodeOp::Return: {
      if (Stack.size() <= 1)
        break; // Terminal return of the entry procedure.
      ExprRef Value =
          Origin && Origin->Rhs ? eval(*Origin->Rhs) : fresh("ret");
      Stack.pop_back();
      const Stmt *CallSite = topFrame().PendingCall;
      topFrame().PendingCall = nullptr;
      if (CallSite && CallSite->Lhs) {
        if (CallSite->Lhs->Kind == CExprKind::VarRef)
          writeVar(CallSite->Lhs->Var, Value);
        else
          heapWrite(heapKey(*CallSite->Lhs), Value);
      }
      break;
    }
    case bebop::NodeOp::Assume: {
      if (!Origin || !Origin->Cond || Step.Stmt == nullptr)
        break;
      int Taken = Step.Stmt->BranchTaken;
      if (Taken < 0)
        break; // Not a branch assume.
      ExprRef Sym = evalCond(*Origin->Cond);
      ExprRef Prog = c2bp::conditionToLogic(Ctx, *Origin->Cond);
      if (Taken == 0) {
        Sym = Ctx.notE(Sym);
        Prog = Ctx.notE(Prog);
      }
      addConstraint(Sym, Prog, I);
      break;
    }
    case bebop::NodeOp::Assert: {
      if (!Origin || !Origin->Cond)
        break;
      // The violation: the assert's condition is false.
      addConstraint(Ctx.notE(evalCond(*Origin->Cond)),
                    Ctx.notE(c2bp::conditionToLogic(Ctx, *Origin->Cond)),
                    I);
      break;
    }
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
      if (Step.Op == bebop::NodeOp::Call ||
          Step.Op == bebop::NodeOp::Return)
        break; // Stop at frame boundaries.
      const Stmt *A = P.stmtById(Step.OriginId);
      if ((Step.Op != bebop::NodeOp::Assign &&
           Step.Op != bebop::NodeOp::Skip) ||
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
