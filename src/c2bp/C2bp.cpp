//===- C2bp.cpp - Statement-by-statement abstraction -------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// The abstraction runs in two phases so it can be sharded across
// threads without giving up byte-for-byte deterministic output:
//
//   1. **Planning** (always sequential, cheap): walk every procedure in
//      program order, build the boolean-program statement skeleton,
//      compute weakest preconditions and call signatures, and record
//      one *task* per expensive transfer-function computation (a
//      predicate update, a branch weakening, an assert strengthening, a
//      call formal, an enforce invariant). Each task owns a distinct
//      output slot in the already-built skeleton.
//
//   2. **Execution**: two parallelFors over the planned tasks, in
//      which every task runs its own cube search on whichever worker
//      claims it. The first runs the enforce tasks, each of which
//      fills its procedure's model pool; the second runs every other
//      task, whose searches over the procedure's scope predicates only
//      read that pool, so no pool depends on the schedule. Every worker
//      owns a private prover and statistics registry, and one
//      expression arena per procedure it ran tasks of (adopted by that
//      procedure's arena afterwards); all workers' provers answer
//      through the run's one shared prover cache. The
//      calling thread is worker 0, so one worker runs the same loop
//      with no thread spawned. Tasks are pure functions of their
//      captured inputs (prover answers are deterministic, caches are
//      memoization only) and slots are position-addressed, so the
//      merged output and the work counters are identical for every
//      worker count and schedule.
//
// Planning first looks each procedure up in the abstraction memo by
// its key; a procedure built under the same key in an earlier round is
// reused whole and gets no planning and no tasks. Every run goes
// through a memo, so standalone runs and CEGAR rounds share this path;
// only the memo's lifetime differs.
//
//===----------------------------------------------------------------------===//

#include "c2bp/C2bp.h"

#include "alias/Oracle.h"
#include "c2bp/AbstractionMemo.h"
#include "c2bp/CExprToLogic.h"
#include "logic/ExprUtils.h"
#include "logic/WP.h"
#include "prover/ProverCache.h"
#include "support/ParallelFor.h"
#include "support/Trace.h"

#include <algorithm>
#include <functional>

using namespace slam;
using namespace slam::c2bp;
using namespace slam::cfront;
using logic::ExprRef;

namespace {

/// Does a loop body contain a break/continue belonging to this loop?
bool hasLoopExits(const Stmt &S) {
  switch (S.Kind) {
  case CStmtKind::Break:
  case CStmtKind::Continue:
    return true;
  case CStmtKind::While:
    return false; // Inner loops own their breaks.
  case CStmtKind::Goto:
    return true; // A goto may leave the loop; use the robust form.
  default:
    break;
  }
  for (const Stmt *Sub : {S.Then, S.Else, S.Body, S.Sub})
    if (Sub && hasLoopExits(*Sub))
      return true;
  for (const Stmt *Sub : S.Stmts)
    if (hasLoopExits(*Sub))
      return true;
  return false;
}

/// DNF over \p Names rendered into \p Arena.
const bp::BExpr *dnfToBExpr(bp::BProgram &Arena,
                            const std::vector<std::string> &Names,
                            const Dnf &D) {
  if (D.empty())
    return Arena.constant(false);
  const bp::BExpr *Or = nullptr;
  for (const Cube &C : D) {
    const bp::BExpr *And = nullptr;
    for (const CubeLit &L : C) {
      const bp::BExpr *Lit = Arena.varRef(Names[L.Var]);
      if (!L.Positive)
        Lit = Arena.notE(Lit);
      And = And ? Arena.andE(And, Lit) : Lit;
    }
    if (!And)
      And = Arena.constant(true);
    Or = Or ? Arena.orE(Or, And) : And;
  }
  return Or;
}

/// choose(F(Phi), F(!Phi)) with the pretty special case
/// choose(b, !b) == b (used all over Figure 1).
const bp::BExpr *chooseFromDnfs(bp::BProgram &Arena,
                                const std::vector<std::string> &Names,
                                const Dnf &Pos, const Dnf &Neg) {
  if (Pos.size() == 1 && Neg.size() == 1 && Pos[0].size() == 1 &&
      Neg[0].size() == 1 && Pos[0][0].Var == Neg[0][0].Var &&
      Pos[0][0].Positive != Neg[0][0].Positive) {
    const bp::BExpr *B = Arena.varRef(Names[Pos[0][0].Var]);
    return Pos[0][0].Positive ? B : Arena.notE(B);
  }
  return Arena.choose(dnfToBExpr(Arena, Names, Pos),
                      dnfToBExpr(Arena, Names, Neg));
}

} // namespace

struct C2bpTool::Impl {
  const Program &P;
  const PredicateSet &Preds;
  logic::LogicContext &Ctx;
  C2bpOptions Options;
  StatsRegistry *Stats;

  /// The run's one prover cache, shared by every worker's prover.
  prover::SharedProverCache Cache;

  /// One per worker: a private prover and statistics registry (merged
  /// at report time). A worker is only ever touched by the parallelFor
  /// participant with the matching id.
  struct Worker {
    StatsRegistry Stats;
    prover::Prover Prover;
    Worker(logic::LogicContext &Ctx, prover::SharedProverCache *Shared)
        : Prover(Ctx, &Stats, Shared) {}
  };
  std::vector<std::unique_ptr<Worker>> Workers;

  /// Every run plans through a memo: the caller's, which may span a
  /// whole CEGAR loop, or else OwnMemo, which lives as long as the run.
  AbstractionMemo OwnMemo;
  AbstractionMemo &Memo;
  ProgramFacts &Facts;

  /// Per-procedure planning state, kept alive until every task has run
  /// (tasks reference the oracle and the scope vectors).
  struct FuncScope {
    const FuncDecl *F = nullptr;
    /// F's index among the memo's procedures.
    size_t Index = 0;
    bp::BProc *Proc = nullptr;
    /// Owns every node of Proc: planning allocates here, and it adopts
    /// WorkerArenas[W], where worker W ran this procedure's tasks.
    std::shared_ptr<bp::BProgram> Arena = std::make_shared<bp::BProgram>();
    std::vector<std::unique_ptr<bp::BProgram>> WorkerArenas;
    std::unique_ptr<logic::AliasOracle> Oracle;
    /// Non-null only when the points-to-backed oracle is active.
    alias::ProgramAliasOracle *ProgOracle = nullptr;
    std::unique_ptr<logic::WPEngine> WP;
    /// Predicates in scope: parallel vectors of formula and bp var name.
    std::vector<ExprRef> ScopePreds;
    std::vector<std::string> ScopeNames;
    /// The models the enforce task's search over ScopePreds was handed.
    ModelPool Pool;
  };
  std::vector<std::unique_ptr<FuncScope>> Scopes;

  /// One deferred transfer-function computation. The closure writes
  /// into a slot of the planned skeleton that no other task touches;
  /// the cube search and arena it receives depend on the worker that
  /// picks it up.
  struct DeferredTask {
    FuncScope *FS;
    std::function<void(CubeSearch &, bp::BProgram &)> Fn;
  };
  std::vector<DeferredTask> Pending;
  /// The enforce tasks, one per rebuilt procedure; all run before
  /// Pending.
  std::vector<DeferredTask> Enforces;

  // Planning cursor: the current procedure's arena, proc and scope.
  bp::BProgram *BP = nullptr;
  bp::BProc *CurProc = nullptr;
  FuncScope *CurScope = nullptr;

  Impl(const Program &P, const PredicateSet &Preds,
       logic::LogicContext &Ctx, C2bpOptions Options, StatsRegistry *Stats)
      : P(P), Preds(Preds), Ctx(Ctx), Options(Options), Stats(Stats),
        Memo(Options.Memo ? *Options.Memo : OwnMemo),
        Facts(Memo.bind(P, Ctx, Options)) {
    Memo.update(Preds);
  }

  /// \p F's signature over its local predicates.
  const ProcSignature &signature(const FuncDecl *F) const {
    return Memo.proc(F).Sig;
  }

  static std::string predName(ExprRef E) { return E->str(); }

  /// Queues \p Fn for the execution phase.
  void defer(std::function<void(CubeSearch &, bp::BProgram &)> Fn) {
    Pending.push_back({CurScope, std::move(Fn)});
  }

  // -- Scope management ------------------------------------------------------
  void enterFunction(const FuncDecl &F) {
    Scopes.push_back(std::make_unique<FuncScope>());
    FuncScope &FS = *Scopes.back();
    CurScope = &FS;
    BP = FS.Arena.get();
    FS.F = &F;
    if (Options.UseAliasAnalysis) {
      auto PO = std::make_unique<alias::ProgramAliasOracle>(Facts.PT, P, &F);
      FS.ProgOracle = PO.get();
      FS.Oracle = std::move(PO);
    } else {
      FS.Oracle = std::make_unique<logic::ShapeAliasOracle>();
    }
    FS.WP = std::make_unique<logic::WPEngine>(Ctx, *FS.Oracle);
    for (ExprRef E : Preds.Globals) {
      FS.ScopePreds.push_back(E);
      FS.ScopeNames.push_back(predName(E));
    }
    for (ExprRef E : Preds.forProc(F.Name)) {
      FS.ScopePreds.push_back(E);
      FS.ScopeNames.push_back(predName(E));
    }
  }

  // -- Statement translation ---------------------------------------------
  bp::BStmt *stmt(bp::BStmtKind K, const Stmt &Origin) {
    bp::BStmt *S = BP->makeStmt(K);
    S->OriginId = static_cast<int>(Origin.Id);
    return S;
  }

  /// An assume whose condition is the deferred weakening G(Phi) =
  /// !E(F(!Phi)) — the strongest expressible consequence.
  bp::BStmt *makeAssumeG(ExprRef Phi, const Stmt &Origin, int BranchTaken) {
    bp::BStmt *S = stmt(bp::BStmtKind::Assume, Origin);
    S->BranchTaken = BranchTaken;
    FuncScope *FS = CurScope;
    defer([S, FS, Phi, this](CubeSearch &CS, bp::BProgram &Arena) {
      Dnf D = CS.findF(FS->ScopePreds, Ctx.notE(Phi), &FS->Pool);
      S->Cond = Arena.notE(dnfToBExpr(Arena, FS->ScopeNames, D));
    });
    return S;
  }

  bp::BStmt *abstractStmt(const Stmt &S) {
    switch (S.Kind) {
    case CStmtKind::Block: {
      bp::BStmt *B = stmt(bp::BStmtKind::Block, S);
      for (const Stmt *Sub : S.Stmts)
        B->Stmts.push_back(abstractStmt(*Sub));
      return B;
    }
    case CStmtKind::Assign:
      return abstractAssign(S);
    case CStmtKind::CallStmt:
      return abstractCall(S);
    case CStmtKind::If: {
      bp::BStmt *B = stmt(bp::BStmtKind::If, S);
      B->Cond = BP->star();
      ExprRef C = conditionToLogic(Ctx, *S.Cond);

      // The assumes are emitted even when G is `true`: they carry the
      // branch direction that Newton replays concretely.
      bp::BStmt *Then = BP->makeStmt(bp::BStmtKind::Block);
      Then->Stmts.push_back(makeAssumeG(C, S, 1));
      Then->Stmts.push_back(abstractStmt(*S.Then));
      B->Then = Then;

      bp::BStmt *Else = BP->makeStmt(bp::BStmtKind::Block);
      Else->Stmts.push_back(makeAssumeG(Ctx.notE(C), S, 0));
      if (S.Else)
        Else->Stmts.push_back(abstractStmt(*S.Else));
      B->Else = Else;
      return B;
    }
    case CStmtKind::While: {
      ExprRef C = conditionToLogic(Ctx, *S.Cond);
      bp::BStmt *W = stmt(bp::BStmtKind::While, S);
      W->Cond = BP->star();
      bp::BStmt *Body = BP->makeStmt(bp::BStmtKind::Block);

      if (hasLoopExits(*S.Body)) {
        // Robust form: breaks/gotos may leave the loop without the
        // condition turning false, so the exit test moves inside the
        // loop and the loop itself never falls out at the top (the
        // only exits are the modeled one, which assumes G(!c), and the
        // translated break/goto statements themselves).
        W->Cond = BP->constant(true);
        bp::BStmt *ExitIf = stmt(bp::BStmtKind::If, S);
        ExitIf->Cond = BP->star();
        bp::BStmt *ExitBlk = BP->makeStmt(bp::BStmtKind::Block);
        ExitBlk->Stmts.push_back(makeAssumeG(Ctx.notE(C), S, 0));
        ExitBlk->Stmts.push_back(stmt(bp::BStmtKind::Break, S));
        ExitIf->Then = ExitBlk;
        Body->Stmts.push_back(ExitIf);
        Body->Stmts.push_back(makeAssumeG(C, S, 1));
        Body->Stmts.push_back(abstractStmt(*S.Body));
        W->Body = Body;
        return W;
      }

      // Figure 1(b) form: while(*) { assume(G(c)); body } assume(G(!c)).
      Body->Stmts.push_back(makeAssumeG(C, S, 1));
      Body->Stmts.push_back(abstractStmt(*S.Body));
      W->Body = Body;
      bp::BStmt *Wrap = BP->makeStmt(bp::BStmtKind::Block);
      Wrap->Stmts.push_back(W);
      Wrap->Stmts.push_back(makeAssumeG(Ctx.notE(C), S, 0));
      return Wrap;
    }
    case CStmtKind::Goto: {
      bp::BStmt *G = stmt(bp::BStmtKind::Goto, S);
      G->Labels.push_back(S.LabelName);
      return G;
    }
    case CStmtKind::Label: {
      bp::BStmt *L = stmt(bp::BStmtKind::Label, S);
      L->LabelName = S.LabelName;
      L->Sub = abstractStmt(*S.Sub);
      return L;
    }
    case CStmtKind::Return: {
      bp::BStmt *R = stmt(bp::BStmtKind::Return, S);
      const ProcSignature &Sig = signature(CurScope->F);
      for (ExprRef E : Sig.Returns)
        R->Exprs.push_back(BP->varRef(predName(E)));
      return R;
    }
    case CStmtKind::Assert: {
      // The abstract assert must fail whenever the abstraction cannot
      // *prove* the condition: use the strengthening F(c) (states
      // satisfying it provably satisfy c; anything else is a potential
      // violation for Newton to examine). Using the weakening G(c)
      // here would mask real bugs.
      bp::BStmt *A = stmt(bp::BStmtKind::Assert, S);
      ExprRef C = conditionToLogic(Ctx, *S.Cond);
      FuncScope *FS = CurScope;
      defer([A, FS, C](CubeSearch &CS, bp::BProgram &Arena) {
        A->Cond = dnfToBExpr(Arena, FS->ScopeNames,
                             CS.findF(FS->ScopePreds, C, &FS->Pool));
      });
      return A;
    }
    case CStmtKind::Break:
      return stmt(bp::BStmtKind::Break, S);
    case CStmtKind::Continue:
      return stmt(bp::BStmtKind::Continue, S);
    case CStmtKind::Skip:
      return stmt(bp::BStmtKind::Skip, S);
    }
    return stmt(bp::BStmtKind::Skip, S);
  }

  bp::BStmt *abstractAssign(const Stmt &S) {
    ExprRef Lhs = toLogic(Ctx, *S.Lhs);
    ExprRef Rhs = toLogic(Ctx, *S.Rhs);
    FuncScope *FS = CurScope;
    std::vector<std::string> Targets;
    // Weakest preconditions are computed here, at planning time (the
    // WP engine is per-procedure state); the cube searches over them
    // are deferred, one task per updated predicate.
    struct Update {
      size_t Slot;
      ExprRef WpPos, WpNeg;
    };
    std::vector<Update> Updates;
    for (size_t I = 0; I != FS->ScopePreds.size(); ++I) {
      ExprRef E = FS->ScopePreds[I];
      ExprRef WpPos = FS->WP->assignment(Lhs, Rhs, E);
      if (WpPos == E)
        continue; // Optimization 2: definitely unaffected.
      // choose over F(WP(s, e)) / F(WP(s, !e)). A WP that dereferences
      // NULL is undefined; the predicate is invalidated to unknown.
      ExprRef WpNeg = FS->WP->assignment(Lhs, Rhs, Ctx.notE(E));
      Updates.push_back({Targets.size(), WpPos, WpNeg});
      Targets.push_back(FS->ScopeNames[I]);
    }
    if (Targets.empty())
      return stmt(bp::BStmtKind::Skip, S); // Figure 1(b)'s `skip;`.
    bp::BStmt *A = stmt(bp::BStmtKind::Assign, S);
    A->Targets = std::move(Targets);
    A->Exprs.assign(A->Targets.size(), nullptr);
    for (const Update &U : Updates) {
      defer([A, U, FS](CubeSearch &CS, bp::BProgram &Arena) {
        Dnf Pos = logic::containsNullDeref(U.WpPos)
                      ? Dnf{}
                      : CS.findF(FS->ScopePreds, U.WpPos, &FS->Pool);
        Dnf Neg = logic::containsNullDeref(U.WpNeg)
                      ? Dnf{}
                      : CS.findF(FS->ScopePreds, U.WpNeg, &FS->Pool);
        A->Exprs[U.Slot] = chooseFromDnfs(Arena, FS->ScopeNames, Pos, Neg);
      });
    }
    return A;
  }

  bp::BStmt *abstractCall(const Stmt &S) {
    const FuncDecl *Callee = S.CallE->Callee;
    const ProcSignature &Sig = signature(Callee);
    FuncScope *FS = CurScope;

    // Formal -> actual substitution map (logic terms).
    std::vector<std::pair<ExprRef, ExprRef>> ActualMap;
    for (size_t J = 0; J != Callee->Params.size(); ++J)
      ActualMap.emplace_back(Ctx.var(Callee->Params[J]->Name),
                             toLogic(Ctx, *S.CallE->Ops[J]));

    // Predicates of the caller that the call may invalidate: those
    // mentioning the assignment target or any location the callee may
    // modify (through the mod/ref summary and aliasing).
    const std::set<int> &Mod = Facts.MR.mod(Callee);
    std::set<int> LhsCells;
    if (S.Lhs) {
      for (int C : Facts.PT.locationCells(*S.Lhs))
        LhsCells.insert(C);
    }
    size_t NumGlobalPreds = Preds.Globals.size();
    std::vector<size_t> UpdateIdx; // Indices into ScopePreds (locals only).
    for (size_t I = NumGlobalPreds; I != FS->ScopePreds.size(); ++I) {
      bool MayChange = false;
      for (ExprRef Loc : logic::collectLocations(FS->ScopePreds[I])) {
        std::optional<std::set<int>> Cells =
            FS->ProgOracle ? FS->ProgOracle->cellsOf(Loc) : std::nullopt;
        if (!Cells) {
          // Unresolvable heap locations are treated conservatively; a
          // plain variable unknown to the program (an auxiliary
          // predicate variable) cannot be written by the callee.
          if (Loc->kind() != logic::ExprKind::Var)
            MayChange = true;
          continue;
        }
        for (int C : *Cells)
          if (Mod.count(C) || LhsCells.count(C))
            MayChange = true;
      }
      if (MayChange)
        UpdateIdx.push_back(I);
    }
    // The assignment target's own predicates: any local predicate
    // mentioning the lhs location syntactically is updated as well.
    if (S.Lhs) {
      ExprRef LhsL = toLogic(Ctx, *S.Lhs);
      for (size_t I = NumGlobalPreds; I != FS->ScopePreds.size(); ++I)
        if (logic::mentions(FS->ScopePreds[I], LhsL) &&
            std::find(UpdateIdx.begin(), UpdateIdx.end(), I) ==
                UpdateIdx.end())
          UpdateIdx.push_back(I);
    }
    std::sort(UpdateIdx.begin(), UpdateIdx.end());

    // Externs have no boolean-program counterpart: havoc the affected
    // predicates.
    if (Callee->isExtern()) {
      if (UpdateIdx.empty())
        return stmt(bp::BStmtKind::Skip, S);
      bp::BStmt *A = stmt(bp::BStmtKind::Assign, S);
      for (size_t I : UpdateIdx) {
        A->Targets.push_back(FS->ScopeNames[I]);
        A->Exprs.push_back(BP->star());
      }
      return A;
    }

    // Actual parameters: choose(F(e'), F(!e')) per formal predicate.
    bp::BStmt *CallB = stmt(bp::BStmtKind::Call, S);
    CallB->Callee = Callee->Name;
    CallB->Exprs.assign(Sig.Formals.size(), nullptr);
    for (size_t K = 0; K != Sig.Formals.size(); ++K) {
      ExprRef Translated =
          logic::substituteAll(Ctx, Sig.Formals[K], ActualMap);
      defer([CallB, K, FS, Translated, this](CubeSearch &CS,
                                             bp::BProgram &Arena) {
        if (logic::containsNullDeref(Translated)) {
          CallB->Exprs[K] = Arena.star();
          return;
        }
        Dnf Pos = CS.findF(FS->ScopePreds, Translated, &FS->Pool);
        Dnf Neg =
            CS.findF(FS->ScopePreds, Ctx.notE(Translated), &FS->Pool);
        CallB->Exprs[K] = chooseFromDnfs(Arena, FS->ScopeNames, Pos, Neg);
      });
    }

    // Return temps t1..tp with their caller-context meanings.
    std::vector<std::pair<ExprRef, ExprRef>> RetMap = ActualMap;
    if (S.Lhs && Sig.RetVar)
      RetMap.insert(RetMap.begin(),
                    {Ctx.var(Sig.RetVar->Name), toLogic(Ctx, *S.Lhs)});
    std::vector<std::string> TempNames;
    std::vector<ExprRef> TempPreds;
    for (size_t K = 0; K != Sig.Returns.size(); ++K) {
      std::string TName =
          "t" + std::to_string(S.Id) + "_" + std::to_string(K);
      TempNames.push_back(TName);
      TempPreds.push_back(
          logic::substituteAll(Ctx, Sig.Returns[K], RetMap));
      CurProc->Locals.push_back(TName);
    }
    CallB->Targets = TempNames;

    if (UpdateIdx.empty())
      return CallB;

    // Update each invalidated predicate over E' = (E_S u E_G) - E_u
    // plus the translated return predicates. The scope-prime vectors
    // are shared read-only by every update task of this call.
    auto VPrime = std::make_shared<std::vector<ExprRef>>();
    auto VPrimeNames = std::make_shared<std::vector<std::string>>();
    for (size_t I = 0; I != FS->ScopePreds.size(); ++I) {
      if (std::find(UpdateIdx.begin(), UpdateIdx.end(), I) !=
          UpdateIdx.end())
        continue;
      VPrime->push_back(FS->ScopePreds[I]);
      VPrimeNames->push_back(FS->ScopeNames[I]);
    }
    for (size_t K = 0; K != TempPreds.size(); ++K) {
      VPrime->push_back(TempPreds[K]);
      VPrimeNames->push_back(TempNames[K]);
    }

    bp::BStmt *Update = stmt(bp::BStmtKind::Assign, S);
    for (size_t I : UpdateIdx)
      Update->Targets.push_back(FS->ScopeNames[I]);
    Update->Exprs.assign(UpdateIdx.size(), nullptr);
    for (size_t Slot = 0; Slot != UpdateIdx.size(); ++Slot) {
      ExprRef E = FS->ScopePreds[UpdateIdx[Slot]];
      defer([Update, Slot, E, VPrime, VPrimeNames,
             this](CubeSearch &CS, bp::BProgram &Arena) {
        Dnf Pos = CS.findF(*VPrime, E);
        Dnf Neg = CS.findF(*VPrime, Ctx.notE(E));
        Update->Exprs[Slot] =
            Arena.choose(dnfToBExpr(Arena, *VPrimeNames, Pos),
                         dnfToBExpr(Arena, *VPrimeNames, Neg));
      });
    }

    bp::BStmt *Seq = BP->makeStmt(bp::BStmtKind::Block);
    Seq->Stmts.push_back(CallB);
    Seq->Stmts.push_back(Update);
    return Seq;
  }

  // -- Procedure and program -----------------------------------------------
  void abstractFunction(const FuncDecl &F) {
    enterFunction(F);
    FuncScope *FS = CurScope;
    const ProcSignature &Sig = signature(&F);

    bp::BProc *Proc = BP->makeProc();
    FS->Proc = Proc;
    Proc->Name = F.Name;
    Proc->NumReturns = static_cast<unsigned>(Sig.Returns.size());
    CurProc = Proc;

    std::set<std::string> FormalNames;
    for (ExprRef E : Sig.Formals) {
      Proc->Params.push_back(predName(E));
      FormalNames.insert(predName(E));
    }
    for (ExprRef E : Preds.forProc(F.Name))
      if (!FormalNames.count(predName(E)))
        Proc->Locals.push_back(predName(E));

    if (Options.UseEnforce) {
      Enforces.push_back({FS, [Proc, FS](CubeSearch &CS,
                                         bp::BProgram &Arena) {
        Dnf Contradictions =
            CS.findContradictions(FS->ScopePreds, &FS->Pool);
        if (!Contradictions.empty())
          Proc->Enforce = Arena.notE(
              dnfToBExpr(Arena, FS->ScopeNames, Contradictions));
      }});
    }

    bp::BStmt *Body = BP->makeStmt(bp::BStmtKind::Block);
    for (const Stmt *S : F.Body->Stmts)
      Body->Stmts.push_back(abstractStmt(*S));
    // Non-void procedures whose C body can fall off the end still need
    // well-typed returns: append one returning current values.
    if (Proc->NumReturns != 0) {
      bp::BStmt *R = BP->makeStmt(bp::BStmtKind::Return);
      for (ExprRef E : Sig.Returns)
        R->Exprs.push_back(BP->varRef(predName(E)));
      Body->Stmts.push_back(R);
    }
    Proc->Body = Body;
    CurProc = nullptr;
  }

  /// Runs one task on worker \p W. A fresh cube search per task keeps
  /// every task a pure function of its inputs, so the work it does is
  /// the same whichever worker picks it up; repeated sub-queries across
  /// tasks are absorbed by the run's prover cache instead.
  void runTask(unsigned W, DeferredTask &T) {
    TraceSpan Span("c2bp.cube_search", "c2bp");
    if (Span.enabled())
      Span.arg("proc", T.FS->F->Name);
    Worker &WK = *Workers[W];
    CubeSearch CS(Ctx, WK.Prover, *T.FS->Oracle, Options.Cubes, &WK.Stats);
    std::unique_ptr<bp::BProgram> &Arena = T.FS->WorkerArenas[W];
    if (!Arena)
      Arena = std::make_unique<bp::BProgram>();
    T.Fn(CS, *Arena);
  }

  void runPending() {
    TraceSpan Span("c2bp.execute", "c2bp");
    if (Span.enabled())
      Span.arg("tasks",
               static_cast<uint64_t>(Enforces.size() + Pending.size()));
    for (auto &FS : Scopes)
      FS->WorkerArenas.resize(Workers.size());
    // The pools are complete once the first loop returns; the second
    // only reads them.
    for (std::vector<DeferredTask> *Tasks : {&Enforces, &Pending}) {
      parallelFor(static_cast<unsigned>(Workers.size()), Tasks->size(),
                  [&](unsigned W, size_t I) { runTask(W, (*Tasks)[I]); });
      Tasks->clear();
    }
    // Results are merged in planning order by construction (tasks wrote
    // into position-addressed slots); all that remains is keeping the
    // worker-built expressions alive with their procedures, handing the
    // procedures to the memo and folding the statistics.
    for (auto &FS : Scopes) {
      for (auto &Arena : FS->WorkerArenas)
        if (Arena)
          FS->Arena->adopt(std::move(Arena));
      Memo.stageProc(FS->Index,
                     {Memo.key(FS->Index), FS->Proc, FS->Arena});
    }
    if (Stats)
      for (auto &W : Workers)
        Stats->mergeFrom(W->Stats);
  }

  std::unique_ptr<bp::BProgram> run() {
    TraceSpan Span("c2bp.run", "c2bp");
    auto Out = std::make_unique<bp::BProgram>();
    uint64_t Reused = 0;
    {
      TraceSpan PlanSpan("c2bp.plan", "c2bp");
      for (ExprRef E : Preds.Globals)
        Out->Globals.push_back(predName(E));
      const std::vector<AbstractionMemo::ProcState> &Procs = Memo.procs();
      for (size_t I = 0; I != Procs.size(); ++I) {
        const FuncDecl &F = *Procs[I].F;
        if (!F.Body)
          continue;
        const AbstractionMemo::ProcEntry &Hit = Procs[I].Committed;
        if (Hit.Proc && Hit.Key == Memo.key(I)) {
          Out->Procs.push_back(Hit.Proc);
          Out->adopt(Hit.Arena);
          ++Reused;
          continue;
        }
        abstractFunction(F);
        CurScope->Index = I;
        Out->Procs.push_back(CurScope->Proc);
        Out->adopt(CurScope->Arena);
      }
      if (PlanSpan.enabled()) {
        PlanSpan.arg("procs_reused", Reused);
        PlanSpan.arg("procs_rebuilt", static_cast<uint64_t>(Scopes.size()));
      }
    }
    // More workers than tasks would sit idle; build only those that run.
    size_t NumWorkers =
        std::clamp<size_t>(std::max(Enforces.size(), Pending.size()), 1,
                           std::max(1, Options.NumWorkers));
    for (size_t W = 0; W != NumWorkers; ++W)
      Workers.push_back(std::make_unique<Worker>(Ctx, &Cache));
    if (Span.enabled()) {
      Span.arg("predicates", static_cast<uint64_t>(Preds.totalCount()));
      Span.arg("workers", static_cast<uint64_t>(NumWorkers));
    }
    runPending();
    if (Stats) {
      Stats->set("c2bp.predicates", Preds.totalCount());
      Stats->add("c2bp.procs_reused", Reused);
      Stats->add("c2bp.procs_rebuilt", Scopes.size());
    }
    return Out;
  }
};

C2bpTool::C2bpTool(const Program &P, const PredicateSet &Preds,
                   logic::LogicContext &Ctx, C2bpOptions Options,
                   StatsRegistry *Stats)
    : M(std::make_unique<Impl>(P, Preds, Ctx, Options, Stats)) {}

C2bpTool::~C2bpTool() = default;

std::unique_ptr<bp::BProgram> C2bpTool::run() { return M->run(); }

std::unique_ptr<bp::BProgram>
c2bp::abstractProgram(const Program &P, const PredicateSet &Preds,
                      logic::LogicContext &Ctx, C2bpOptions Options,
                      StatsRegistry *Stats) {
  C2bpTool Tool(P, Preds, Ctx, Options, Stats);
  return Tool.run();
}
