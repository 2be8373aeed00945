//===- Bebop.cpp - Summary-based BDD reachability ---------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Variable layout: one frame of slots for every procedure. The globals
// take slots 0..G-1, and each procedure's parameters, locals and one
// pseudo-variable per return value (<retK>) follow them from slot G.
// Each slot has five "rails" of BDD variables:
//
//   E  — value at procedure entry (the context half of a path edge);
//   C  — current value;
//   N  — next value (transfer staging for assignments);
//   SE — summary input (entry) rail;
//   SC — summary output rail.
//
// Path edges PE(n) live over (E, C) and summaries over (SE, SC), so a
// caller and its callee share slots without colliding: a call binds the
// caller's C/N rails to the callee's SE/SC rails, as a recursive call
// always did. The session allocates 5 x the largest frame variables
// once, then the choice variables. All renames used (N->C, SE->E,
// E->SE / C->SC, C_t->N_t) are order-preserving by construction. A
// name resolves by scanning the procedure's locals, its parameters,
// then the globals, last declaration first (slotOf). Near-identical
// procedures, such as the generated dispatch routines of the Table 1
// models, now hash-cons to shared BDD nodes; differing ones share less.
//
// Control flow is the procedure's own CFG (BProc::cfg()), lowered once
// per procedure and shared by every Bebop over it, so a procedure the
// abstraction memo hands to the next CEGAR round keeps its graph.
//
// Relations: each non-call CFG node has one relation from the C rail to
// the N rail of its targets (stmtRel), and each call site one binding
// (callStep): In ties the callee's SE rail to the caller's C rail and
// arguments, Out ties the caller's N rail of the globals and targets to
// the callee's SC rail. Both are built on first use, with the choice
// variables of `*` and `choose` quantified out, and the image (post,
// processCall) and the pre-image (preOp, trace reconstruction) read the
// same ones. Likewise every variable set a step quantifies and every
// renaming it applies is interned with the BDD manager, those over
// every slot once per manager and the rest (per node, per call site,
// per procedure) on first use, as is each procedure's entry identity,
// so a propagation step builds no container. The step counters are
// members, published once per run().
//
// Session: the manager and each procedure's entry (ProcInfo: layout,
// relations, interned sets) live in a Session that the checkers of a
// CEGAR loop share, keyed by BProc::Serial, so a procedure the memo
// reuses keeps them; a call binding is rebuilt when its callee changes.
// A checker builds entries for new procedures, drops those of procedures
// its program lacks, and clears the path edges and summaries it set when
// it dies. A checker given no session makes its own.
//
//===----------------------------------------------------------------------===//

#include "bebop/Bebop.h"

#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

using namespace slam;
using namespace slam::bebop;
using namespace slam::bp;
using bdd::BddManager;
using bdd::Node;
using bdd::Renaming;
using bdd::VarSet;

namespace {

enum Rail { RailE = 0, RailC = 1, RailN = 2, RailSE = 3, RailSC = 4 };

/// A relation not built yet (no BDD node has a negative handle).
constexpr Node Unbuilt = -1;

/// The binding of one call site between the caller's rails and the
/// callee's summary rails (see callStep), and what applying the callee's
/// summary there quantifies and renames.
struct CallStep {
  /// The callee the binding was built for (BProc::Serial): a reused
  /// caller may call a rebuilt callee with another frame.
  uint64_t CalleeSerial = 0;
  /// The callee's index in the current run's program.
  int Callee = -1;
  /// Callee SE rail <-> caller C rail of the globals and the encoded
  /// arguments.
  Node In = Unbuilt;
  /// Caller N rail of the globals and targets <-> callee SC rail.
  Node Out = Unbuilt;
  /// Caller variables the call changes: the globals, then the targets.
  std::vector<int> Changed;
  /// summaryQuant on the caller's C rail, and the Changed variables
  /// N -> C.
  VarSet SummaryQuant;
  Renaming ChangedNToC;
  /// The last run that read In (bebop.relations_reused).
  uint64_t InRead = 0;
};

/// One CFG node's reachable states and, for a non-call node, its
/// relation and what its image quantifies and renames.
struct NodeInfo {
  // Per run; a checker clears what it set (Bebop::Impl::Touched).
  Node PE = BddManager::False;
  /// (rank, cumulative PE) growth log for traces.
  std::vector<std::pair<uint64_t, Node>> Log;

  // Kept across runs.
  /// The statement relation (stmtRel).
  Node Rel = Unbuilt;
  /// Assert nodes: the states that violate it (checkAssert).
  Node Bad = Unbuilt;
  /// The targets' C rail, and the targets N -> C (post).
  VarSet PostQuant;
  Renaming PostRename;
  /// The last runs that read Rel and Bad (bebop.relations_reused).
  uint64_t RelRead = 0, BadRead = 0;
};

/// One procedure's layout, relations and, for the current run, its
/// reachable states.
struct ProcInfo {
  const BProc *Proc = nullptr;
  const ProcCfg *Cfg = nullptr;
  /// The frame's first local slot and first <retK> slot.
  int LocalBase = 0, RetBase = 0;

  std::vector<NodeInfo> Nodes;
  /// Per call node: its binding (callStep).
  std::map<int, CallStep> Calls;

  Node EnforceBdd = BddManager::True; // Over the C rail.
  /// E <-> C over the globals and parameters (identity).
  Node Identity = Unbuilt;
  /// What updateSummary projects away, interned on first use.
  VarSet SummaryProject;

  /// The last run whose program has this procedure.
  uint64_t LastRun = 0;

  // Per run; a checker clears them (clearRun).
  /// The call sites of this procedure: (caller index, caller node).
  std::vector<std::pair<int, int>> CallSites;
  Node Summary = BddManager::False;
  std::vector<std::pair<uint64_t, Node>> SummaryLog;
  Node EntrySeen = BddManager::False;
  struct EntryRec {
    uint64_t Rank;
    Node States; // Over the E rail.
    int CallerProc;
    int CallerNode;
  };
  std::vector<EntryRec> EntryLog;

  /// Clears the per-run fields but the nodes'.
  void clearRun() {
    CallSites.clear();
    Summary = EntrySeen = BddManager::False;
    SummaryLog.clear();
    EntryLog.clear();
  }
};

int railVar(int Slot, Rail R) { return 5 * Slot + R; }

/// Rails \p Rails of the slots \p Slots.
std::vector<int> railVars(const std::vector<int> &Slots,
                          std::initializer_list<Rail> Rails) {
  std::vector<int> Out;
  for (int V : Slots)
    for (Rail R : Rails)
      Out.push_back(railVar(V, R));
  return Out;
}

/// Renames rail \p From to rail \p To for the slots \p Slots.
std::map<int, int> railMap(const std::vector<int> &Slots, Rail From,
                           Rail To) {
  std::map<int, int> Ren;
  for (int V : Slots)
    Ren[railVar(V, From)] = railVar(V, To);
  return Ren;
}

} // namespace

struct Session::Impl {
  BddManager M;
  /// The globals and the number of slots the manager's variables are
  /// laid out for; NumSlots < 0 before the first checker.
  std::vector<std::string> Globals;
  int NumSlots = -1;
  /// Every slot, and sets and renamings over all of them, interned
  /// once; one that names slots outside a procedure's frame leaves that
  /// procedure's BDDs alone.
  std::vector<int> Slots;
  VarSet AllE, AllC, AllSE, AllEC;
  /// E/C -> SE/SC and back, for summaries and for entry states that
  /// cross a call (SE -> E into the callee, E -> SE out of it in traces).
  Renaming ToSummary, FromSummary;
  /// The choice variables of `*` and `choose`, after the slots'.
  std::vector<int> ChoiceVars;
  /// Per procedure, by BProc::Serial.
  std::unordered_map<uint64_t, ProcInfo> Procs;
  /// Checkers constructed so far; whether one is alive.
  uint64_t Runs = 0;
  bool Busy = false;

  /// Starts over with a fresh manager laid out for \p NewGlobals and
  /// \p Frame slots.
  void start(const std::vector<std::string> &NewGlobals, int Frame) {
    if (NumSlots >= 0) {
      Procs.clear();
      ChoiceVars.clear();
      M = BddManager();
    }
    Globals = NewGlobals;
    NumSlots = Frame;
    for (int V = 0; V != 5 * Frame; ++V)
      M.newVar();
    Slots.resize(Frame);
    std::iota(Slots.begin(), Slots.end(), 0);
    AllE = M.varSet(railVars(Slots, {RailE}));
    AllC = M.varSet(railVars(Slots, {RailC}));
    AllSE = M.varSet(railVars(Slots, {RailSE}));
    AllEC = M.varSet(railVars(Slots, {RailE, RailC}));
    std::map<int, int> Ren = railMap(Slots, RailE, RailSE);
    Ren.merge(railMap(Slots, RailC, RailSC));
    ToSummary = M.renaming(Ren);
    Ren = railMap(Slots, RailSE, RailE);
    Ren.merge(railMap(Slots, RailSC, RailC));
    FromSummary = M.renaming(Ren);
  }
};

Session::Session() : M(std::make_unique<Impl>()) {}
Session::~Session() = default;

struct Bebop::Impl {
  const BProgram &Prog;
  StatsRegistry *Stats;
  /// The session, this checker's own when none was given.
  std::unique_ptr<Session> Own;
  Session::Impl &S;
  BddManager &M;

  /// This run's procedures, in program order, and their indices by name.
  std::vector<ProcInfo *> Procs;
  std::unordered_map<std::string_view, int> ProcIndex;
  /// The nodes this run gave path edges, which it clears when it dies.
  std::vector<NodeInfo *> Touched;
  /// This run's number (Session::Impl::Runs).
  uint64_t RunId = 0;
  int NumGlobals = 0;
  uint64_t Rank = 0;
  std::deque<std::pair<int, int>> Worklist;

  // First observed assertion failure.
  bool Failed = false;
  int FailProc = -1, FailNode = -1;
  Node FailStates = BddManager::False;

  /// The bebop.steps, bebop.pe_updates, bebop.summary_updates and
  /// bebop.relations_reused not yet published (publishCounters).
  uint64_t Steps = 0, PEUpdates = 0, SummaryUpdates = 0, RelationsReused = 0;
  /// bddNodes() of the last run.
  size_t ReachNodes = 0;

  // -- Layout ----------------------------------------------------------------
  /// The slot of variable \p Name in \p PI's frame: a local, else a
  /// parameter, else a global, the last declaration first, so locals
  /// and parameters shadow globals.
  int slotOf(const ProcInfo &PI, const std::string &Name) const {
    const BProc &P = *PI.Proc;
    for (size_t I = P.Locals.size(); I-- != 0;)
      if (P.Locals[I] == Name)
        return PI.LocalBase + static_cast<int>(I);
    for (size_t I = P.Params.size(); I-- != 0;)
      if (P.Params[I] == Name)
        return NumGlobals + static_cast<int>(I);
    for (size_t I = Prog.Globals.size(); I-- != 0;)
      if (Prog.Globals[I] == Name)
        return static_cast<int>(I);
    assert(false && "verified program");
    return -1;
  }

  /// The name of slot \p Slot of \p PI's frame.
  std::string slotName(const ProcInfo &PI, int Slot) const {
    if (Slot < NumGlobals)
      return Prog.Globals[Slot];
    if (Slot < PI.LocalBase)
      return PI.Proc->Params[Slot - NumGlobals];
    if (Slot < PI.RetBase)
      return PI.Proc->Locals[Slot - PI.LocalBase];
    return "<ret" + std::to_string(Slot - PI.RetBase) + ">";
  }

  Impl(const BProgram &P, StatsRegistry *Stats, Session *Given)
      : Prog(P), Stats(Stats),
        Own(Given ? nullptr : std::make_unique<Session>()),
        S(*(Given ? Given : Own.get())->M), M(S.M) {
    TraceSpan Span("bebop.build", "bebop");
    if (S.Busy)
      throw std::logic_error("bebop::Session serves one checker at a time");
    NumGlobals = static_cast<int>(Prog.Globals.size());
    int Frame = NumGlobals;
    for (const BProc *BP : Prog.Procs)
      Frame = std::max(Frame, NumGlobals +
                                  static_cast<int>(BP->Params.size() +
                                                   BP->Locals.size() +
                                                   BP->NumReturns));
    if (Prog.Globals != S.Globals || Frame > S.NumSlots)
      S.start(Prog.Globals, Frame);

    RunId = ++S.Runs;
    Procs.reserve(Prog.Procs.size());
    ProcIndex.reserve(Prog.Procs.size());
    for (size_t I = 0; I != Prog.Procs.size(); ++I) {
      const BProc *BP = Prog.Procs[I];
      ProcIndex[BP->Name] = static_cast<int>(I);
      auto [It, New] = S.Procs.try_emplace(BP->Serial);
      ProcInfo &PI = It->second;
      if (New)
        layOut(PI, *BP);
      PI.LastRun = RunId;
      Procs.push_back(&PI);
    }
    // No later program has these procedures.
    std::erase_if(S.Procs, [this](const auto &Entry) {
      return Entry.second.LastRun != RunId;
    });

    // Call sites; a binding built for another callee starts over.
    for (size_t I = 0; I != Procs.size(); ++I)
      for (auto &[N, CS] : Procs[I]->Calls) {
        auto It = ProcIndex.find(Procs[I]->Cfg->node(N).Stmt->Callee);
        assert(It != ProcIndex.end() && "verified program");
        ProcInfo &Callee = *Procs[It->second];
        if (CS.CalleeSerial != Callee.Proc->Serial) {
          CS = CallStep();
          CS.CalleeSerial = Callee.Proc->Serial;
        }
        CS.Callee = It->second;
        Callee.CallSites.emplace_back(static_cast<int>(I), N);
      }
    S.Busy = true;
  }

  /// Leaves the session's entries as the next checker expects them.
  ~Impl() {
    for (NodeInfo *NI : Touched) {
      NI->PE = BddManager::False;
      NI->Log.clear();
    }
    for (ProcInfo *PI : Procs)
      PI->clearRun();
    S.Busy = false;
  }

  /// Notes that this run reads a relation last read in run \p LastRead:
  /// the first read of one built by an earlier run counts as reused.
  void read(uint64_t &LastRead, Node Rel) {
    if (LastRead == RunId)
      return;
    RelationsReused += Rel != Unbuilt;
    LastRead = RunId;
  }

  /// Lays out the new entry \p PI of \p BP: its frame, node table, call
  /// nodes and enforce BDD.
  void layOut(ProcInfo &PI, const BProc &BP) {
    PI.Proc = &BP;
    PI.Cfg = &BP.cfg();
    PI.LocalBase = NumGlobals + static_cast<int>(BP.Params.size());
    PI.RetBase = PI.LocalBase + static_cast<int>(BP.Locals.size());
    PI.Nodes.resize(PI.Cfg->numNodes());
    for (int N = 0; N != PI.Cfg->numNodes(); ++N)
      if (PI.Cfg->node(N).Op == NodeOp::Call)
        PI.Calls[N];
    if (BP.Enforce) {
      std::vector<int> Ch;
      PI.EnforceBdd = encode(PI, BP.Enforce, Ch);
      PI.EnforceBdd = M.exists(PI.EnforceBdd, M.varSet(Ch));
    }
  }

  int ensureChoice(size_t K) {
    while (S.ChoiceVars.size() <= K)
      S.ChoiceVars.push_back(M.newVar());
    return S.ChoiceVars[K];
  }

  // -- Expression encoding ------------------------------------------------
  Node encode(ProcInfo &PI, const BExpr *E, std::vector<int> &Choices) {
    switch (E->Kind) {
    case BExprKind::Const:
      return M.constant(E->BoolValue);
    case BExprKind::Star: {
      int V = ensureChoice(Choices.size());
      Choices.push_back(V);
      return M.varNode(V);
    }
    case BExprKind::VarRef:
      return M.varNode(railVar(slotOf(PI, E->Name), RailC));
    case BExprKind::Not:
      return M.mkNot(encode(PI, E->Ops[0], Choices));
    case BExprKind::And:
      return M.mkAnd(encode(PI, E->Ops[0], Choices),
                     encode(PI, E->Ops[1], Choices));
    case BExprKind::Or:
      return M.mkOr(encode(PI, E->Ops[0], Choices),
                    encode(PI, E->Ops[1], Choices));
    case BExprKind::Eq:
      return M.mkXnor(encode(PI, E->Ops[0], Choices),
                      encode(PI, E->Ops[1], Choices));
    case BExprKind::Ne:
      return M.mkXor(encode(PI, E->Ops[0], Choices),
                     encode(PI, E->Ops[1], Choices));
    case BExprKind::Choose: {
      Node Pos = encode(PI, E->Ops[0], Choices);
      Node Neg = encode(PI, E->Ops[1], Choices);
      int V = ensureChoice(Choices.size());
      Choices.push_back(V);
      return M.mkIte(Pos, BddManager::True,
                     M.mkIte(Neg, BddManager::False, M.varNode(V)));
    }
    }
    return BddManager::False;
  }

  // -- Relations ------------------------------------------------------------
  /// The variables an Assign or Return node writes; none for other nodes.
  std::vector<int> targets(const ProcInfo &PI, const CfgNode &N) const {
    std::vector<int> Out;
    if (N.Op == NodeOp::Assign)
      for (const std::string &T : N.Stmt->Targets)
        Out.push_back(slotOf(PI, T));
    if (N.Op == NodeOp::Return)
      for (size_t K = 0; K != N.Stmt->Exprs.size(); ++K)
        Out.push_back(PI.RetBase + static_cast<int>(K));
    return Out;
  }

  /// The relation of non-call node \p NodeId from the C rail to the N
  /// rail of its targets, built on first use: the condition of an
  /// assume or assert (a condition containing `*` may pass either way),
  /// AND_i (N_t_i <-> enc(e_i)) of an assignment or return, and true
  /// otherwise. No state set mentions a choice variable, so they are
  /// quantified out here. Building it also interns what post quantifies
  /// and renames.
  Node stmtRel(ProcInfo &PI, int NodeId) {
    NodeInfo &NI = PI.Nodes[NodeId];
    read(NI.RelRead, NI.Rel);
    if (NI.Rel != Unbuilt)
      return NI.Rel;
    const CfgNode &N = PI.Cfg->node(NodeId);
    std::vector<int> Choices;
    Node T = BddManager::True;
    if (N.Cond) {
      T = encode(PI, N.Cond, Choices);
      if (N.NegateCond)
        T = M.mkNot(T);
    }
    std::vector<int> Targets = targets(PI, N);
    for (size_t I = 0; I != Targets.size(); ++I) {
      Node Val = encode(PI, N.Stmt->Exprs[I], Choices);
      T = M.mkAnd(T,
                  M.mkXnor(M.varNode(railVar(Targets[I], RailN)), Val));
    }
    NI.PostQuant = M.varSet(railVars(Targets, {RailC}));
    NI.PostRename = M.renaming(railMap(Targets, RailN, RailC));
    return NI.Rel = M.exists(T, M.varSet(Choices));
  }

  /// The binding of call node \p NodeId of \p Caller, built on first use.
  /// \p WithOut also builds its Out half, which only summary application
  /// and trace reconstruction read, and interns what summary application
  /// quantifies and renames.
  CallStep &callStep(ProcInfo &Caller, int NodeId, bool WithOut) {
    CallStep &CS = Caller.Calls.at(NodeId);
    const BStmt *CallS = Caller.Cfg->node(NodeId).Stmt;
    const ProcInfo &Callee = *Procs[CS.Callee];
    read(CS.InRead, CS.In);
    if (CS.In == Unbuilt) {
      // Globals pass through; parameters take the encoded arguments.
      std::vector<int> Choices;
      Node B = BddManager::True;
      for (int G = 0; G != NumGlobals; ++G)
        B = M.mkAnd(B, M.mkXnor(M.varNode(railVar(G, RailSE)),
                                M.varNode(railVar(G, RailC))));
      for (int Pm = 0; Pm != Callee.LocalBase - NumGlobals; ++Pm) {
        Node Arg = encode(Caller, CallS->Exprs[Pm], Choices);
        B = M.mkAnd(B, M.mkXnor(M.varNode(railVar(NumGlobals + Pm, RailSE)),
                                Arg));
      }
      CS.In = M.exists(B, M.varSet(Choices));
      CS.Changed.assign(S.Slots.begin(), S.Slots.begin() + NumGlobals);
      for (const std::string &T : CallS->Targets)
        CS.Changed.push_back(slotOf(Caller, T));
    }
    if (WithOut && CS.Out == Unbuilt) {
      // The globals take the callee's globals, the targets its returns;
      // a global that is also a target takes the return value.
      CS.Out = BddManager::True;
      for (int K = 0; K != static_cast<int>(CS.Changed.size()); ++K) {
        if (std::find(CS.Changed.begin() + K + 1, CS.Changed.end(),
                      CS.Changed[K]) != CS.Changed.end())
          continue;
        int From = K < NumGlobals ? K : Callee.RetBase + K - NumGlobals;
        Node Bind = M.mkXnor(M.varNode(railVar(CS.Changed[K], RailN)),
                             M.varNode(railVar(From, RailSC)));
        CS.Out = M.mkAnd(CS.Out, Bind);
      }
      CS.SummaryQuant = callQuant(CS, RailSE, RailSC, RailC);
      CS.ChangedNToC = M.renaming(railMap(CS.Changed, RailN, RailC));
    }
    return CS;
  }

  /// What a step across the call \p CS quantifies: rails \p A and \p B
  /// of every slot and rail \p R of the caller variables the call changes.
  VarSet callQuant(const CallStep &CS, Rail A, Rail B, Rail R) {
    std::vector<int> Quant = railVars(S.Slots, {A, B});
    for (int V : CS.Changed)
      Quant.push_back(railVar(V, R));
    return M.varSet(Quant);
  }

  /// Post-state of executing non-call node \p NodeId on states \p St:
  /// St' = rename_{N->C}(exists(C_t)(St & Rel)).
  Node post(ProcInfo &PI, int NodeId, Node St) {
    Node Rel = stmtRel(PI, NodeId);
    const NodeInfo &NI = PI.Nodes[NodeId];
    Node R = M.rename(M.andExists(St, Rel, NI.PostQuant), NI.PostRename);
    return PI.Cfg->node(NodeId).Op == NodeOp::Assign
               ? M.mkAnd(R, PI.EnforceBdd)
               : R;
  }

  /// Identity over globals and parameters (E <-> C), used to seed entry
  /// path edges; built on first use.
  Node identity(ProcInfo &PI) {
    if (PI.Identity != Unbuilt)
      return PI.Identity;
    Node Id = BddManager::True;
    for (int V = 0; V != PI.LocalBase; ++V)
      Id = M.mkAnd(Id, M.mkXnor(M.varNode(railVar(V, RailE)),
                                M.varNode(railVar(V, RailC))));
    return PI.Identity = Id;
  }

  // -- Propagation -------------------------------------------------------
  void updatePE(int ProcIdx, int NodeId, Node Add) {
    NodeInfo &NI = Procs[ProcIdx]->Nodes[NodeId];
    Node U = M.mkOr(NI.PE, Add);
    if (U == NI.PE)
      return;
    if (NI.Log.empty())
      Touched.push_back(&NI);
    NI.PE = U;
    NI.Log.emplace_back(++Rank, U);
    Worklist.emplace_back(ProcIdx, NodeId);
    ++PEUpdates;
  }

  void seedEntry(int ProcIdx, Node EntryStatesE, int CallerProc,
                 int CallerNode) {
    ProcInfo &PI = *Procs[ProcIdx];
    Node NewStates = M.mkAnd(EntryStatesE, M.mkNot(PI.EntrySeen));
    if (NewStates == BddManager::False)
      return;
    PI.EntrySeen = M.mkOr(PI.EntrySeen, NewStates);
    PI.EntryLog.push_back(
        {++Rank, NewStates, CallerProc, CallerNode});
    Node Seed = M.mkAnd(M.mkAnd(NewStates, identity(PI)), PI.EnforceBdd);
    updatePE(ProcIdx, PI.Cfg->entry(), Seed);
  }

  void processCall(int ProcIdx, int NodeId) {
    ProcInfo &Caller = *Procs[ProcIdx];
    Node St = Caller.Nodes[NodeId].PE;
    if (St == BddManager::False)
      return;
    CallStep &CS = callStep(Caller, NodeId, /*WithOut=*/false);
    ProcInfo &Callee = *Procs[CS.Callee];

    // 1. Propagate entry states into the callee.
    Node EntrySE = M.andExists(St, CS.In, S.AllEC);
    seedEntry(CS.Callee, M.rename(EntrySE, S.FromSummary), ProcIdx, NodeId);

    // 2. Apply the callee summary, if any.
    if (Callee.Summary == BddManager::False)
      return;
    callStep(Caller, NodeId, /*WithOut=*/true);
    Node Left = M.mkAnd(M.mkAnd(St, CS.In), CS.Out);
    Node Comb = M.andExists(Left, Callee.Summary, CS.SummaryQuant);
    Node Out = M.mkAnd(M.rename(Comb, CS.ChangedNToC), Caller.EnforceBdd);
    for (int Succ : Caller.Cfg->node(NodeId).Succs)
      updatePE(ProcIdx, Succ, Out);
  }

  void updateSummary(int ProcIdx) {
    ProcInfo &PI = *Procs[ProcIdx];
    // Only the globals and parameters are ever constrained on the E rail
    // (seedEntry), so projecting the parameters and locals off the C
    // rail leaves E (globals+params) and C (globals+rets): rename them
    // to SE and SC.
    if (!PI.SummaryProject.valid()) {
      std::vector<int> Quant;
      for (int V = NumGlobals; V != PI.RetBase; ++V)
        Quant.push_back(railVar(V, RailC));
      PI.SummaryProject = M.varSet(Quant);
    }
    Node ExitPE = PI.Nodes[PI.Cfg->exit()].PE;
    Node Sum = M.rename(M.exists(ExitPE, PI.SummaryProject), S.ToSummary);

    Node U = M.mkOr(PI.Summary, Sum);
    if (U == PI.Summary)
      return;
    PI.Summary = U;
    PI.SummaryLog.emplace_back(++Rank, U);
    for (const auto &[CP, CN] : PI.CallSites)
      Worklist.emplace_back(CP, CN);
    ++SummaryUpdates;
  }

  void checkAssert(int ProcIdx, int NodeId) {
    if (Failed)
      return;
    ProcInfo &PI = *Procs[ProcIdx];
    NodeInfo &NI = PI.Nodes[NodeId];
    read(NI.BadRead, NI.Bad);
    if (NI.Bad == Unbuilt) {
      const CfgNode &N = PI.Cfg->node(NodeId);
      std::vector<int> Ch;
      Node C = N.Cond ? encode(PI, N.Cond, Ch) : BddManager::True;
      NI.Bad = M.exists(M.mkNot(C), M.varSet(Ch));
    }
    Node Fail = M.mkAnd(NI.PE, NI.Bad);
    if (Fail == BddManager::False)
      return;
    Failed = true;
    FailProc = ProcIdx;
    FailNode = NodeId;
    FailStates = Fail;
  }

  // -- Main loop ------------------------------------------------------------
  void run(const std::string &EntryProc, bool StopAtFirstViolation) {
    auto It = ProcIndex.find(EntryProc);
    assert(It != ProcIndex.end() && "unknown entry procedure");
    seedEntry(It->second, BddManager::True, -1, -1);

    while (!Worklist.empty()) {
      if (Failed && StopAtFirstViolation)
        break;
      auto [ProcIdx, NodeId] = Worklist.front();
      Worklist.pop_front();
      ProcInfo &PI = *Procs[ProcIdx];
      const CfgNode &N = PI.Cfg->node(NodeId);
      ++Steps;

      if (N.Op == NodeOp::Call) {
        processCall(ProcIdx, NodeId);
        continue;
      }
      if (N.Op == NodeOp::Assert)
        checkAssert(ProcIdx, NodeId);
      if (N.Op == NodeOp::Exit) {
        updateSummary(ProcIdx);
        continue;
      }
      Node Out = post(PI, NodeId, PI.Nodes[NodeId].PE);
      for (int Succ : N.Succs)
        updatePE(ProcIdx, Succ, Out);
    }
  }

  /// Adds the step counters gathered since the last call to Stats.
  /// A counter that stayed zero is left out, as if never bumped.
  void publishCounters() {
    auto Publish = [this](const char *Name, uint64_t &Count) {
      if (Count)
        Stats->add(Name, Count);
      Count = 0;
    };
    Publish("bebop.steps", Steps);
    Publish("bebop.pe_updates", PEUpdates);
    Publish("bebop.summary_updates", SummaryUpdates);
    Publish("bebop.relations_reused", RelationsReused);
  }

  // -- Trace reconstruction -------------------------------------------------
  /// The last set of a (rank, cumulative set) log -- a node's path
  /// edges or a procedure's summary -- logged before \p RankBound;
  /// False if none.
  static Node before(const std::vector<std::pair<uint64_t, Node>> &Log,
                     uint64_t RankBound) {
    Node Best = BddManager::False;
    for (const auto &[R, Cum] : Log) {
      if (R >= RankBound)
        break;
      Best = Cum;
    }
    return Best;
  }

  /// Earliest rank at which (Proc,Node)'s PE intersects \p X (< Bound);
  /// 0 if never.
  uint64_t earliestRank(int ProcIdx, int NodeId, Node X, uint64_t Bound) {
    for (const auto &[R, Cum] : Procs[ProcIdx]->Nodes[NodeId].Log) {
      if (R >= Bound)
        break;
      if (M.mkAnd(Cum, X) != BddManager::False)
        return R;
    }
    return 0;
  }

  /// Pre-image of \p X under the operation of node \p NodeId; a call
  /// applies the callee summary as it stood before \p RankBound.
  Node preOp(ProcInfo &PI, int NodeId, Node X, uint64_t RankBound) {
    const CfgNode &N = PI.Cfg->node(NodeId);
    if (N.Op != NodeOp::Call) {
      std::vector<int> T = targets(PI, N);
      return M.andExists(stmtRel(PI, NodeId),
                         M.rename(X, M.renaming(railMap(T, RailC, RailN))),
                         M.varSet(railVars(T, {RailN})));
    }
    CallStep &CS = callStep(PI, NodeId, /*WithOut=*/true);
    Node XN = M.rename(X, M.renaming(railMap(CS.Changed, RailC, RailN)));
    Node Left = M.mkAnd(M.mkAnd(CS.In, CS.Out), XN);
    return M.andExists(Left, before(Procs[CS.Callee]->SummaryLog, RankBound),
                       callQuant(CS, RailSE, RailSC, RailN));
  }

  void pushStep(std::vector<TraceStep> &Steps, int ProcIdx, int NodeId) {
    const CfgNode &N = Procs[ProcIdx]->Cfg->node(NodeId);
    // Entry is no statement; an exit step is pushed only where a callee
    // returns. Skips are kept when they originate from a real C statement
    // (the abstraction may have erased its effect on the predicates, but
    // Newton's concrete replay still needs it).
    if (N.Op == NodeOp::Entry ||
        (N.Op == NodeOp::Skip && (!N.Stmt || N.Stmt->OriginId < 0)))
      return;
    Steps.push_back({Procs[ProcIdx]->Proc->Name, N.Stmt, N.Op,
                     N.Stmt ? N.Stmt->OriginId : -1});
  }

  /// Builds the statement path from \p ProcIdx's entry to \p NodeId
  /// ending in states X (over (E, C)), using only facts established
  /// before \p RankBound. Returns the steps in execution order and the
  /// entry states actually used (over the E rail, context half).
  struct ProcTrace {
    std::vector<TraceStep> Steps;
    Node EntryStates; // Over E rail.
    uint64_t EntryRank;
  };

  ProcTrace traceWithin(int ProcIdx, int NodeId, Node X,
                        uint64_t RankBound) {
    ProcInfo &PI = *Procs[ProcIdx];
    std::vector<TraceStep> Rev; // Built backwards.
    int Cur = NodeId;
    Node CurX = X;
    uint64_t Bound = RankBound;

    for (;;) {
      uint64_t R0 = earliestRank(ProcIdx, Cur, CurX, Bound);
      assert(R0 != 0 && "trace target not reachable under bound");
      CurX = M.mkAnd(CurX, before(PI.Nodes[Cur].Log, R0 + 1));
      if (PI.Cfg->node(Cur).Op == NodeOp::Entry) {
        ProcTrace Out;
        std::reverse(Rev.begin(), Rev.end());
        Out.Steps = std::move(Rev);
        // Context half of the path edge.
        Out.EntryStates = M.exists(CurX, S.AllC);
        Out.EntryRank = R0;
        return Out;
      }

      // Find the producing predecessor.
      int BestPred = -1;
      uint64_t BestRank = 0;
      Node BestY = BddManager::False;
      for (int Pred : PI.Cfg->preds()[Cur]) {
        Node Y = preOp(PI, Pred, CurX, R0);
        if (Y == BddManager::False)
          continue;
        uint64_t R = earliestRank(ProcIdx, Pred, Y, R0);
        if (R == 0)
          continue;
        if (BestPred < 0 || R < BestRank) {
          BestPred = Pred;
          BestRank = R;
          BestY = M.mkAnd(Y, before(PI.Nodes[Pred].Log, R + 1));
        }
      }
      assert(BestPred >= 0 && "no producing predecessor found");

      const CfgNode &PredNode = PI.Cfg->node(BestPred);
      if (PredNode.Op == NodeOp::Call) {
        // Splice the callee's internal path between the call and here:
        // the callee exit states consistent with (BestY -> CurX).
        CallStep &CS = callStep(PI, BestPred, /*WithOut=*/true);
        int CalleeIdx = CS.Callee;
        ProcInfo &Callee = *Procs[CalleeIdx];
        Node W = M.mkAnd(M.mkAnd(BestY, CS.In), CS.Out);
        Node XN =
            M.rename(CurX, M.renaming(railMap(CS.Changed, RailC, RailN)));
        // Over the callee's (SE, SC), renamed to its (E, C).
        Node Z = M.andExists(W, XN, callQuant(CS, RailE, RailC, RailN));
        Z = M.rename(Z, S.FromSummary);
        Node ExitTarget =
            M.mkAnd(Z, before(Callee.Nodes[Callee.Cfg->exit()].Log, R0));
        if (ExitTarget != BddManager::False) {
          ProcTrace Sub = traceWithin(CalleeIdx, Callee.Cfg->exit(),
                                      ExitTarget, R0);
          // The exit step marks the return, `return` statement or not.
          pushStep(Rev, CalleeIdx, Callee.Cfg->exit());
          for (auto It = Sub.Steps.rbegin(); It != Sub.Steps.rend(); ++It)
            Rev.push_back(*It);
        }
      }
      pushStep(Rev, ProcIdx, BestPred);
      Cur = BestPred;
      CurX = BestY;
      Bound = R0;
    }
  }

  /// Full interprocedural trace ending at the failing node.
  std::vector<TraceStep> buildTrace() {
    std::vector<TraceStep> Steps;
    int ProcIdx = FailProc;
    int NodeId = FailNode;
    Node X = FailStates;
    uint64_t Bound = Rank + 1;

    // The failing assert itself.
    pushStep(Steps, ProcIdx, NodeId);
    std::vector<TraceStep> Tail = std::move(Steps);

    for (;;) {
      ProcTrace T = traceWithin(ProcIdx, NodeId, X, Bound);
      std::vector<TraceStep> Combined = std::move(T.Steps);
      Combined.insert(Combined.end(), Tail.begin(), Tail.end());
      Tail = std::move(Combined);

      // Ascend to the caller that seeded these entry states.
      ProcInfo &PI = *Procs[ProcIdx];
      const ProcInfo::EntryRec *Rec = nullptr;
      for (const auto &E : PI.EntryLog) {
        if (E.Rank > T.EntryRank)
          break;
        if (M.mkAnd(E.States, T.EntryStates) != BddManager::False)
          Rec = &E;
        if (Rec && E.Rank == T.EntryRank)
          break;
      }
      if (!Rec || Rec->CallerProc < 0)
        return Tail; // Entry procedure reached.

      // Caller states at the call node consistent with the entry states.
      ProcInfo &Caller = *Procs[Rec->CallerProc];
      const CallStep &CS = callStep(Caller, Rec->CallerNode, /*WithOut=*/false);
      Node EntrySE =
          M.rename(M.mkAnd(T.EntryStates, Rec->States), S.ToSummary);
      Node CallerX = M.andExists(CS.In, EntrySE, S.AllSE);
      CallerX = M.mkAnd(CallerX,
                        before(Caller.Nodes[Rec->CallerNode].Log, Rec->Rank));

      // The call statement itself precedes the callee's steps.
      std::vector<TraceStep> WithCall;
      pushStep(WithCall, Rec->CallerProc, Rec->CallerNode);
      WithCall.insert(WithCall.end(), Tail.begin(), Tail.end());
      Tail = std::move(WithCall);

      ProcIdx = Rec->CallerProc;
      NodeId = Rec->CallerNode;
      X = CallerX;
      Bound = Rec->Rank;
    }
  }
};

//===----------------------------------------------------------------------===//
// Public interface
//===----------------------------------------------------------------------===//

Bebop::Bebop(const BProgram &P, StatsRegistry *Stats, Session *S)
    : M(std::make_unique<Impl>(P, Stats, S)) {}

Bebop::~Bebop() = default;

CheckResult Bebop::run(const std::string &EntryProc,
                       bool StopAtFirstViolation) {
  TraceSpan Span("bebop.run", "bebop");
  M->run(EntryProc, StopAtFirstViolation);
  CheckResult R;
  R.AssertViolated = M->Failed;
  if (M->Failed) {
    R.FailingProc = M->Procs[M->FailProc]->Proc->Name;
    R.FailingStmt = M->Procs[M->FailProc]->Cfg->node(M->FailNode).Stmt;
    R.Trace = M->buildTrace();
  }
  // Untouched nodes' path edges are False.
  std::vector<Node> Roots = {BddManager::False};
  for (const ProcInfo *PI : M->Procs)
    Roots.push_back(PI->Summary);
  for (const NodeInfo *NI : M->Touched)
    Roots.push_back(NI->PE);
  M->ReachNodes = M->M.nodeCount(Roots);
  if (M->Stats) {
    M->publishCounters();
    // The node count is a gauge: across CEGAR iterations (and merged
    // registries) the maximum, not the sum or the last value, is the
    // quantity the paper's tables report.
    M->Stats->setMax("bebop.bdd_nodes", M->ReachNodes);
    M->M.reportStats(*M->Stats, "bebop.bdd.");
  }
  if (Span.enabled()) {
    Span.arg("violated", R.AssertViolated ? "yes" : "no");
    Span.arg("bdd_nodes", static_cast<uint64_t>(M->ReachNodes));
  }
  return R;
}

size_t Bebop::bddNodes() const { return M->ReachNodes; }

const ProcCfg *Bebop::cfg(const std::string &Proc) const {
  auto It = M->ProcIndex.find(Proc);
  return It == M->ProcIndex.end() ? nullptr : M->Procs[It->second]->Cfg;
}

std::optional<std::vector<std::map<std::string, bool>>>
Bebop::reachableAtLabel(const std::string &Proc,
                        const std::string &Label) const {
  auto It = M->ProcIndex.find(Proc);
  if (It == M->ProcIndex.end())
    return std::nullopt;
  const ProcInfo &PI = *M->Procs[It->second];
  int NodeId = PI.Cfg->nodeOfLabel(Label);
  if (NodeId < 0)
    return std::nullopt;
  // Project the path edge to the current state.
  Node Reach = M->M.exists(PI.Nodes[NodeId].PE, M->S.AllE);
  std::vector<std::map<std::string, bool>> Out;
  M->M.forEachCube(Reach, [&](const std::map<int, bool> &Cube) {
    std::map<std::string, bool> Named;
    for (const auto &[Var, Value] : Cube)
      Named[M->slotName(PI, Var / 5)] = Value;
    Out.push_back(std::move(Named));
  });
  return Out;
}

bool Bebop::labelReachable(const std::string &Proc,
                           const std::string &Label) const {
  auto Cubes = reachableAtLabel(Proc, Label);
  return Cubes && !Cubes->empty();
}

std::string Bebop::invariantAtLabel(const std::string &Proc,
                                    const std::string &Label) const {
  auto Cubes = reachableAtLabel(Proc, Label);
  if (!Cubes)
    return "<unknown label>";
  if (Cubes->empty())
    return "false";
  std::string Out;
  for (const auto &Cube : *Cubes) {
    if (!Out.empty())
      Out += " || ";
    if (Cube.empty()) {
      Out += "true";
      continue;
    }
    bool Paren = Cubes->size() > 1 && Cube.size() > 1;
    if (Paren)
      Out += '(';
    bool First = true;
    for (const auto &[Name, Value] : Cube) {
      if (!First)
        Out += " && ";
      First = false;
      std::string Rendered = Name;
      if (Name.find_first_of(" ()<>=!&|*+-/%[]") != std::string::npos)
        Rendered = "{" + Name + "}";
      Out += (Value ? "" : "!") + Rendered;
    }
    if (Paren)
      Out += ')';
  }
  return Out;
}
