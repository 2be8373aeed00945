//===- Cfg.cpp - Lowering boolean procedures to explicit CFGs --------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "bp/Cfg.h"

#include "bp/BPAst.h"

using namespace slam;
using namespace slam::bp;

/// What lowering needs besides the graph: the gotos to patch once every
/// label has a node, and the targets of break and continue.
struct ProcCfg::Lowering {
  ProcCfg &G;
  std::vector<std::pair<const BStmt *, int>> PendingGotos;
  std::vector<int> BreakTargets;    // Stack of loop-exit join nodes.
  std::vector<int> ContinueTargets; // Stack of loop-header nodes.

  int makeNode(NodeOp Op, const BStmt *S = nullptr,
               const BExpr *Cond = nullptr) {
    CfgNode N;
    N.Op = Op;
    N.Stmt = S;
    N.Cond = Cond;
    G.Nodes.push_back(std::move(N));
    return static_cast<int>(G.Nodes.size() - 1);
  }

  void addEdge(int From, int To) { G.Nodes[From].Succs.push_back(To); }

  /// Lowers \p S; control flows from \p Cur into the lowered nodes and
  /// the function returns the node control leaves from (-1 if control
  /// never falls through, e.g. after goto/return).
  int lower(const BStmt &S, int Cur);
};

ProcCfg::ProcCfg(const BProc &Proc) {
  Lowering L{*this, {}, {}, {}};
  EntryNode = L.makeNode(NodeOp::Entry);
  ExitNode = L.makeNode(NodeOp::Exit);
  int Cur = EntryNode;
  if (Proc.Body)
    for (const BStmt *S : Proc.Body->Stmts) {
      // After goto/return/break, later statements are unreachable by
      // fall-through but may carry labels; anchor them to an orphan
      // node (which never accumulates states on its own).
      if (Cur < 0)
        Cur = L.makeNode(NodeOp::Skip);
      Cur = L.lower(*S, Cur);
    }
  if (Cur >= 0)
    L.addEdge(Cur, ExitNode); // Fall off the end.

  // Patch gotos; verifyBProgram has checked that every target exists.
  for (const auto &[S, NodeId] : L.PendingGotos)
    for (const std::string &Label : S->Labels)
      L.addEdge(NodeId, LabelNodes.at(Label));
}

int ProcCfg::Lowering::lower(const BStmt &S, int Cur) {
  switch (S.Kind) {
  case BStmtKind::Block: {
    for (const BStmt *Sub : S.Stmts) {
      if (Cur < 0)
        Cur = makeNode(NodeOp::Skip); // Orphan anchor after a jump.
      Cur = lower(*Sub, Cur);
    }
    return Cur;
  }
  case BStmtKind::Skip: {
    int N = makeNode(NodeOp::Skip, &S);
    addEdge(Cur, N);
    return N;
  }
  case BStmtKind::Assign: {
    int N = makeNode(NodeOp::Assign, &S);
    addEdge(Cur, N);
    return N;
  }
  case BStmtKind::Call: {
    int N = makeNode(NodeOp::Call, &S);
    addEdge(Cur, N);
    return N;
  }
  case BStmtKind::Assume: {
    int N = makeNode(NodeOp::Assume, &S, S.Cond);
    addEdge(Cur, N);
    return N;
  }
  case BStmtKind::Assert: {
    int N = makeNode(NodeOp::Assert, &S, S.Cond);
    addEdge(Cur, N);
    return N;
  }
  case BStmtKind::If: {
    int TrueSide = makeNode(NodeOp::Assume, &S, S.Cond);
    int FalseSide = makeNode(NodeOp::Assume, &S, S.Cond);
    G.Nodes[FalseSide].NegateCond = true;
    addEdge(Cur, TrueSide);
    addEdge(Cur, FalseSide);
    int ThenEnd = lower(*S.Then, TrueSide);
    int ElseEnd = S.Else ? lower(*S.Else, FalseSide) : FalseSide;
    int Join = makeNode(NodeOp::Skip, &S);
    if (ThenEnd >= 0)
      addEdge(ThenEnd, Join);
    if (ElseEnd >= 0)
      addEdge(ElseEnd, Join);
    return Join;
  }
  case BStmtKind::While: {
    int Header = makeNode(NodeOp::Skip, &S);
    addEdge(Cur, Header);
    int EnterBody = makeNode(NodeOp::Assume, &S, S.Cond);
    int LeaveLoop = makeNode(NodeOp::Assume, &S, S.Cond);
    G.Nodes[LeaveLoop].NegateCond = true;
    addEdge(Header, EnterBody);
    addEdge(Header, LeaveLoop);
    int After = makeNode(NodeOp::Skip, &S);
    addEdge(LeaveLoop, After);
    BreakTargets.push_back(After);
    ContinueTargets.push_back(Header);
    int BodyEnd = lower(*S.Body, EnterBody);
    if (BodyEnd >= 0)
      addEdge(BodyEnd, Header);
    BreakTargets.pop_back();
    ContinueTargets.pop_back();
    return After;
  }
  case BStmtKind::Goto: {
    int N = makeNode(NodeOp::Skip, &S);
    addEdge(Cur, N);
    PendingGotos.emplace_back(&S, N);
    return -1;
  }
  case BStmtKind::Label: {
    int N = makeNode(NodeOp::Skip, &S);
    addEdge(Cur, N);
    G.LabelNodes[S.LabelName] = N;
    return lower(*S.Sub, N);
  }
  case BStmtKind::Return: {
    int N = makeNode(NodeOp::Return, &S);
    addEdge(Cur, N);
    addEdge(N, G.ExitNode);
    return -1;
  }
  case BStmtKind::Break: {
    int N = makeNode(NodeOp::Skip, &S);
    addEdge(Cur, N);
    addEdge(N, BreakTargets.back());
    return -1;
  }
  case BStmtKind::Continue: {
    int N = makeNode(NodeOp::Skip, &S);
    addEdge(Cur, N);
    addEdge(N, ContinueTargets.back());
    return -1;
  }
  }
  return Cur;
}

int ProcCfg::nodeOfLabel(const std::string &Label) const {
  auto It = LabelNodes.find(Label);
  return It == LabelNodes.end() ? -1 : It->second;
}

const std::vector<std::vector<int>> &ProcCfg::preds() const {
  std::call_once(PredsOnce, [this] {
    Preds.resize(Nodes.size());
    for (int N = 0; N != numNodes(); ++N)
      for (int S : Nodes[N].Succs)
        Preds[S].push_back(N);
  });
  return Preds;
}

const ProcCfg &BProc::cfg() const {
  std::call_once(CfgOnce, [this] { Cfg.reset(new ProcCfg(*this)); });
  return *Cfg;
}
