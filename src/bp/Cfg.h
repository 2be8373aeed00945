//===- Cfg.h - Control-flow graphs for boolean programs ---------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Explicit control-flow graph per boolean procedure — Bebop represents
/// control explicitly (like a compiler) and only the data portion of the
/// state symbolically [5]. Structured statements lower to edges:
/// `if (e)` becomes a fork through assume(e) / assume(!e) nodes (a `*`
/// condition leaves both assumes trivially true), `while` likewise with
/// a back edge, and `goto L1, L2` becomes a nondeterministic fork.
///
/// The graph belongs to its procedure: BProc::cfg() lowers it on first
/// use and keeps it as long as the procedure lives. A procedure the
/// abstraction memo hands to several CEGAR rounds is therefore lowered
/// once, and every Bebop over it reads the same graph.
///
//===----------------------------------------------------------------------===//

#ifndef BP_CFG_H
#define BP_CFG_H

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace slam {
namespace bp {

class BExpr;
class BStmt;
struct BProc;

/// Operation performed by one CFG node.
enum class NodeOp {
  Entry,
  Exit,   ///< Shared procedure exit; Return nodes feed into it.
  Skip,
  Assign,
  Call,
  Assume, ///< Cond holds (from `assume` or a lowered branch).
  Assert,
  Return, ///< Carries the return expressions.
};

struct CfgNode {
  NodeOp Op;
  /// Originating statement (null for Entry/Exit and synthesized
  /// assumes, which instead reference the branch statement).
  const BStmt *Stmt = nullptr;
  /// Condition for Assume/Assert; null means `true`.
  const BExpr *Cond = nullptr;
  /// Assume nodes lowered from the false side of a branch evaluate the
  /// negation of Cond.
  bool NegateCond = false;
  std::vector<int> Succs;
};

/// CFG of one boolean procedure. Its nodes and edges never change once
/// built.
class ProcCfg {
public:
  int entry() const { return EntryNode; }
  int exit() const { return ExitNode; }
  int numNodes() const { return static_cast<int>(Nodes.size()); }
  const CfgNode &node(int Id) const { return Nodes[Id]; }

  /// Node of the statement labeled \p Label, or -1.
  int nodeOfLabel(const std::string &Label) const;

  /// Predecessor lists, the inverse of the nodes' Succs. Only trace
  /// reconstruction reads them, so they are built on the first call
  /// (thread-safe).
  const std::vector<std::vector<int>> &preds() const;

private:
  /// Lowers \p Proc, which must have passed verifyBProgram: every goto
  /// names a label of the procedure. Only BProc::cfg() lowers, once per
  /// procedure.
  explicit ProcCfg(const BProc &Proc);
  friend struct BProc;

  struct Lowering; // The lowering's scratch state (Cfg.cpp).

  std::vector<CfgNode> Nodes;
  int EntryNode = -1;
  int ExitNode = -1;
  std::map<std::string, int> LabelNodes;
  mutable std::once_flag PredsOnce;
  mutable std::vector<std::vector<int>> Preds;
};

} // namespace bp
} // namespace slam

#endif // BP_CFG_H
