//===- BPAst.h - Boolean program abstract syntax ----------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The boolean program language of Bebop [5] as used in the paper:
/// programs whose only type is bool, with global variables, procedures
/// with call-by-value parameters, local variables, and multiple return
/// values; parallel assignment; the nondeterministic expression `*`; the
/// `choose(pos, neg)` three-valued update; `assume`/`assert`; `goto`
/// with one or more (nondeterministically chosen) targets; and the
/// per-procedure `enforce` data invariant of Section 5.1.
///
/// Variable names may be arbitrary strings — C2bp names the variable
/// tracking predicate e as "{e}", exactly as in the paper's Figure 1(b).
///
//===----------------------------------------------------------------------===//

#ifndef BP_BPAST_H
#define BP_BPAST_H

#include "bp/Cfg.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace slam {
namespace bp {

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class BExprKind {
  Const,  ///< true / false.
  Star,   ///< `*` — nondeterministic boolean.
  VarRef, ///< By name; Bebop resolves against scopes.
  Not,
  And,
  Or,
  Eq, ///< Boolean equality (<=>).
  Ne,
  Choose, ///< choose(pos, neg): pos ? true : (neg ? false : *).
};

class BExpr {
public:
  BExprKind Kind;
  bool BoolValue = false;
  std::string Name;
  std::vector<const BExpr *> Ops;

  explicit BExpr(BExprKind Kind) : Kind(Kind) {}

  /// Renders with minimal parentheses; predicate-variable names print
  /// in their { } form.
  std::string str() const;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class BStmtKind {
  Block,
  Assign, ///< Parallel: Targets := Exprs.
  Call,   ///< Rets := call Callee(Args); Rets may be empty.
  Skip,
  Assume,
  Assert,
  If,
  While,
  Goto, ///< One or more targets; several = nondeterministic choice.
  Label,
  Return, ///< Returns Exprs (arity = proc return arity).
  Break,
  Continue,
};

class BStmt {
public:
  BStmtKind Kind;
  /// Id of the originating C statement (Stmt::Id), or -1 when the
  /// statement has no C counterpart. Counterexample traces map through
  /// this field.
  int OriginId = -1;
  /// For assume statements generated from a C branch: 1 if this assume
  /// guards the then/enter side, 0 for the else/exit side, -1 otherwise.
  /// SLAM's Newton step uses this to replay branch directions.
  int BranchTaken = -1;

  std::vector<std::string> Targets; // Assign / Call returns.
  std::vector<const BExpr *> Exprs; // Assign RHS / Return / Call args.
  const BExpr *Cond = nullptr;      // Assume / Assert / If / While.
  std::string Callee;               // Call.
  std::vector<std::string> Labels;  // Goto targets.
  std::string LabelName;            // Label.
  BStmt *Sub = nullptr;             // Label body.
  BStmt *Then = nullptr;            // If.
  BStmt *Else = nullptr;            // If (may be null).
  BStmt *Body = nullptr;            // While.
  std::vector<BStmt *> Stmts;       // Block.

  explicit BStmt(BStmtKind Kind) : Kind(Kind) {}
};

//===----------------------------------------------------------------------===//
// Procedures and programs
//===----------------------------------------------------------------------===//

struct BProc {
  std::string Name;
  std::vector<std::string> Params;
  /// Names of the return variables (their count is the return arity).
  /// Return statements carry matching expression lists.
  unsigned NumReturns = 0;
  std::vector<std::string> Locals;
  /// Section 5.1's data invariant; assumed between every statement.
  const BExpr *Enforce = nullptr;
  BStmt *Body = nullptr;
  /// A number no other procedure of the process gets, before or after
  /// this one dies: caches that outlive a program (bebop::Session) key
  /// on it, since a later procedure may reuse this one's address.
  const uint64_t Serial = nextSerial();

  bool hasLocal(const std::string &Name) const {
    for (const std::string &L : Locals)
      if (L == Name)
        return true;
    for (const std::string &P : Params)
      if (P == Name)
        return true;
    return false;
  }

  /// The procedure's control-flow graph, lowered on the first call
  /// (thread-safe) and kept for the procedure's lifetime. The procedure
  /// must have passed verifyBProgram, and nothing may change it after
  /// the first call: C2bp finishes a procedure before C2bpTool::run
  /// returns it, and no one mutates it afterwards, so the abstraction
  /// memo can hand one procedure, and its graph, to many rounds.
  const ProcCfg &cfg() const;

private:
  static uint64_t nextSerial();

  mutable std::once_flag CfgOnce;
  mutable std::unique_ptr<const ProcCfg> Cfg;
};

/// A whole boolean program; owns all nodes.
class BProgram {
public:
  std::vector<std::string> Globals;
  std::vector<BProc *> Procs;

  BProc *findProc(const std::string &Name) const {
    for (BProc *P : Procs)
      if (P->Name == Name)
        return P;
    return nullptr;
  }

  // -- Node factories -----------------------------------------------------
  BExpr *makeExpr(BExprKind Kind) {
    ExprArena.emplace_back(Kind);
    return &ExprArena.back();
  }
  BStmt *makeStmt(BStmtKind Kind) {
    StmtArena.emplace_back(Kind);
    return &StmtArena.back();
  }
  BProc *makeProc() {
    ProcArena.emplace_back();
    return &ProcArena.back();
  }

  // -- Expression helpers ---------------------------------------------------
  const BExpr *constant(bool Value);
  const BExpr *star();
  const BExpr *varRef(const std::string &Name);
  const BExpr *notE(const BExpr *E);
  const BExpr *andE(const BExpr *L, const BExpr *R);
  const BExpr *orE(const BExpr *L, const BExpr *R);
  const BExpr *choose(const BExpr *Pos, const BExpr *Neg);

  /// Shares ownership of another program's arenas, so nodes allocated
  /// there stay alive as long as this program. The parallel abstraction
  /// workers build expressions into private BPrograms (arena allocation
  /// is not thread-safe), which each procedure's arena adopts once the
  /// parallel loop has returned; a program adopts the arenas of its
  /// procedures, which the abstraction memo may share with later
  /// rounds. Node pointers remain valid: the donor is kept whole, never
  /// spliced element-wise. The donor's Globals/Procs lists are
  /// deliberately ignored — callers wire procedure structure
  /// explicitly, in deterministic order.
  void adopt(std::shared_ptr<const BProgram> Donor) {
    AdoptedArenas.push_back(std::move(Donor));
  }

  /// Renders the whole program in concrete syntax (parsable back).
  std::string str() const;

private:
  std::deque<BExpr> ExprArena;
  std::deque<BStmt> StmtArena;
  std::deque<BProc> ProcArena;
  std::vector<std::shared_ptr<const BProgram>> AdoptedArenas;
};

/// Renders one statement at the given indent.
std::string printBStmt(const BStmt &S, unsigned Indent = 0);

} // namespace bp
} // namespace slam

#endif // BP_BPAST_H
