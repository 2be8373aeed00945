//===- AST.h - SIL-C abstract syntax ----------------------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax for the analyzed C subset. The tree is produced by
/// Parser, annotated by Sema (name resolution + types), and rewritten by
/// Normalize into the paper's simple intermediate form (Section 4):
/// side-effect-free expressions, calls only at the top level of
/// expression statements, no multiple dereferences.
///
/// Nodes are owned by an ASTContext arena and referenced by raw pointer.
///
//===----------------------------------------------------------------------===//

#ifndef CFRONT_AST_H
#define CFRONT_AST_H

#include "cfront/Types.h"
#include "support/SourceLoc.h"

#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace slam {
namespace cfront {

class Expr;
class Stmt;
class FuncDecl;

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

/// A variable: global, parameter, or procedure-local.
struct VarDecl {
  enum class Scope { Global, Param, Local };
  std::string Name;
  const Type *Ty = nullptr;
  Scope Sc = Scope::Local;
  SourceLoc Loc;

  bool isGlobal() const { return Sc == Scope::Global; }
};

/// A function with parameters, locals and a body ( nullptr body = extern
/// declaration, abstracted conservatively by C2bp).
struct FuncDecl {
  std::string Name;
  const Type *ReturnTy = nullptr;
  std::vector<VarDecl *> Params;
  std::vector<VarDecl *> Locals;
  Stmt *Body = nullptr; // Block, or nullptr for externs.
  SourceLoc Loc;

  bool isExtern() const { return Body == nullptr; }

  VarDecl *findLocalOrParam(const std::string &VarName) const {
    for (VarDecl *V : Params)
      if (V->Name == VarName)
        return V;
    for (VarDecl *V : Locals)
      if (V->Name == VarName)
        return V;
    return nullptr;
  }
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class CExprKind {
  IntLit,
  NullLit,
  VarRef,
  Unary,  // * & - !
  Binary, // arith, comparisons, && ||
  Member, // base.f or base->f
  Index,  // base[idx]
  Call,   // f(args) — removed from subexpressions by Normalize
};

enum class UnaryOp { Deref, AddrOf, Neg, Not };

enum class BinaryOp {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  LAnd,
  LOr,
};

/// True for ==, !=, <, <=, >, >=.
bool isComparisonOp(BinaryOp Op);

/// An expression node; Sema fills in Ty and resolves VarRef/Call
/// referents.
class Expr {
public:
  CExprKind Kind;
  SourceLoc Loc;
  const Type *Ty = nullptr; // Set by Sema.

  // IntLit.
  int64_t IntValue = 0;
  // VarRef: name from the parser, declaration from Sema.
  std::string Name;
  VarDecl *Var = nullptr;
  // Unary / Binary.
  UnaryOp UOp = UnaryOp::Deref;
  BinaryOp BOp = BinaryOp::Add;
  // Member: FieldName + IsArrow; Call: resolved Callee.
  std::string FieldName;
  bool IsArrow = false;
  FuncDecl *Callee = nullptr;

  std::vector<Expr *> Ops; // Operands / call arguments.

  explicit Expr(CExprKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}

  /// True for the location shapes that may appear on the left of an
  /// assignment: variable, *p, p->f, base.f, a[i].
  bool isLocation() const {
    switch (Kind) {
    case CExprKind::VarRef:
    case CExprKind::Member:
    case CExprKind::Index:
      return true;
    case CExprKind::Unary:
      return UOp == UnaryOp::Deref;
    default:
      return false;
    }
  }

  /// C-like rendering for diagnostics and golden tests.
  std::string str() const;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class CStmtKind {
  Block,
  Assign,  // Lhs = Rhs;
  CallStmt,// [Lhs =] f(args);
  If,
  While,
  Goto,
  Label,   // name: stmt
  Return,
  Assert,
  Break,
  Continue,
  Skip,    // ;
};

/// A statement node. Each statement carries a dense per-program id
/// (assigned by Sema) used to correlate boolean-program statements back
/// to their C origin in counterexample traces.
class Stmt {
public:
  CStmtKind Kind;
  SourceLoc Loc;
  unsigned Id = 0; // Dense id, set by Sema.

  // Assign: Ops[0] = Lhs location, Ops[1] = Rhs.
  // CallStmt: Lhs (may be null) + CallExpr.
  // If: Cond, Then, Else (Else may be null).
  // While: Cond, Body.
  // Return: Value (may be null).
  // Assert: Cond.
  // Goto / Label: LabelName (+ Sub for Label).
  Expr *Lhs = nullptr;
  Expr *Rhs = nullptr;
  Expr *Cond = nullptr;
  Expr *CallE = nullptr;
  Stmt *Then = nullptr;
  Stmt *Else = nullptr;
  Stmt *Body = nullptr;
  Stmt *Sub = nullptr;
  std::string LabelName;
  std::vector<Stmt *> Stmts; // Block members.

  explicit Stmt(CStmtKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}
};

//===----------------------------------------------------------------------===//
// Program and arena
//===----------------------------------------------------------------------===//

/// Owns all AST nodes, declarations and the type context for one
/// translation unit.
class Program {
public:
  TypeContext Types;
  std::vector<FuncDecl *> Functions;
  std::vector<VarDecl *> Globals;

  FuncDecl *findFunction(const std::string &Name) const {
    for (FuncDecl *F : Functions)
      if (F->Name == Name)
        return F;
    return nullptr;
  }

  VarDecl *findGlobal(const std::string &Name) const {
    for (VarDecl *V : Globals)
      if (V->Name == Name)
        return V;
    return nullptr;
  }

  // -- Node factories -----------------------------------------------------
  Expr *makeExpr(CExprKind Kind, SourceLoc Loc) {
    ExprArena.emplace_back(Kind, Loc);
    return &ExprArena.back();
  }
  Stmt *makeStmt(CStmtKind Kind, SourceLoc Loc) {
    StmtArena.emplace_back(Kind, Loc);
    return &StmtArena.back();
  }
  VarDecl *makeVar(std::string Name, const Type *Ty, VarDecl::Scope Sc,
                   SourceLoc Loc) {
    VarArena.push_back(VarDecl{std::move(Name), Ty, Sc, Loc});
    return &VarArena.back();
  }
  FuncDecl *makeFunc(std::string Name, SourceLoc Loc) {
    FuncArena.push_back(FuncDecl());
    FuncArena.back().Name = std::move(Name);
    FuncArena.back().Loc = Loc;
    return &FuncArena.back();
  }

  /// Sema's statement tables, indexed by Stmt::Id: every statement and
  /// the procedure whose body holds it.
  std::vector<const Stmt *> StmtById;
  std::vector<const FuncDecl *> ProcOfStmt;

  /// The statement with id \p Id, or nullptr for an unknown id.
  const Stmt *stmtById(int Id) const {
    return Id >= 0 && size_t(Id) < StmtById.size() ? StmtById[Id] : nullptr;
  }

  /// Textual line count of the original source (set by the parser; the
  /// "lines" column of the paper's tables).
  unsigned SourceLines = 0;

private:
  std::deque<Expr> ExprArena;
  std::deque<Stmt> StmtArena;
  std::deque<VarDecl> VarArena;
  std::deque<FuncDecl> FuncArena;
};

/// Renders one function (or statement) back to C-like source.
std::string printFunction(const FuncDecl &F);
std::string printStmt(const Stmt &S, unsigned Indent = 0);

} // namespace cfront
} // namespace slam

#endif // CFRONT_AST_H
