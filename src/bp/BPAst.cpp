//===- BPAst.cpp - Boolean program printing and expression helpers ---------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "bp/BPAst.h"

#include <atomic>
#include <cctype>

using namespace slam;
using namespace slam::bp;

uint64_t BProc::nextSerial() {
  static std::atomic<uint64_t> Next{1};
  return Next.fetch_add(1, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Expression helpers with light folding
//===----------------------------------------------------------------------===//

const BExpr *BProgram::constant(bool Value) {
  BExpr *E = makeExpr(BExprKind::Const);
  E->BoolValue = Value;
  return E;
}

const BExpr *BProgram::star() { return makeExpr(BExprKind::Star); }

const BExpr *BProgram::varRef(const std::string &Name) {
  BExpr *E = makeExpr(BExprKind::VarRef);
  E->Name = Name;
  return E;
}

const BExpr *BProgram::notE(const BExpr *E) {
  if (E->Kind == BExprKind::Const)
    return constant(!E->BoolValue);
  if (E->Kind == BExprKind::Not)
    return E->Ops[0];
  if (E->Kind == BExprKind::Star)
    return E; // !* is still *.
  BExpr *N = makeExpr(BExprKind::Not);
  N->Ops.push_back(E);
  return N;
}

const BExpr *BProgram::andE(const BExpr *L, const BExpr *R) {
  if (L->Kind == BExprKind::Const)
    return L->BoolValue ? R : L;
  if (R->Kind == BExprKind::Const)
    return R->BoolValue ? L : R;
  BExpr *N = makeExpr(BExprKind::And);
  N->Ops.push_back(L);
  N->Ops.push_back(R);
  return N;
}

const BExpr *BProgram::orE(const BExpr *L, const BExpr *R) {
  if (L->Kind == BExprKind::Const)
    return L->BoolValue ? L : R;
  if (R->Kind == BExprKind::Const)
    return R->BoolValue ? R : L;
  BExpr *N = makeExpr(BExprKind::Or);
  N->Ops.push_back(L);
  N->Ops.push_back(R);
  return N;
}

const BExpr *BProgram::choose(const BExpr *Pos, const BExpr *Neg) {
  // choose(true, _) = true; choose(false, true) = false;
  // choose(false, false) = *.
  if (Pos->Kind == BExprKind::Const) {
    if (Pos->BoolValue)
      return constant(true);
    if (Neg->Kind == BExprKind::Const)
      return Neg->BoolValue ? constant(false) : star();
  }
  BExpr *N = makeExpr(BExprKind::Choose);
  N->Ops.push_back(Pos);
  N->Ops.push_back(Neg);
  return N;
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

namespace {

bool isPlainIdentifier(const std::string &Name) {
  if (Name.empty())
    return false;
  if (!std::isalpha(static_cast<unsigned char>(Name[0])) && Name[0] != '_')
    return false;
  for (char C : Name)
    if (!std::isalnum(static_cast<unsigned char>(C)) && C != '_')
      return false;
  return true;
}

std::string printVarName(const std::string &Name) {
  return isPlainIdentifier(Name) ? Name : "{" + Name + "}";
}

enum Prec { PrecOr = 1, PrecAnd = 2, PrecEq = 3, PrecNot = 4 };

void printExpr(const BExpr &E, int ParentPrec, std::string &Out) {
  switch (E.Kind) {
  case BExprKind::Const:
    Out += E.BoolValue ? "true" : "false";
    return;
  case BExprKind::Star:
    Out += "*";
    return;
  case BExprKind::VarRef:
    Out += printVarName(E.Name);
    return;
  case BExprKind::Not:
    Out += "!";
    printExpr(*E.Ops[0], PrecNot, Out);
    return;
  case BExprKind::Choose:
    Out += "choose(";
    printExpr(*E.Ops[0], 0, Out);
    Out += ", ";
    printExpr(*E.Ops[1], 0, Out);
    Out += ")";
    return;
  default:
    break;
  }
  int Prec = E.Kind == BExprKind::Or    ? PrecOr
             : E.Kind == BExprKind::And ? PrecAnd
                                        : PrecEq;
  bool Paren = Prec < ParentPrec;
  if (Paren)
    Out += '(';
  const char *Op = E.Kind == BExprKind::Or    ? " || "
                   : E.Kind == BExprKind::And ? " && "
                   : E.Kind == BExprKind::Eq  ? " == "
                                              : " != ";
  printExpr(*E.Ops[0], Prec + 1, Out);
  Out += Op;
  printExpr(*E.Ops[1], Prec + 1, Out);
  if (Paren)
    Out += ')';
}

void printList(const std::vector<std::string> &Names, std::string &Out) {
  for (size_t I = 0; I != Names.size(); ++I) {
    if (I != 0)
      Out += ", ";
    Out += printVarName(Names[I]);
  }
}

void printStmtImpl(const BStmt &S, unsigned Indent, std::string &Out) {
  std::string Pad(Indent * 2, ' ');
  switch (S.Kind) {
  case BStmtKind::Block:
    for (const BStmt *Sub : S.Stmts)
      printStmtImpl(*Sub, Indent, Out);
    return;
  case BStmtKind::Assign: {
    Out += Pad;
    printList(S.Targets, Out);
    Out += " := ";
    for (size_t I = 0; I != S.Exprs.size(); ++I) {
      if (I != 0)
        Out += ", ";
      printExpr(*S.Exprs[I], 0, Out);
    }
    Out += ";\n";
    return;
  }
  case BStmtKind::Call: {
    Out += Pad;
    if (!S.Targets.empty()) {
      printList(S.Targets, Out);
      Out += " := ";
    }
    Out += "call " + S.Callee + "(";
    for (size_t I = 0; I != S.Exprs.size(); ++I) {
      if (I != 0)
        Out += ", ";
      printExpr(*S.Exprs[I], 0, Out);
    }
    Out += ");\n";
    return;
  }
  case BStmtKind::Skip:
    Out += Pad + "skip;\n";
    return;
  case BStmtKind::Assume:
    Out += Pad + "assume(";
    printExpr(*S.Cond, 0, Out);
    Out += ");\n";
    return;
  case BStmtKind::Assert:
    Out += Pad + "assert(";
    printExpr(*S.Cond, 0, Out);
    Out += ");\n";
    return;
  case BStmtKind::If:
    Out += Pad + "if (";
    printExpr(*S.Cond, 0, Out);
    Out += ") begin\n";
    printStmtImpl(*S.Then, Indent + 1, Out);
    if (S.Else) {
      Out += Pad + "end else begin\n";
      printStmtImpl(*S.Else, Indent + 1, Out);
    }
    Out += Pad + "end\n";
    return;
  case BStmtKind::While:
    Out += Pad + "while (";
    printExpr(*S.Cond, 0, Out);
    Out += ") begin\n";
    printStmtImpl(*S.Body, Indent + 1, Out);
    Out += Pad + "end\n";
    return;
  case BStmtKind::Goto: {
    Out += Pad + "goto ";
    for (size_t I = 0; I != S.Labels.size(); ++I) {
      if (I != 0)
        Out += ", ";
      Out += S.Labels[I];
    }
    Out += ";\n";
    return;
  }
  case BStmtKind::Label:
    Out += Pad + S.LabelName + ":\n";
    printStmtImpl(*S.Sub, Indent, Out);
    return;
  case BStmtKind::Return: {
    Out += Pad + "return";
    for (size_t I = 0; I != S.Exprs.size(); ++I) {
      Out += I == 0 ? " " : ", ";
      printExpr(*S.Exprs[I], 0, Out);
    }
    Out += ";\n";
    return;
  }
  case BStmtKind::Break:
    Out += Pad + "break;\n";
    return;
  case BStmtKind::Continue:
    Out += Pad + "continue;\n";
    return;
  }
}

} // namespace

std::string BExpr::str() const {
  std::string Out;
  printExpr(*this, 0, Out);
  return Out;
}

std::string bp::printBStmt(const BStmt &S, unsigned Indent) {
  std::string Out;
  printStmtImpl(S, Indent, Out);
  return Out;
}

std::string BProgram::str() const {
  std::string Out;
  if (!Globals.empty()) {
    Out += "decl ";
    printList(Globals, Out);
    Out += ";\n\n";
  }
  for (const BProc *P : Procs) {
    if (P->NumReturns == 0)
      Out += "void ";
    else
      Out += "bool<" + std::to_string(P->NumReturns) + "> ";
    Out += P->Name + "(";
    printList(P->Params, Out);
    Out += ") begin\n";
    if (!P->Locals.empty()) {
      Out += "  decl ";
      printList(P->Locals, Out);
      Out += ";\n";
    }
    if (P->Enforce) {
      Out += "  enforce ";
      printExpr(*P->Enforce, 0, Out);
      Out += ";\n";
    }
    if (P->Body)
      printStmtImpl(*P->Body, 1, Out);
    Out += "end\n\n";
  }
  return Out;
}
