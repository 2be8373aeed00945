//===- AST.cpp - Expression and program printing ---------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "cfront/AST.h"

using namespace slam;
using namespace slam::cfront;

bool cfront::isComparisonOp(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Eq:
  case BinaryOp::Ne:
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge:
    return true;
  default:
    return false;
  }
}

namespace {

const char *binaryOpText(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Div:
    return "/";
  case BinaryOp::Mod:
    return "%";
  case BinaryOp::Eq:
    return "==";
  case BinaryOp::Ne:
    return "!=";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Ge:
    return ">=";
  case BinaryOp::LAnd:
    return "&&";
  case BinaryOp::LOr:
    return "||";
  }
  return "?";
}

void printExpr(const Expr &E, std::string &Out) {
  switch (E.Kind) {
  case CExprKind::IntLit:
    Out += std::to_string(E.IntValue);
    break;
  case CExprKind::NullLit:
    Out += "NULL";
    break;
  case CExprKind::VarRef:
    Out += E.Name;
    break;
  case CExprKind::Unary: {
    const char *Op = E.UOp == UnaryOp::Deref    ? "*"
                     : E.UOp == UnaryOp::AddrOf ? "&"
                     : E.UOp == UnaryOp::Neg    ? "-"
                                                : "!";
    Out += Op;
    bool Paren = E.Ops[0]->Kind == CExprKind::Binary;
    if (Paren)
      Out += '(';
    printExpr(*E.Ops[0], Out);
    if (Paren)
      Out += ')';
    break;
  }
  case CExprKind::Binary: {
    auto Side = [&Out](const Expr &Sub) {
      bool Paren = Sub.Kind == CExprKind::Binary;
      if (Paren)
        Out += '(';
      printExpr(Sub, Out);
      if (Paren)
        Out += ')';
    };
    Side(*E.Ops[0]);
    Out += ' ';
    Out += binaryOpText(E.BOp);
    Out += ' ';
    Side(*E.Ops[1]);
    break;
  }
  case CExprKind::Member: {
    bool Paren = E.Ops[0]->Kind == CExprKind::Unary ||
                 E.Ops[0]->Kind == CExprKind::Binary;
    if (Paren)
      Out += '(';
    printExpr(*E.Ops[0], Out);
    if (Paren)
      Out += ')';
    Out += E.IsArrow ? "->" : ".";
    Out += E.FieldName;
    break;
  }
  case CExprKind::Index:
    printExpr(*E.Ops[0], Out);
    Out += '[';
    printExpr(*E.Ops[1], Out);
    Out += ']';
    break;
  case CExprKind::Call: {
    Out += E.Name;
    Out += '(';
    for (size_t I = 0; I != E.Ops.size(); ++I) {
      if (I != 0)
        Out += ", ";
      printExpr(*E.Ops[I], Out);
    }
    Out += ')';
    break;
  }
  }
}

void printStmtImpl(const Stmt &S, unsigned Indent, std::string &Out) {
  std::string Pad(Indent * 2, ' ');
  switch (S.Kind) {
  case CStmtKind::Block:
    Out += Pad + "{\n";
    for (const Stmt *Sub : S.Stmts)
      printStmtImpl(*Sub, Indent + 1, Out);
    Out += Pad + "}\n";
    break;
  case CStmtKind::Assign:
    Out += Pad + S.Lhs->str() + " = " + S.Rhs->str() + ";\n";
    break;
  case CStmtKind::CallStmt:
    Out += Pad;
    if (S.Lhs)
      Out += S.Lhs->str() + " = ";
    Out += S.CallE->str() + ";\n";
    break;
  case CStmtKind::If:
    Out += Pad + "if (" + S.Cond->str() + ")\n";
    printStmtImpl(*S.Then, Indent + 1, Out);
    if (S.Else) {
      Out += Pad + "else\n";
      printStmtImpl(*S.Else, Indent + 1, Out);
    }
    break;
  case CStmtKind::While:
    Out += Pad + "while (" + S.Cond->str() + ")\n";
    printStmtImpl(*S.Body, Indent + 1, Out);
    break;
  case CStmtKind::Goto:
    Out += Pad + "goto " + S.LabelName + ";\n";
    break;
  case CStmtKind::Label:
    Out += Pad + S.LabelName + ":\n";
    printStmtImpl(*S.Sub, Indent, Out);
    break;
  case CStmtKind::Return:
    Out += Pad + (S.Rhs ? "return " + S.Rhs->str() + ";\n" : "return;\n");
    break;
  case CStmtKind::Assert:
    Out += Pad + "assert(" + S.Cond->str() + ");\n";
    break;
  case CStmtKind::Break:
    Out += Pad + "break;\n";
    break;
  case CStmtKind::Continue:
    Out += Pad + "continue;\n";
    break;
  case CStmtKind::Skip:
    Out += Pad + ";\n";
    break;
  }
}

} // namespace

std::string Expr::str() const {
  std::string Out;
  printExpr(*this, Out);
  return Out;
}

std::string cfront::printStmt(const Stmt &S, unsigned Indent) {
  std::string Out;
  printStmtImpl(S, Indent, Out);
  return Out;
}

std::string cfront::printFunction(const FuncDecl &F) {
  std::string Out = F.ReturnTy->str() + " " + F.Name + "(";
  for (size_t I = 0; I != F.Params.size(); ++I) {
    if (I != 0)
      Out += ", ";
    Out += F.Params[I]->Ty->str() + " " + F.Params[I]->Name;
  }
  Out += ")";
  if (!F.Body)
    return Out + ";\n";
  Out += " {\n";
  for (const VarDecl *V : F.Locals)
    Out += "  " + V->Ty->str() + " " + V->Name + ";\n";
  for (const Stmt *S : F.Body->Stmts)
    Out += printStmt(*S, 1);
  Out += "}\n";
  return Out;
}
