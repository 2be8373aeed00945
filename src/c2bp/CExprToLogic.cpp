//===- CExprToLogic.cpp ------------------------------------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "c2bp/CExprToLogic.h"

#include "cfront/Parser.h"

using namespace slam;
using namespace slam::c2bp;
using namespace slam::cfront;
using logic::ExprRef;
using logic::LogicContext;

ExprRef c2bp::toLogic(LogicContext &Ctx, const Expr &E) {
  switch (E.Kind) {
  case CExprKind::IntLit:
    return Ctx.intLit(E.IntValue);
  case CExprKind::NullLit:
    return Ctx.nullLit();
  case CExprKind::VarRef:
    // Predicates are not name-resolved, and in them `true` and `false`
    // are the boolean literals (cfront lexes them as identifiers).
    if (!E.Var && (E.Name == "true" || E.Name == "false"))
      return Ctx.boolLit(E.Name == "true");
    return Ctx.var(E.Name);
  case CExprKind::Unary:
    switch (E.UOp) {
    case UnaryOp::Deref:
      return Ctx.deref(toLogic(Ctx, *E.Ops[0]));
    case UnaryOp::AddrOf:
      return Ctx.addrOf(toLogic(Ctx, *E.Ops[0]));
    case UnaryOp::Neg:
      return Ctx.neg(toLogic(Ctx, *E.Ops[0]));
    case UnaryOp::Not:
      return Ctx.notE(conditionToLogic(Ctx, *E.Ops[0]));
    }
    break;
  case CExprKind::Binary: {
    if (E.BOp == BinaryOp::LAnd)
      return Ctx.andE(conditionToLogic(Ctx, *E.Ops[0]),
                      conditionToLogic(Ctx, *E.Ops[1]));
    if (E.BOp == BinaryOp::LOr)
      return Ctx.orE(conditionToLogic(Ctx, *E.Ops[0]),
                     conditionToLogic(Ctx, *E.Ops[1]));
    ExprRef L = toLogic(Ctx, *E.Ops[0]);
    ExprRef R = toLogic(Ctx, *E.Ops[1]);
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
    case BinaryOp::Ge:
      return Ctx.ge(L, R);
    default:
      break;
    }
    break;
  }
  case CExprKind::Member: {
    ExprRef Base = toLogic(Ctx, *E.Ops[0]);
    if (E.IsArrow)
      Base = Ctx.deref(Base);
    return Ctx.field(Base, E.FieldName);
  }
  case CExprKind::Index:
    return Ctx.index(toLogic(Ctx, *E.Ops[0]), toLogic(Ctx, *E.Ops[1]));
  case CExprKind::Call:
    assert(false && "calls must be hoisted before abstraction");
    break;
  }
  return Ctx.intLit(0);
}

ExprRef c2bp::conditionToLogic(LogicContext &Ctx, const Expr &E) {
  ExprRef L = toLogic(Ctx, E);
  if (L->isFormula())
    return L;
  // Residual scalar (should not occur post-normalization): e != 0.
  return Ctx.ne(L, Ctx.intLit(0));
}

/// True if \p E is in the predicate language: no calls, and & only of
/// locations. Otherwise reports the first violation to \p Diags.
static bool checkPredicate(LogicContext &Ctx, const Expr &E,
                           DiagnosticEngine &Diags) {
  if (E.Kind == CExprKind::Call) {
    Diags.error(E.Loc, "call to '" + E.Name + "' in a predicate");
    return false;
  }
  for (const Expr *Op : E.Ops)
    if (!checkPredicate(Ctx, *Op, Diags))
      return false;
  if (E.Kind == CExprKind::Unary && E.UOp == UnaryOp::AddrOf &&
      !toLogic(Ctx, *E.Ops[0])->isLocation()) {
    Diags.error(E.Loc, "operand of & must be a location");
    return false;
  }
  return true;
}

ExprRef c2bp::parseExpr(LogicContext &Ctx, std::string_view Text,
                        DiagnosticEngine &Diags) {
  Expr *E = nullptr;
  std::unique_ptr<Program> Arena = parseExpression(Text, E, Diags);
  if (!Arena || !checkPredicate(Ctx, *E, Diags))
    return nullptr;
  return toLogic(Ctx, *E);
}
