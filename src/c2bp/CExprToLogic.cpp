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

namespace {

/// Predicates are not name-resolved, and in them `true` and `false` are
/// the boolean literals (cfront lexes them as identifiers).
bool isBoolLiteral(const Expr &E) {
  return E.Kind == CExprKind::VarRef && !E.Var &&
         (E.Name == "true" || E.Name == "false");
}

/// One translation, reading the locations it names through a reader.
struct Translator {
  LogicContext &Ctx;
  LocationReader &Reader;

  ExprRef value(const Expr &E) {
    switch (E.Kind) {
    case CExprKind::IntLit:
      return Ctx.intLit(E.IntValue);
    case CExprKind::NullLit:
      return Ctx.nullLit();
    case CExprKind::VarRef:
      if (isBoolLiteral(E))
        return Ctx.boolLit(E.Name == "true");
      return Reader.read(location(E));
    case CExprKind::Member:
    case CExprKind::Index:
      return Reader.read(location(E));
    case CExprKind::Unary:
      switch (E.UOp) {
      case UnaryOp::Deref:
        return Reader.read(location(E));
      case UnaryOp::AddrOf:
        return Ctx.addrOf(location(*E.Ops[0]));
      case UnaryOp::Neg:
        return Ctx.neg(value(*E.Ops[0]));
      case UnaryOp::Not:
        return Ctx.notE(condition(*E.Ops[0]));
      }
      break;
    case CExprKind::Binary: {
      if (E.BOp == BinaryOp::LAnd || E.BOp == BinaryOp::LOr) {
        ExprRef L = condition(*E.Ops[0]);
        ExprRef R = condition(*E.Ops[1]);
        return E.BOp == BinaryOp::LAnd ? Ctx.andE(L, R) : Ctx.orE(L, R);
      }
      ExprRef L = value(*E.Ops[0]);
      ExprRef R = value(*E.Ops[1]);
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
    case CExprKind::Call:
      assert(false && "calls must be hoisted before abstraction");
      break;
    }
    return Ctx.intLit(0);
  }

  ExprRef location(const Expr &E) {
    switch (E.Kind) {
    case CExprKind::VarRef:
      return Reader.varLocation(Ctx, E);
    case CExprKind::Unary:
      if (E.UOp != UnaryOp::Deref)
        break;
      return Ctx.deref(value(*E.Ops[0]));
    case CExprKind::Member: {
      ExprRef Base = E.IsArrow ? Ctx.deref(value(*E.Ops[0]))
                               : location(*E.Ops[0]);
      return Ctx.field(Base, E.FieldName);
    }
    case CExprKind::Index: {
      // An array is its own base; a pointer's value is.
      const Expr &Base = *E.Ops[0];
      ExprRef B = Base.Ty && Base.Ty->isArray() ? location(Base) : value(Base);
      return Ctx.index(B, value(*E.Ops[1]));
    }
    default:
      break;
    }
    // Not a location (only a malformed predicate gets here): as written.
    return value(E);
  }

  ExprRef condition(const Expr &E) {
    bool Boolean =
        isBoolLiteral(E) ||
        (E.Kind == CExprKind::Unary && E.UOp == UnaryOp::Not) ||
        (E.Kind == CExprKind::Binary &&
         (E.BOp == BinaryOp::LAnd || E.BOp == BinaryOp::LOr ||
          isComparisonOp(E.BOp)));
    ExprRef V = value(E);
    return Boolean ? V : Ctx.ne(V, Ctx.intLit(0));
  }
};

} // namespace

LocationReader &c2bp::programForm() {
  static LocationReader Reader; // Stateless, so threads may share it.
  return Reader;
}

ExprRef c2bp::toLogic(LogicContext &Ctx, const Expr &E,
                      LocationReader &Reader) {
  return Translator{Ctx, Reader}.value(E);
}

ExprRef c2bp::locationToLogic(LogicContext &Ctx, const Expr &E,
                              LocationReader &Reader) {
  return Translator{Ctx, Reader}.location(E);
}

ExprRef c2bp::conditionToLogic(LogicContext &Ctx, const Expr &E,
                               LocationReader &Reader) {
  return Translator{Ctx, Reader}.condition(E);
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
