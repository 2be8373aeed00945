//===- Evaluate.cpp - Concrete evaluation of the predicate logic ----------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "logic/Evaluate.h"

using namespace slam;
using namespace slam::logic;

static Result boolean(bool B) { return Result::of(Value::makeInt(B)); }

Result logic::evaluate(ExprRef E, Store &S) {
  const ExprKind Kind = E->kind();
  switch (Kind) {
  case ExprKind::IntLit:
    return Result::of(Value::makeInt(E->intValue()));
  case ExprKind::NullLit:
    return Result::of(S.NullIsZero ? Value::makeInt(0) : Value::null());
  case ExprKind::BoolLit:
    return boolean(E->boolValue());
  case ExprKind::Var:
  case ExprKind::AddrOf:
  case ExprKind::Deref:
  case ExprKind::Field:
  case ExprKind::Index:
    return S.leaf(E);
  case ExprKind::And:
  case ExprKind::Or: {
    // The operand value that decides: false for `&&`, true for `||`.
    const bool Decider = Kind == ExprKind::Or;
    bool Decided = false, Undefined = false;
    for (ExprRef Op : E->operands()) {
      Result R = evaluate(Op, S);
      if (R.S == Result::Status::Poison)
        return R;
      if (!R.defined())
        Undefined = true;
      else if ((R.V.I != 0) == Decider)
        Decided = true;
    }
    if (Decided)
      return boolean(Decider);
    return Undefined ? Result::undefined() : boolean(!Decider);
  }
  default:
    break;
  }

  // Not, arithmetic and comparisons: strict in their one or two operands.
  Value V[2];
  for (unsigned I = 0; I != E->numOperands(); ++I) {
    Result R = evaluate(E->op(I), S);
    if (!R.defined())
      return R;
    V[I] = R.V;
  }
  if (Kind == ExprKind::Not)
    return boolean(V[0].I == 0);
  const bool Pointer =
      V[0].K == Value::Kind::Ptr || V[1].K == Value::Kind::Ptr;
  if (isCmpKind(Kind)) {
    if (!Pointer)
      return boolean(compare(Kind, V[0].I, V[1].I));
    if (Kind != ExprKind::Eq && Kind != ExprKind::Ne)
      return Result::undefined(); // Pointers are not ordered.
    return boolean((V[0] == V[1]) == (Kind == ExprKind::Eq));
  }
  if (Pointer)
    return Result::undefined(); // No arithmetic on pointers.
  std::optional<int64_t> R = Kind == ExprKind::Neg
                                 ? arith(ExprKind::Sub, 0, V[0].I)
                                 : arith(Kind, V[0].I, V[1].I);
  return R ? Result::of(Value::makeInt(*R)) : Result::poison();
}
