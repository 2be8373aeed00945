//===- ExprUtils.cpp ------------------------------------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "logic/ExprUtils.h"

#include <algorithm>

using namespace slam;
using namespace slam::logic;

namespace {

void collectVarsImpl(ExprRef E, std::set<std::string> &Out) {
  if (E->kind() == ExprKind::Var)
    Out.insert(E->name());
  for (ExprRef Op : E->operands())
    collectVarsImpl(Op, Out);
}

void collectDerefedImpl(ExprRef E, std::set<std::string> &Out) {
  if (E->kind() == ExprKind::Deref || E->kind() == ExprKind::Index) {
    ExprRef Base = E->op(0);
    if (Base->kind() == ExprKind::Var)
      Out.insert(Base->name());
  }
  for (ExprRef Op : E->operands())
    collectDerefedImpl(Op, Out);
}

void collectLocationsImpl(ExprRef E, std::vector<ExprRef> &Out,
                          bool IsFieldBase) {
  // The direct base of a field access denotes a whole struct object;
  // SIL-C has no whole-struct assignment, so it is never a Morris
  // substitution candidate itself (its scalar cells are, via their own
  // Field locations). Skip it but keep recursing: in p->f the base *p
  // is skipped while the pointer p is collected.
  if (!IsFieldBase && E->isLocation() &&
      std::find(Out.begin(), Out.end(), E) == Out.end())
    Out.push_back(E);
  for (unsigned I = 0; I != E->numOperands(); ++I)
    collectLocationsImpl(E->op(I), Out,
                         E->kind() == ExprKind::Field && I == 0);
}

} // namespace

std::set<std::string> logic::collectVars(ExprRef E) {
  std::set<std::string> Out;
  collectVarsImpl(E, Out);
  return Out;
}

std::set<std::string> logic::collectDerefedVars(ExprRef E) {
  std::set<std::string> Out;
  collectDerefedImpl(E, Out);
  return Out;
}

std::vector<ExprRef> logic::collectLocations(ExprRef E) {
  std::vector<ExprRef> Out;
  collectLocationsImpl(E, Out, /*IsFieldBase=*/false);
  return Out;
}

bool logic::containsNullDeref(ExprRef E) {
  if ((E->kind() == ExprKind::Deref || E->kind() == ExprKind::Index) &&
      E->op(0)->kind() == ExprKind::NullLit)
    return true;
  for (ExprRef Op : E->operands())
    if (containsNullDeref(Op))
      return true;
  return false;
}

bool logic::mentions(ExprRef E, ExprRef Loc) {
  if (E == Loc)
    return true;
  for (ExprRef Op : E->operands())
    if (mentions(Op, Loc))
      return true;
  return false;
}

namespace {

ExprRef rebuild(LogicContext &Ctx, ExprRef E, std::vector<ExprRef> Ops) {
  switch (E->kind()) {
  case ExprKind::IntLit:
    return Ctx.intLit(E->intValue());
  case ExprKind::NullLit:
    return Ctx.nullLit();
  case ExprKind::BoolLit:
    return Ctx.boolLit(E->boolValue());
  case ExprKind::Var:
    return Ctx.var(E->name());
  case ExprKind::AddrOf:
    return Ctx.addrOf(Ops[0]);
  case ExprKind::Deref:
    return Ctx.deref(Ops[0]);
  case ExprKind::Field:
    return Ctx.field(Ops[0], E->name());
  case ExprKind::Index:
    return Ctx.index(Ops[0], Ops[1]);
  case ExprKind::Neg:
    return Ctx.neg(Ops[0]);
  case ExprKind::Add:
    return Ctx.add(Ops[0], Ops[1]);
  case ExprKind::Sub:
    return Ctx.sub(Ops[0], Ops[1]);
  case ExprKind::Mul:
    return Ctx.mul(Ops[0], Ops[1]);
  case ExprKind::Div:
    return Ctx.div(Ops[0], Ops[1]);
  case ExprKind::Mod:
    return Ctx.mod(Ops[0], Ops[1]);
  case ExprKind::Eq:
  case ExprKind::Ne:
  case ExprKind::Lt:
  case ExprKind::Le:
  case ExprKind::Gt:
  case ExprKind::Ge:
    return Ctx.cmp(E->kind(), Ops[0], Ops[1]);
  case ExprKind::Not:
    return Ctx.notE(Ops[0]);
  case ExprKind::And:
    return Ctx.andE(std::move(Ops));
  case ExprKind::Or:
    return Ctx.orE(std::move(Ops));
  }
  assert(false && "unhandled expression kind");
  return nullptr;
}

} // namespace

ExprRef logic::substituteAll(
    LogicContext &Ctx, ExprRef E,
    const std::vector<std::pair<ExprRef, ExprRef>> &Map) {
  for (const auto &[From, To] : Map)
    if (E == From)
      return To;
  if (E->numOperands() == 0)
    return rebuild(Ctx, E, {});
  std::vector<ExprRef> Ops;
  Ops.reserve(E->numOperands());
  for (ExprRef Op : E->operands())
    Ops.push_back(substituteAll(Ctx, Op, Map));
  return rebuild(Ctx, E, std::move(Ops));
}
