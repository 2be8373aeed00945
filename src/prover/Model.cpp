//===- Model.cpp - Concrete models of the predicate logic -----------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "prover/Model.h"

#include <limits>

using namespace slam;
using namespace slam::prover;
using logic::ExprKind;
using logic::ExprRef;

namespace {

/// Same function symbol: kind, and the name of a variable or field.
bool sameSymbol(ExprRef A, ExprRef B) {
  if (A->kind() != B->kind())
    return false;
  if (A->kind() == ExprKind::Var)
    return A == B; // Variables are interned by name.
  return A->kind() != ExprKind::Field || A->name() == B->name();
}

std::optional<bool> compare(ExprKind Kind, int64_t A, int64_t B) {
  switch (Kind) {
  case ExprKind::Eq:
    return A == B;
  case ExprKind::Ne:
    return A != B;
  case ExprKind::Lt:
    return A < B;
  case ExprKind::Le:
    return A <= B;
  case ExprKind::Gt:
    return A > B;
  case ExprKind::Ge:
    return A >= B;
  default:
    return std::nullopt;
  }
}

} // namespace

Model::Entry *Model::find(ExprRef App, int64_t Arg0, int64_t Arg1) {
  for (Entry &E : Table)
    if (E.Arg0 == Arg0 && E.Arg1 == Arg1 && sameSymbol(E.App, App))
      return &E;
  return nullptr;
}

bool Model::arguments(ExprRef App, int64_t (&Args)[2]) {
  Args[0] = Args[1] = 0;
  // `&x` is keyed on the value of x, as the prover's congruence closure
  // keys it on the class of x.
  for (unsigned I = 0; I != App->numOperands(); ++I) {
    std::optional<int64_t> V = value(App->op(I));
    if (!V)
      return false;
    Args[I] = *V;
  }
  return true;
}

bool Model::addressOk(ExprRef App, int64_t Value) {
  if (App->kind() != ExprKind::AddrOf)
    return true;
  if (Value <= 0)
    return false;
  ExprRef Var = App->op(0);
  if (Var->kind() != ExprKind::Var)
    return true;
  for (const auto &[Other, Address] : Addresses) {
    if (Other == Var)
      return Address == Value;
    if (Address == Value)
      return false;
  }
  Addresses.emplace_back(Var, Value);
  return true;
}

void Model::reserve(int64_t Value) {
  if (NextFresh < 0)
    return;
  int64_t Magnitude = Value == std::numeric_limits<int64_t>::min()
                          ? std::numeric_limits<int64_t>::max()
                          : (Value < 0 ? -Value : Value);
  if (Magnitude > std::numeric_limits<int64_t>::max() / 2) {
    NextFresh = -1; // No room left for fresh values.
    return;
  }
  int64_t Above = (Magnitude / FreshStride + 1) * FreshStride;
  if (Above > NextFresh)
    NextFresh = Above;
}

std::optional<int64_t> Model::fresh() {
  if (NextFresh < 0)
    return std::nullopt;
  int64_t Value = NextFresh;
  reserve(Value);
  return Value;
}

std::optional<int64_t> Model::apply(ExprRef App, std::optional<int64_t> Want) {
  int64_t Args[2];
  if (!arguments(App, Args))
    return std::nullopt;
  Entry *Known = find(App, Args[0], Args[1]);
  std::optional<int64_t> Value = Known ? Known->Value : Want ? Want : fresh();
  // `&x` and `&y` meet one entry when x and y are equal: the address
  // check then fails, as the prover's congruence closure would.
  if (!Value || (Want && *Value != *Want) || !addressOk(App, *Value))
    return std::nullopt;
  if (!Known) {
    Table.push_back({App, Args[0], Args[1], *Value});
    reserve(*Value);
  }
  return Value;
}

bool Model::define(ExprRef App, int64_t Value) {
  return apply(App, Value).has_value();
}

std::optional<int64_t> Model::value(ExprRef E) {
  switch (E->kind()) {
  case ExprKind::IntLit:
    return E->intValue();
  case ExprKind::NullLit:
    return 0;
  case ExprKind::Var:
  case ExprKind::AddrOf:
  case ExprKind::Deref:
  case ExprKind::Field:
  case ExprKind::Index:
    return apply(E, std::nullopt);
  case ExprKind::Neg: {
    std::optional<int64_t> V = value(E->op(0));
    if (!V)
      return std::nullopt;
    return logic::arith(ExprKind::Sub, 0, *V);
  }
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul:
  case ExprKind::Div:
  case ExprKind::Mod: {
    std::optional<int64_t> L = value(E->op(0));
    std::optional<int64_t> R = value(E->op(1));
    if (!L || !R)
      return std::nullopt;
    return logic::arith(E->kind(), *L, *R);
  }
  default:
    return std::nullopt; // A formula is not a term.
  }
}

std::optional<bool> Model::holds(ExprRef F) {
  switch (F->kind()) {
  case ExprKind::BoolLit:
    return F->boolValue();
  case ExprKind::Not: {
    std::optional<bool> V = holds(F->op(0));
    if (!V)
      return std::nullopt;
    return !*V;
  }
  case ExprKind::And:
  case ExprKind::Or: {
    bool IsAnd = F->kind() == ExprKind::And;
    bool Result = IsAnd;
    for (ExprRef Op : F->operands()) {
      std::optional<bool> V = holds(Op);
      if (!V)
        return std::nullopt;
      Result = IsAnd ? Result && *V : Result || *V;
    }
    return Result;
  }
  default: {
    if (!logic::isCmpKind(F->kind()))
      return std::nullopt;
    std::optional<int64_t> L = value(F->op(0));
    std::optional<int64_t> R = value(F->op(1));
    if (!L || !R)
      return std::nullopt;
    return compare(F->kind(), *L, *R);
  }
  }
}
