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

logic::Result Model::leaf(ExprRef App) {
  std::optional<int64_t> V = apply(App, std::nullopt);
  return V ? logic::Result::of(logic::Value::makeInt(*V))
           : logic::Result::poison();
}

std::optional<int64_t> Model::value(ExprRef E) {
  logic::Result R = logic::evaluate(E, *this);
  return R.defined() ? std::optional<int64_t>(R.V.I) : std::nullopt;
}

std::optional<bool> Model::holds(ExprRef F) {
  logic::Result R = logic::evaluate(F, *this);
  return R.defined() ? std::optional<bool>(R.V.I != 0) : std::nullopt;
}
