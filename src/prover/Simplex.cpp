//===- Simplex.cpp - Dutertre–de Moura general simplex --------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "prover/Simplex.h"

#include <cassert>

using namespace slam;
using namespace slam::prover;

void Simplex::clear() {
  S.NumVars = 0;
  for (std::vector<Rational> &Row : S.Tab)
    Row.clear();
  S.BasicOf.clear();
  S.RowOf.clear();
  S.Lower.clear();
  S.Upper.clear();
  S.Assignment.clear();
  S.IsInteger.clear();
  S.Poisoned = false;
}

int Simplex::newVar(bool Integer) {
  int Var = S.NumVars++;
  for (int R = 0; R != numRows(); ++R)
    S.Tab[R].emplace_back();
  S.RowOf.push_back(-1);
  S.Lower.emplace_back();
  S.Upper.emplace_back();
  S.Assignment.emplace_back(0);
  S.IsInteger.push_back(Integer);
  return Var;
}

int Simplex::defineVar(const LinearExpr &Definition, bool Integer) {
  // Expand any basic variables in the definition so the row mentions
  // only nonbasic variables, and compute the initial assignment.
  int Row = numRows();
  S.BasicOf.push_back(-1);
  if (static_cast<int>(S.Tab.size()) == Row)
    S.Tab.emplace_back();
  S.Tab[Row].assign(S.NumVars, Rational());
  auto Accumulate = [this, Row](int Var, const Rational &Coeff) {
    Rational &Slot = at(Row, Var);
    Slot += Coeff;
    note(Slot);
  };
  for (const auto &[Var, Coeff] : Definition) {
    if (Coeff.isZero())
      continue;
    if (int Def = S.RowOf[Var]; Def >= 0) {
      for (int Sub = 0; Sub != S.NumVars; ++Sub)
        if (!at(Def, Sub).isZero())
          Accumulate(Sub, Coeff * at(Def, Sub));
    } else {
      Accumulate(Var, Coeff);
    }
  }
  int Var = newVar(Integer);
  Rational Value(0);
  for (int Sub = 0; Sub != Var; ++Sub)
    if (!at(Row, Sub).isZero())
      Value += at(Row, Sub) * S.Assignment[Sub];
  note(Value);
  S.Assignment[Var] = Value;
  S.RowOf[Var] = Row;
  S.BasicOf[Row] = Var;
  return Var;
}

void Simplex::ripple(int Var, const Rational &Delta, int SkipRow) {
  for (int R = 0; R != numRows(); ++R) {
    if (R == SkipRow || at(R, Var).isZero())
      continue;
    Rational &Value = S.Assignment[S.BasicOf[R]];
    Value += at(R, Var) * Delta;
    note(Value);
  }
}

bool Simplex::assertBound(int Var, const Rational &Bound, bool IsUpper) {
  note(Bound);
  auto Beyond = [IsUpper](const Rational &A, const Rational &B) {
    return IsUpper ? A > B : A < B; // A lies past bound B.
  };
  std::optional<Rational> &Mine = IsUpper ? S.Upper[Var] : S.Lower[Var];
  std::optional<Rational> &Other = IsUpper ? S.Lower[Var] : S.Upper[Var];
  if (Mine && !Beyond(*Mine, Bound))
    return true; // Not a tightening.
  if (Other && Beyond(*Other, Bound))
    return false;
  Mine = Bound;
  if (S.RowOf[Var] < 0 && Beyond(S.Assignment[Var], Bound)) {
    // Move the nonbasic variable onto its new bound and ripple the
    // change through every dependent basic variable.
    ripple(Var, Bound - S.Assignment[Var]);
    S.Assignment[Var] = Bound;
  }
  return true;
}

void Simplex::pivot(int Basic, int NonBasic) {
  int Row = S.RowOf[Basic];
  Rational A = at(Row, NonBasic);
  assert(!A.isZero() && "pivot coefficient must be nonzero");

  // NonBasic = (Basic - sum_{j != NonBasic} c_j * y_j) / A.
  at(Row, NonBasic) = Rational(0);
  for (int Var = 0; Var != S.NumVars; ++Var) {
    Rational &Coeff = at(Row, Var);
    if (!Coeff.isZero()) {
      Coeff = -(Coeff / A);
      note(Coeff);
    }
  }
  at(Row, Basic) = Rational(1) / A;
  note(at(Row, Basic));
  S.RowOf[Basic] = -1;
  S.RowOf[NonBasic] = Row;
  S.BasicOf[Row] = NonBasic;

  // Substitute NonBasic out of every other row.
  for (int Other = 0; Other != numRows(); ++Other) {
    if (Other == Row || at(Other, NonBasic).isZero())
      continue;
    Rational C = at(Other, NonBasic);
    at(Other, NonBasic) = Rational(0);
    for (int Var = 0; Var != S.NumVars; ++Var) {
      if (at(Row, Var).isZero())
        continue;
      Rational &Slot = at(Other, Var);
      Slot += C * at(Row, Var);
      note(Slot);
    }
  }
}

void Simplex::pivotAndUpdate(int Basic, int NonBasic,
                             const Rational &NewValue) {
  int Row = S.RowOf[Basic];
  Rational Theta = (NewValue - S.Assignment[Basic]) / at(Row, NonBasic);
  note(Theta);
  S.Assignment[Basic] = NewValue;
  S.Assignment[NonBasic] += Theta;
  note(S.Assignment[NonBasic]);
  ripple(NonBasic, Theta, /*SkipRow=*/Row);
  pivot(Basic, NonBasic);
}

LinResult Simplex::checkRational() {
  for (;;) {
    // A poisoned tableau cannot be trusted in either direction.
    if (S.Poisoned)
      return LinResult::Unknown;
    // Bland's rule: smallest-index violating basic variable.
    int Violating = -1;
    bool BelowLower = false;
    for (int Var = 0; Var != S.NumVars && Violating < 0; ++Var) {
      if (S.RowOf[Var] < 0)
        continue;
      const Rational &Value = S.Assignment[Var];
      if (S.Lower[Var] && Value < *S.Lower[Var]) {
        Violating = Var;
        BelowLower = true;
      } else if (S.Upper[Var] && Value > *S.Upper[Var]) {
        Violating = Var;
      }
    }
    if (Violating < 0)
      return LinResult::Sat;

    // ... and the smallest-index suitable nonbasic variable to pivot.
    int Row = S.RowOf[Violating];
    int Pivot = -1;
    for (int Var = 0; Var != S.NumVars && Pivot < 0; ++Var) {
      const Rational &Coeff = at(Row, Var);
      if (Coeff.isZero())
        continue;
      const Rational &Value = S.Assignment[Var];
      bool CanIncrease = !S.Upper[Var] || Value < *S.Upper[Var];
      bool CanDecrease = !S.Lower[Var] || Value > *S.Lower[Var];
      bool Suitable = BelowLower
                          ? ((Coeff.isPositive() && CanIncrease) ||
                             (Coeff.isNegative() && CanDecrease))
                          : ((Coeff.isPositive() && CanDecrease) ||
                             (Coeff.isNegative() && CanIncrease));
      if (Suitable)
        Pivot = Var;
    }
    if (Pivot < 0)
      return LinResult::Unsat;
    Rational Target =
        BelowLower ? *S.Lower[Violating] : *S.Upper[Violating];
    pivotAndUpdate(Violating, Pivot, Target);
  }
}

LinResult Simplex::branchAndBound(int &NodeBudget) {
  if (NodeBudget-- <= 0)
    return LinResult::Unknown;

  LinResult Relaxed = checkRational();
  if (Relaxed != LinResult::Sat)
    return Relaxed;

  // Find an integer variable with a fractional value.
  int Fractional = -1;
  for (int Var = 0; Var != S.NumVars; ++Var) {
    if (S.IsInteger[Var] && !S.Assignment[Var].isInteger()) {
      Fractional = Var;
      break;
    }
  }
  if (Fractional < 0)
    return LinResult::Sat;

  int64_t Floor = S.Assignment[Fractional].floor();
  bool SawUnknown = false;
  // Explore x <= floor, then x >= floor + 1, each on a saved copy of
  // this node. A Sat branch keeps its state; otherwise the node comes
  // back, but a branch's poison sticks even when the branch is cut.
  for (bool Down : {true, false}) {
    push();
    bool BoundOk = Down ? assertUpper(Fractional, Rational(Floor))
                        : assertLower(Fractional, Rational(Floor + 1));
    LinResult R = BoundOk ? branchAndBound(NodeBudget) : LinResult::Unsat;
    if (R == LinResult::Sat) {
      --Depth; // Keep the branch's state.
      return LinResult::Sat;
    }
    bool BranchPoisoned = S.Poisoned;
    pop();
    S.Poisoned |= BranchPoisoned;
    SawUnknown |= R == LinResult::Unknown;
  }
  return SawUnknown ? LinResult::Unknown : LinResult::Unsat;
}

LinResult Simplex::check(int NodeBudget) {
  LinResult R = branchAndBound(NodeBudget);
  return S.Poisoned ? LinResult::Unknown : R;
}

LinResult Simplex::probe(const LinearExpr &Expr, const Rational &Bound,
                         bool Upper, int NodeBudget) {
  push();
  bool Integral = true;
  for (const auto &[Var, Coeff] : Expr)
    Integral &= S.IsInteger[Var] && Coeff.isInteger();
  int Slack = defineVar(Expr, Integral);
  bool BoundOk =
      Upper ? assertUpper(Slack, Bound) : assertLower(Slack, Bound);
  LinResult R = S.Poisoned ? LinResult::Unknown // A poisoned clash may be
                : !BoundOk ? LinResult::Unsat   // spurious.
                           : check(NodeBudget);
  pop();
  return R;
}
