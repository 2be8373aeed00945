//===- Simplex.h - Linear integer arithmetic solver -------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A general Simplex solver in the style of Dutertre & de Moura ("A Fast
/// Linear-Arithmetic Solver for DPLL(T)"): variables with optional lower
/// and upper bounds, a tableau of basic-variable definitions, Bland's
/// rule for termination, plus branch-and-bound over the rational
/// relaxation for integer feasibility. This is the arithmetic half of
/// the Nelson–Oppen prover the paper obtains from Simplify/Vampyre.
///
/// The tableau rows are dense. Probes and branch-and-bound save and
/// restore the state on a reused stack, so with clear() a reused solver
/// stops allocating once it has warmed up.
///
//===----------------------------------------------------------------------===//

#ifndef PROVER_SIMPLEX_H
#define PROVER_SIMPLEX_H

#include "prover/Rational.h"

#include <optional>
#include <utility>
#include <vector>

namespace slam {
namespace prover {

/// One term of a linear combination.
struct LinearTerm {
  int Var;
  Rational Coeff;
};

/// A linear combination of solver variables, sorted by variable, each
/// variable at most once.
using LinearExpr = std::vector<LinearTerm>;

/// Feasibility answer; Unknown arises when the branch-and-bound node
/// budget is exhausted or when Rational arithmetic overflows 64 bits
/// (the poisoned solver answers conservatively rather than wrong).
enum class LinResult { Sat, Unsat, Unknown };

/// Incremental Simplex instance. Build the problem with
/// newVar/defineVar/assertLower/assertUpper, then call check().
class Simplex {
public:
  /// Forgets every variable and bound; keeps the buffers.
  void clear();

  /// Creates a fresh variable; \p Integer requests integrality during
  /// branch-and-bound (every SIL-C variable is an integer).
  int newVar(bool Integer = true);

  /// Creates a variable constrained to equal \p Definition (a slack
  /// variable with a tableau row). Bounds placed on the result constrain
  /// the linear expression.
  int defineVar(const LinearExpr &Definition, bool Integer = true);

  /// Asserts Var >= Bound. Returns false on an immediately detected
  /// bound clash (lower > upper).
  bool assertLower(int Var, const Rational &Bound) {
    return assertBound(Var, Bound, /*IsUpper=*/false);
  }

  /// Asserts Var <= Bound.
  bool assertUpper(int Var, const Rational &Bound) {
    return assertBound(Var, Bound, /*IsUpper=*/true);
  }

  /// Decides feasibility over the integers (for integer-marked vars).
  /// \p NodeBudget bounds branch-and-bound nodes.
  LinResult check(int NodeBudget = 200);

  /// After a Sat check(), the value of \p Var in the found model.
  Rational value(int Var) const { return S.Assignment[Var]; }

  /// Probes: is the current system plus `Expr <= Bound` (`Expr >=
  /// Bound`) satisfiable? The solver is left as it was.
  LinResult probeUpper(const LinearExpr &Expr, const Rational &Bound,
                       int NodeBudget = 200) {
    return probe(Expr, Bound, /*Upper=*/true, NodeBudget);
  }
  LinResult probeLower(const LinearExpr &Expr, const Rational &Bound,
                       int NodeBudget = 200) {
    return probe(Expr, Bound, /*Upper=*/false, NodeBudget);
  }

  int numVars() const { return S.NumVars; }

private:
  /// Everything a probe or a branch may change. Tableau row R, dense over
  /// the vars, says BasicOf[R] = sum of coeff * var (rows past numRows()
  /// are spare storage).
  struct State {
    int NumVars = 0;
    std::vector<std::vector<Rational>> Tab;
    std::vector<int> BasicOf;
    std::vector<int> RowOf; ///< Tableau row of a basic var, else -1.
    std::vector<std::optional<Rational>> Lower, Upper;
    std::vector<Rational> Assignment;
    std::vector<char> IsInteger;
    bool Poisoned = false;
  };

  Rational &at(int Row, int Var) { return S.Tab[Row][Var]; }
  int numRows() const { return static_cast<int>(S.BasicOf.size()); }

  bool assertBound(int Var, const Rational &Bound, bool IsUpper);
  LinResult checkRational();
  void pivot(int Basic, int NonBasic);
  void pivotAndUpdate(int Basic, int NonBasic, const Rational &NewValue);
  LinResult branchAndBound(int &NodeBudget);
  /// Adds Delta * (column Var) to the assignment of the basic var of
  /// every row but \p SkipRow.
  void ripple(int Var, const Rational &Delta, int SkipRow = -1);
  LinResult probe(const LinearExpr &Expr, const Rational &Bound, bool Upper,
                  int NodeBudget);

  /// Saves the state on the stack; pop() restores it.
  void push() {
    if (Depth == Saved.size())
      Saved.emplace_back();
    Saved[Depth++] = S;
  }
  void pop() { std::swap(S, Saved[--Depth]); }

  /// Records whether \p R is the overflow poison; once set, check()
  /// answers Unknown (the tableau can no longer be trusted).
  void note(const Rational &R) { S.Poisoned |= R.isOverflow(); }

  State S;
  std::vector<State> Saved; ///< Saved[0, Depth) is the stack.
  size_t Depth = 0;
};

} // namespace prover
} // namespace slam

#endif // PROVER_SIMPLEX_H
