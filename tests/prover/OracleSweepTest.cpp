//===- OracleSweepTest.cpp - Prover vs. brute-force enumeration -------------===//
//
// Property test: random formulas over three integer variables with small
// constants, decided both by the prover and by exhaustive enumeration
// over a finite grid. The directions checked:
//
//   * prover says Valid  => no counterexample exists on the grid
//     (soundness of Valid — the answer C2bp's correctness rests on);
//   * prover says Unsat  => no satisfying point exists on the grid;
//   * enumeration finds a model => the prover must not claim Unsat.
//
//===----------------------------------------------------------------------===//

#include "logic/Expr.h"
#include "prover/Prover.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::prover;
using logic::ExprKind;
using logic::ExprRef;

namespace {

struct Rng {
  uint64_t State;
  uint32_t next() {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return static_cast<uint32_t>(State >> 32);
  }
  uint32_t range(uint32_t N) { return next() % N; }
};

/// Random linear term over x, y, z and constants in [-3, 3].
ExprRef randomTerm(logic::LogicContext &Ctx, Rng &R, int Depth) {
  static const char *Vars[] = {"x", "y", "z"};
  if (Depth == 0 || R.range(3) == 0) {
    if (R.range(2))
      return Ctx.var(Vars[R.range(3)]);
    return Ctx.intLit(static_cast<int>(R.range(7)) - 3);
  }
  ExprRef L = randomTerm(Ctx, R, Depth - 1);
  ExprRef Rhs = randomTerm(Ctx, R, Depth - 1);
  switch (R.range(3)) {
  case 0:
    return Ctx.add(L, Rhs);
  case 1:
    return Ctx.sub(L, Rhs);
  default:
    return Ctx.mul(Ctx.intLit(static_cast<int>(R.range(3)) + 1), Rhs);
  }
}

ExprRef randomFormula(logic::LogicContext &Ctx, Rng &R, int Depth) {
  if (Depth == 0 || R.range(3) == 0) {
    ExprRef L = randomTerm(Ctx, R, 1);
    ExprRef Rhs = randomTerm(Ctx, R, 1);
    switch (R.range(6)) {
    case 0:
      return Ctx.eq(L, Rhs);
    case 1:
      return Ctx.ne(L, Rhs);
    case 2:
      return Ctx.lt(L, Rhs);
    case 3:
      return Ctx.le(L, Rhs);
    case 4:
      return Ctx.gt(L, Rhs);
    default:
      return Ctx.ge(L, Rhs);
    }
  }
  switch (R.range(3)) {
  case 0:
    return Ctx.notE(randomFormula(Ctx, R, Depth - 1));
  case 1:
    return Ctx.andE(randomFormula(Ctx, R, Depth - 1),
                    randomFormula(Ctx, R, Depth - 1));
  default:
    return Ctx.orE(randomFormula(Ctx, R, Depth - 1),
                   randomFormula(Ctx, R, Depth - 1));
  }
}

/// Exhaustive evaluation over an assignment.
int64_t evalTerm(ExprRef E, int64_t X, int64_t Y, int64_t Z) {
  switch (E->kind()) {
  case ExprKind::IntLit:
    return E->intValue();
  case ExprKind::Var:
    return E->name() == "x" ? X : E->name() == "y" ? Y : Z;
  case ExprKind::Neg:
    return -evalTerm(E->op(0), X, Y, Z);
  case ExprKind::Add:
    return evalTerm(E->op(0), X, Y, Z) + evalTerm(E->op(1), X, Y, Z);
  case ExprKind::Sub:
    return evalTerm(E->op(0), X, Y, Z) - evalTerm(E->op(1), X, Y, Z);
  case ExprKind::Mul:
    return evalTerm(E->op(0), X, Y, Z) * evalTerm(E->op(1), X, Y, Z);
  default:
    assert(false && "unexpected term kind");
    return 0;
  }
}

bool evalFormula(ExprRef E, int64_t X, int64_t Y, int64_t Z) {
  switch (E->kind()) {
  case ExprKind::BoolLit:
    return E->boolValue();
  case ExprKind::Eq:
    return evalTerm(E->op(0), X, Y, Z) == evalTerm(E->op(1), X, Y, Z);
  case ExprKind::Ne:
    return evalTerm(E->op(0), X, Y, Z) != evalTerm(E->op(1), X, Y, Z);
  case ExprKind::Lt:
    return evalTerm(E->op(0), X, Y, Z) < evalTerm(E->op(1), X, Y, Z);
  case ExprKind::Le:
    return evalTerm(E->op(0), X, Y, Z) <= evalTerm(E->op(1), X, Y, Z);
  case ExprKind::Gt:
    return evalTerm(E->op(0), X, Y, Z) > evalTerm(E->op(1), X, Y, Z);
  case ExprKind::Ge:
    return evalTerm(E->op(0), X, Y, Z) >= evalTerm(E->op(1), X, Y, Z);
  case ExprKind::Not:
    return !evalFormula(E->op(0), X, Y, Z);
  case ExprKind::And:
    for (ExprRef Op : E->operands())
      if (!evalFormula(Op, X, Y, Z))
        return false;
    return true;
  case ExprKind::Or:
    for (ExprRef Op : E->operands())
      if (evalFormula(Op, X, Y, Z))
        return true;
    return false;
  default:
    assert(false && "unexpected formula kind");
    return false;
  }
}

/// Does any grid point in [-Lim, Lim]^3 satisfy the formula?
bool gridSat(ExprRef E, int64_t Lim) {
  for (int64_t X = -Lim; X <= Lim; ++X)
    for (int64_t Y = -Lim; Y <= Lim; ++Y)
      for (int64_t Z = -Lim; Z <= Lim; ++Z)
        if (evalFormula(E, X, Y, Z))
          return true;
  return false;
}

class ProverOracleSweep : public ::testing::TestWithParam<int> {};

TEST_P(ProverOracleSweep, AgreesWithEnumeration) {
  Rng R{static_cast<uint64_t>(GetParam()) * 0x2545F4914F6CDD1DULL + 3};
  logic::LogicContext Ctx;
  prover::Prover P(Ctx);

  for (int Trial = 0; Trial != 8; ++Trial) {
    ExprRef Phi = randomFormula(Ctx, R, 3);
    if (!Phi->isFormula())
      continue;
    bool HasModel = Phi->isTrue() || (!Phi->isFalse() && gridSat(Phi, 8));
    Satisfiability S = P.checkSat(Phi);
    if (HasModel) {
      EXPECT_NE(S, Satisfiability::Unsat)
          << Phi->str() << " has a model on the grid";
    }
    if (S == Satisfiability::Unsat) {
      EXPECT_FALSE(HasModel) << Phi->str();
    }

    // Validity of an implication between two random formulas.
    ExprRef Psi = randomFormula(Ctx, R, 2);
    Validity V = P.implies(Phi, Psi);
    if (V == Validity::Valid) {
      // No grid point may satisfy Phi && !Psi.
      EXPECT_FALSE(gridSat(Ctx.andE(Phi, Ctx.notE(Psi)), 8))
          << Phi->str() << "  =>  " << Psi->str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProverOracleSweep,
                         ::testing::Range(0, 20));

} // namespace
