//===- Theory.cpp - EUF + LIA with equality propagation -------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "prover/Theory.h"

#include <algorithm>
#include <optional>

using namespace slam;
using namespace slam::prover;
using logic::ExprKind;
using logic::ExprRef;

namespace {

/// True if \p E contains an arithmetic operator (so LIA has work to do).
bool containsArith(ExprRef E) {
  switch (E->kind()) {
  case ExprKind::Neg:
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul:
  case ExprKind::Div:
  case ExprKind::Mod:
    return true;
  default:
    break;
  }
  for (ExprRef Op : E->operands())
    if (containsArith(Op))
      return true;
  return false;
}

/// The integer value of a constant term (NULL is 0).
int64_t valueOf(ExprRef C) {
  return C->kind() == ExprKind::NullLit ? 0 : C->intValue();
}

} // namespace

TheorySolver::Span TheorySolver::linearize(ExprRef E) {
  size_t Begin = Arena.size();
  switch (E->kind()) {
  case ExprKind::IntLit:
    Arena.push_back({UnitVar, Rational(E->intValue())});
    return {Begin, Begin + 1};
  case ExprKind::NullLit:
    return {Begin, Begin};
  case ExprKind::Neg: {
    Span Inner = linearize(E->op(0));
    for (size_t I = Inner.Begin; I != Inner.End; ++I)
      Arena[I].Coeff = -Arena[I].Coeff;
    return Inner;
  }
  case ExprKind::Add:
  case ExprKind::Sub: {
    Span L = linearize(E->op(0));
    Span R = linearize(E->op(1));
    return combine(L, R, E->kind() == ExprKind::Sub);
  }
  case ExprKind::Mul: {
    // Linear only when one side is a constant.
    Span L = linearize(E->op(0));
    Span R = linearize(E->op(1));
    auto ConstantOf = [this](Span X) -> std::optional<Rational> {
      if (X.Begin == X.End)
        return Rational(0);
      if (X.End - X.Begin == 1 && Arena[X.Begin].Var == UnitVar)
        return Arena[X.Begin].Coeff;
      return std::nullopt;
    };
    std::optional<Rational> C;
    if ((C = ConstantOf(L)))
      std::swap(L, R);
    else
      C = ConstantOf(R);
    if (C) {
      for (size_t I = L.Begin; I != L.End; ++I)
        Arena[I].Coeff *= *C;
      return L;
    }
    break;
  }
  default:
    break;
  }
  Arena.push_back({leafVar(E), Rational(1)});
  return {Arena.size() - 1, Arena.size()};
}

TheorySolver::Span TheorySolver::combine(Span L, Span R, bool Negate) {
  // Slot-wise L[v] + (+-R[v]); like a map update, a sum that cancels to
  // zero is dropped while L's own entries are kept as they are.
  size_t Begin = Arena.size();
  size_t I = L.Begin, J = R.Begin;
  while (I != L.End || J != R.End) {
    if (J == R.End || (I != L.End && Arena[I].Var < Arena[J].Var)) {
      Arena.push_back(Arena[I++]);
      continue;
    }
    LinearTerm T = Arena[J++];
    if (Negate)
      T.Coeff = -T.Coeff;
    if (I != L.End && Arena[I].Var == T.Var)
      T.Coeff = Arena[I++].Coeff + T.Coeff;
    if (!T.Coeff.isZero())
      Arena.push_back(T);
  }
  return {Begin, Arena.size()};
}

const LinearExpr &TheorySolver::difference(ExprRef A, ExprRef B) {
  Span L = linearize(A);
  Span R = linearize(B);
  Span D = combine(L, R, /*Negate=*/true);
  Diff.assign(Arena.begin() + D.Begin, Arena.begin() + D.End);
  Arena.clear();
  return Diff;
}

int TheorySolver::leafVar(ExprRef E) {
  int Var = LeafVars.lookup(E);
  if (Var >= 0)
    return Var;
  Var = static_cast<int>(LeafOrder.size()) + 1; // 0 is the unit var.
  LeafVars.insert(E, Var);
  LeafOrder.push_back(E);
  return Var;
}

void TheorySolver::collectConstantsAndAddrs(ExprRef E) {
  if (E->kind() == ExprKind::IntLit || E->kind() == ExprKind::NullLit) {
    if (std::find(ConstantTerms.begin(), ConstantTerms.end(), E) ==
        ConstantTerms.end())
      ConstantTerms.push_back(E);
  }
  if (E->kind() == ExprKind::AddrOf && E->op(0)->kind() == ExprKind::Var) {
    if (std::find(AddrOfVarTerms.begin(), AddrOfVarTerms.end(), E) ==
        AddrOfVarTerms.end())
      AddrOfVarTerms.push_back(E);
  }
  for (ExprRef Op : E->operands())
    collectConstantsAndAddrs(Op);
}

bool TheorySolver::addAtomToLIA(ExprRef Atom, bool Positive) {
  ExprKind Kind = Positive ? Atom->kind() : logic::negateCmp(Atom->kind());
  if (Kind == ExprKind::Ne) {
    Disequalities.emplace_back(Atom->op(0), Atom->op(1));
    return true;
  }
  int Slack = LIA.defineVar(difference(Atom->op(0), Atom->op(1)), true);
  switch (Kind) {
  case ExprKind::Eq:
    return LIA.assertLower(Slack, Rational(0)) &&
           LIA.assertUpper(Slack, Rational(0));
  case ExprKind::Lt:
    return LIA.assertUpper(Slack, Rational(-1));
  case ExprKind::Le:
    return LIA.assertUpper(Slack, Rational(0));
  case ExprKind::Gt:
    return LIA.assertLower(Slack, Rational(1));
  case ExprKind::Ge:
    return LIA.assertLower(Slack, Rational(0));
  default:
    assert(false && "not a comparison");
    return true;
  }
}

TheoryResult TheorySolver::check(const std::vector<Literal> &Literals) {
  // A trivially empty conjunction is satisfiable.
  if (Literals.empty())
    return TheoryResult::Sat;
  CC.clear();
  LeafVars.clear();
  LeafOrder.clear();
  ConstantTerms.clear();
  AddrOfVarTerms.clear();
  SawUnknown = false;
  UsedLIA = false;

  // ---- EUF side ---------------------------------------------------------
  bool HasArith = false;
  for (const Literal &L : Literals) {
    assert(logic::isCmpKind(L.Atom->kind()) && "atoms are comparisons");
    int A = CC.addTerm(L.Atom->op(0));
    int B = CC.addTerm(L.Atom->op(1));
    collectConstantsAndAddrs(L.Atom);
    HasArith |= containsArith(L.Atom);
    ExprKind Kind =
        L.Positive ? L.Atom->kind() : logic::negateCmp(L.Atom->kind());
    bool Ok = true;
    switch (Kind) {
    case ExprKind::Eq:
      Ok = CC.assertEqual(A, B);
      break;
    case ExprKind::Ne:
    case ExprKind::Lt:
    case ExprKind::Gt:
      // Strict comparisons imply disequality.
      Ok = CC.assertDisequal(A, B);
      break;
    default:
      HasArith = true; // Le / Ge orderings are arithmetic facts.
      break;
    }
    if (Kind == ExprKind::Lt || Kind == ExprKind::Gt)
      HasArith = true;
    if (!Ok)
      return TheoryResult::Unsat;
  }

  // ---- Memory-model axioms ----------------------------------------------
  // Distinct integer literals differ; NULL is 0.
  for (size_t I = 0; I != ConstantTerms.size(); ++I) {
    for (size_t J = I + 1; J != ConstantTerms.size(); ++J) {
      ExprRef A = ConstantTerms[I], B = ConstantTerms[J];
      bool Ok = valueOf(A) == valueOf(B)
                    ? CC.assertEqual(CC.addTerm(A), CC.addTerm(B))
                    : CC.assertDisequal(CC.addTerm(A), CC.addTerm(B));
      if (!Ok)
        return TheoryResult::Unsat;
    }
  }
  // Addresses of distinct variables differ and are non-null/non-zero.
  for (size_t I = 0; I != AddrOfVarTerms.size(); ++I) {
    for (size_t J = I + 1; J != AddrOfVarTerms.size(); ++J) {
      if (AddrOfVarTerms[I]->op(0) == AddrOfVarTerms[J]->op(0))
        continue;
      if (!CC.assertDisequal(CC.addTerm(AddrOfVarTerms[I]),
                             CC.addTerm(AddrOfVarTerms[J])))
        return TheoryResult::Unsat;
    }
    for (ExprRef C : ConstantTerms) {
      if (valueOf(C) == 0 &&
          !CC.assertDisequal(CC.addTerm(AddrOfVarTerms[I]), CC.addTerm(C)))
        return TheoryResult::Unsat;
    }
  }

  // Fast path: with no orderings and no arithmetic operators, congruence
  // closure alone is a decision procedure for the conjunction.
  if (!HasArith)
    return TheoryResult::Sat; // EUF conflicts were detected above.
  UsedLIA = true;

  // ---- Leaf discovery (fixes simplex variable ids) ------------------------
  // Leaf I is LIA variable I + 1; variable 0 is the unit.
  for (const Literal &L : Literals) {
    (void)linearize(L.Atom->op(0));
    (void)linearize(L.Atom->op(1));
  }
  Arena.clear();

  // Propagation between the theories only matters when some leaf has
  // functional structure (congruence can then derive new facts).
  bool NeedPropagation = false;
  for (ExprRef Leaf : LeafOrder)
    NeedPropagation |= Leaf->numOperands() != 0;
  int NumLeaves = static_cast<int>(LeafOrder.size());
  int MaxRounds = NeedPropagation ? 8 : 1;

  // ---- Combination loop ---------------------------------------------------
  // Rebuild the LIA instance with all EUF-known equalities, decide, then
  // import LIA-entailed equalities back into the EUF side; repeat to a
  // fixpoint. Negative equalities get a complete integer split check.
  for (int Round = 0; Round != MaxRounds; ++Round) {
    Disequalities.clear();
    LIA.clear();
    int Unit = LIA.newVar(true);
    (void)Unit;
    assert(Unit == UnitVar && "unit variable must be variable 0");
    if (!LIA.assertLower(UnitVar, Rational(1)) ||
        !LIA.assertUpper(UnitVar, Rational(1)))
      return TheoryResult::Unsat;
    for (int I = 0; I != NumLeaves; ++I)
      LIA.newVar(true);

    for (const Literal &L : Literals)
      if (!addAtomToLIA(L.Atom, L.Positive))
        return TheoryResult::Unsat;

    // AddrOf leaves are positive addresses.
    for (int I = 0; I != NumLeaves; ++I)
      if (LeafOrder[I]->kind() == ExprKind::AddrOf)
        if (!LIA.assertLower(I + 1, Rational(1)))
          return TheoryResult::Unsat;

    // EUF -> LIA: leaves in the same congruence class are equal numbers;
    // a leaf congruent to an integer literal is pinned to its value.
    for (int I = 0; I != NumLeaves; ++I) {
      int TI = CC.addTerm(LeafOrder[I]);
      for (int J = I + 1; J != NumLeaves; ++J) {
        if (!CC.areEqual(TI, CC.addTerm(LeafOrder[J])))
          continue;
        Diff.assign({{I + 1, Rational(1)}, {J + 1, Rational(-1)}});
        int Slack = LIA.defineVar(Diff, true);
        if (!LIA.assertLower(Slack, Rational(0)) ||
            !LIA.assertUpper(Slack, Rational(0)))
          return TheoryResult::Unsat;
      }
      for (ExprRef C : ConstantTerms) {
        if (!CC.areEqual(TI, CC.addTerm(C)))
          continue;
        if (!LIA.assertLower(I + 1, Rational(valueOf(C))) ||
            !LIA.assertUpper(I + 1, Rational(valueOf(C))))
          return TheoryResult::Unsat;
      }
    }

    LinResult Base = LIA.check();
    if (Base == LinResult::Unsat)
      return TheoryResult::Unsat;
    if (Base == LinResult::Unknown)
      SawUnknown = true;

    // Integer split check for each disequality: if both t < u and t > u
    // are infeasible then t = u is entailed, refuting the disequality.
    // If exactly one side is feasible, assert it (e.g. x >= 0 && x != 0
    // strengthens to x >= 1).
    bool Strengthened = true;
    while (Strengthened) {
      Strengthened = false;
      for (size_t K = 0; K != Disequalities.size();) {
        const LinearExpr &D =
            difference(Disequalities[K].first, Disequalities[K].second);
        LinResult Lo = LIA.probeUpper(D, Rational(-1));
        LinResult Hi = LIA.probeLower(D, Rational(1));
        if (Lo == LinResult::Unsat && Hi == LinResult::Unsat)
          return TheoryResult::Unsat;
        if (Lo == LinResult::Unknown || Hi == LinResult::Unknown)
          SawUnknown = true;
        bool OnlyHi = Lo == LinResult::Unsat && Hi == LinResult::Sat;
        bool OnlyLo = Hi == LinResult::Unsat && Lo == LinResult::Sat;
        if (OnlyHi || OnlyLo) {
          int Slack = LIA.defineVar(D, true);
          if (OnlyHi ? !LIA.assertLower(Slack, Rational(1))
                     : !LIA.assertUpper(Slack, Rational(-1)))
            return TheoryResult::Unsat;
          Disequalities.erase(Disequalities.begin() + K);
          Strengthened = true;
          continue;
        }
        ++K;
      }
      if (Strengthened && LIA.check() == LinResult::Unsat)
        return TheoryResult::Unsat;
    }

    if (!NeedPropagation)
      break;

    // LIA -> EUF: entailed equalities between shared leaves (and between
    // leaves and integer constants) feed congruence closure.
    bool Merged = false;
    auto Entailed = [&](const LinearExpr &D) {
      return LIA.probeUpper(D, Rational(-1)) == LinResult::Unsat &&
             LIA.probeLower(D, Rational(1)) == LinResult::Unsat;
    };
    for (int I = 0; I != NumLeaves && !Merged; ++I) {
      int TI = CC.addTerm(LeafOrder[I]);
      for (int J = I + 1; J != NumLeaves && !Merged; ++J) {
        int TJ = CC.addTerm(LeafOrder[J]);
        if (CC.areEqual(TI, TJ))
          continue;
        Diff.assign({{I + 1, Rational(1)}, {J + 1, Rational(-1)}});
        if (Entailed(Diff)) {
          if (!CC.assertEqual(TI, TJ))
            return TheoryResult::Unsat;
          Merged = true;
        }
      }
      if (Merged)
        break;
      for (ExprRef C : ConstantTerms) {
        if (CC.areEqual(TI, CC.addTerm(C)))
          continue;
        Diff.assign({{UnitVar, -Rational(valueOf(C))}, {I + 1, Rational(1)}});
        if (Entailed(Diff)) {
          if (!CC.assertEqual(TI, CC.addTerm(C)))
            return TheoryResult::Unsat;
          Merged = true;
          break;
        }
      }
    }
    if (!Merged)
      break;
  }

  return SawUnknown ? TheoryResult::Unknown : TheoryResult::Sat;
}

bool TheorySolver::separateDisequalities() {
  // The addresses of distinct variables must differ too.
  for (size_t I = 0; I != AddrOfVarTerms.size(); ++I)
    for (size_t J = I + 1; J != AddrOfVarTerms.size(); ++J)
      if (AddrOfVarTerms[I]->op(0) != AddrOfVarTerms[J]->op(0) &&
          LeafVars.lookup(AddrOfVarTerms[I]) >= 0 &&
          LeafVars.lookup(AddrOfVarTerms[J]) >= 0)
        Disequalities.emplace_back(AddrOfVarTerms[I], AddrOfVarTerms[J]);
  // Each pass moves one violated disequality to a feasible side for
  // good (it becomes a strict bound), so there are at most as many
  // passes as disequalities.
  for (size_t Pass = 0; Pass <= Disequalities.size(); ++Pass) {
    const LinearExpr *D = nullptr;
    for (const auto &[A, B] : Disequalities) {
      D = &difference(A, B);
      Rational Value(0);
      for (const LinearTerm &T : *D)
        Value += T.Coeff * LIA.value(T.Var);
      if (Value.isOverflow())
        return false;
      if (Value.isZero())
        break;
      D = nullptr;
    }
    if (!D)
      return true;
    bool Below = LIA.probeUpper(*D, Rational(-1)) == LinResult::Sat;
    if (!Below && LIA.probeLower(*D, Rational(1)) != LinResult::Sat)
      return false;
    int Slack = LIA.defineVar(*D, true);
    if (!(Below ? LIA.assertUpper(Slack, Rational(-1))
                : LIA.assertLower(Slack, Rational(1))) ||
        LIA.check() != LinResult::Sat)
      return false;
  }
  return false;
}

std::optional<Model> TheorySolver::model(const std::vector<Literal> &Literals) {
  Model M;
  if (Literals.empty())
    return M;
  ClassValue.assign(CC.numTerms(), std::nullopt);
  auto Pin = [&](ExprRef E, int64_t Value) {
    std::optional<int64_t> &Slot = ClassValue[CC.find(CC.addTerm(E))];
    if (Slot && *Slot != Value)
      return false;
    Slot = Value;
    M.reserve(Value);
    return true;
  };
  for (ExprRef C : ConstantTerms)
    if (!Pin(C, valueOf(C)))
      return std::nullopt;
  if (UsedLIA && !separateDisequalities())
    return std::nullopt;
  for (size_t I = 0; UsedLIA && I != LeafOrder.size(); ++I) {
    Rational V = LIA.value(static_cast<int>(I) + 1);
    if (V.isOverflow() || !V.isInteger() || !Pin(LeafOrder[I], V.num()))
      return std::nullopt;
  }
  // Every function application takes its class's value at its
  // arguments' values; arithmetic is left to the model's evaluation.
  for (int I = 0; I != CC.numTerms(); ++I) {
    ExprRef E = CC.term(I);
    switch (E->kind()) {
    case ExprKind::Var:
    case ExprKind::AddrOf:
    case ExprKind::Deref:
    case ExprKind::Field:
    case ExprKind::Index: {
      std::optional<int64_t> &Slot = ClassValue[CC.find(I)];
      if (!Slot && !(Slot = M.fresh()))
        return std::nullopt;
      if (!M.define(E, *Slot))
        return std::nullopt;
      break;
    }
    default:
      break;
    }
  }
  for (const Literal &L : Literals)
    if (M.holds(L.Atom) != std::optional<bool>(L.Positive))
      return std::nullopt;
  return M;
}
