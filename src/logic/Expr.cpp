//===- Expr.cpp - Interned logic expressions ------------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "logic/Expr.h"

#include <algorithm>
#include <functional>

using namespace slam;
using namespace slam::logic;

bool logic::isCmpKind(ExprKind Kind) {
  switch (Kind) {
  case ExprKind::Eq:
  case ExprKind::Ne:
  case ExprKind::Lt:
  case ExprKind::Le:
  case ExprKind::Gt:
  case ExprKind::Ge:
    return true;
  default:
    return false;
  }
}

std::optional<int64_t> logic::arith(ExprKind Kind, int64_t A, int64_t B) {
  int64_t R;
  switch (Kind) {
  case ExprKind::Add:
    return __builtin_add_overflow(A, B, &R) ? std::nullopt
                                            : std::optional<int64_t>(R);
  case ExprKind::Sub:
    return __builtin_sub_overflow(A, B, &R) ? std::nullopt
                                            : std::optional<int64_t>(R);
  case ExprKind::Mul:
    return __builtin_mul_overflow(A, B, &R) ? std::nullopt
                                            : std::optional<int64_t>(R);
  case ExprKind::Div:
  case ExprKind::Mod:
    if (B == 0 || (A == INT64_MIN && B == -1))
      return std::nullopt;
    return Kind == ExprKind::Div ? A / B : A % B;
  default:
    return std::nullopt;
  }
}

bool logic::compare(ExprKind Kind, int64_t A, int64_t B) {
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
    assert(false && "compare() requires a comparison kind");
    return false;
  }
}

ExprKind logic::negateCmp(ExprKind Kind) {
  switch (Kind) {
  case ExprKind::Eq:
    return ExprKind::Ne;
  case ExprKind::Ne:
    return ExprKind::Eq;
  case ExprKind::Lt:
    return ExprKind::Ge;
  case ExprKind::Le:
    return ExprKind::Gt;
  case ExprKind::Gt:
    return ExprKind::Le;
  case ExprKind::Ge:
    return ExprKind::Lt;
  default:
    assert(false && "not a comparison kind");
    return Kind;
  }
}

size_t LogicContext::hash(const Key &K) {
  size_t H = std::hash<int>()(static_cast<int>(K.Kind));
  auto Mix = [&H](size_t V) {
    H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  };
  Mix(std::hash<int64_t>()(K.IntValue));
  Mix(std::hash<std::string_view>()(K.Name));
  for (ExprRef Op : K.Ops)
    Mix(std::hash<unsigned>()(Op->id()));
  // Spread the high bits into the low ones the table's mask keeps.
  H *= 0x9e3779b97f4a7c15ULL;
  return H ^ (H >> 32);
}

ExprRef LogicContext::Table::find(const Key &K, size_t Hash) const {
  for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
    ExprRef E = Slots[I].load(std::memory_order_acquire);
    if (!E || keyOf(E) == K)
      return E;
  }
}

void LogicContext::Table::insert(ExprRef E, size_t Hash) {
  size_t I = Hash & Mask;
  while (Slots[I].load(std::memory_order_relaxed))
    I = (I + 1) & Mask;
  Slots[I].store(E, std::memory_order_release);
}

LogicContext::LogicContext() : Published(&Tables.emplace_back(1024)) {
  False = make(ExprKind::BoolLit, 0, "", {});
  True = make(ExprKind::BoolLit, 1, "", {});
}

ExprRef LogicContext::make(ExprKind Kind, int64_t IntValue, std::string Name,
                           std::vector<ExprRef> Ops) {
  // The sole interning funnel. A hit takes no lock: a published slot
  // holds an immutable node forever, and a retired table stays alive,
  // so a reader racing a growth either finds its node there or falls
  // through to the locked path, which re-probes the current table.
  Key K{Kind, IntValue, Name, Ops};
  size_t H = hash(K);
  if (ExprRef E = Published.load(std::memory_order_acquire)->find(K, H))
    return E;
  std::lock_guard<std::mutex> L(InternM);
  Table *T = &Tables.back();
  if (ExprRef E = T->find(K, H))
    return E;
  if (2 * (Nodes.size() + 1) > T->Mask + 1) {
    T = &Tables.emplace_back(2 * (T->Mask + 1));
    for (const Expr &N : Nodes)
      T->insert(&N, hash(keyOf(&N)));
    Published.store(T, std::memory_order_release);
  }
  unsigned Size = 1;
  for (ExprRef Op : Ops)
    Size += Op->size();
  Nodes.emplace_back(Expr(Kind, IntValue, std::move(Name), std::move(Ops),
                          static_cast<unsigned>(Nodes.size()), Size));
  ExprRef E = &Nodes.back();
  T->insert(E, H);
  return E;
}

ExprRef LogicContext::intLit(int64_t Value) {
  return make(ExprKind::IntLit, Value, "", {});
}

ExprRef LogicContext::nullLit() { return make(ExprKind::NullLit, 0, "", {}); }

ExprRef LogicContext::var(const std::string &Name) {
  return make(ExprKind::Var, 0, Name, {});
}

ExprRef LogicContext::addrOf(ExprRef Loc) {
  assert(Loc->isLocation() && "can only take the address of a location");
  // &*p == p under the logical memory model.
  if (Loc->kind() == ExprKind::Deref)
    return Loc->op(0);
  return make(ExprKind::AddrOf, 0, "", {Loc});
}

ExprRef LogicContext::deref(ExprRef Ptr) {
  // *&x == x.
  if (Ptr->kind() == ExprKind::AddrOf)
    return Ptr->op(0);
  return make(ExprKind::Deref, 0, "", {Ptr});
}

ExprRef LogicContext::field(ExprRef Base, const std::string &FieldName) {
  return make(ExprKind::Field, 0, FieldName, {Base});
}

ExprRef LogicContext::index(ExprRef Base, ExprRef Idx) {
  return make(ExprKind::Index, 0, "", {Base, Idx});
}

// Constants fold only when the int64 result is defined; otherwise the
// node stays, and the prover's arithmetic poisons it (Unknown).

/// L op R when both are literals and the result is defined.
static std::optional<int64_t> fold(ExprKind Kind, ExprRef L, ExprRef R) {
  if (L->kind() != ExprKind::IntLit || R->kind() != ExprKind::IntLit)
    return std::nullopt;
  return arith(Kind, L->intValue(), R->intValue());
}

ExprRef LogicContext::neg(ExprRef E) {
  if (E->kind() == ExprKind::IntLit && E->intValue() != INT64_MIN)
    return intLit(-E->intValue());
  if (E->kind() == ExprKind::Neg)
    return E->op(0);
  return make(ExprKind::Neg, 0, "", {E});
}

ExprRef LogicContext::add(ExprRef L, ExprRef R) {
  if (std::optional<int64_t> Sum = fold(ExprKind::Add, L, R))
    return intLit(*Sum);
  if (L->kind() == ExprKind::IntLit && L->intValue() == 0)
    return R;
  if (R->kind() == ExprKind::IntLit && R->intValue() == 0)
    return L;
  return make(ExprKind::Add, 0, "", {L, R});
}

ExprRef LogicContext::sub(ExprRef L, ExprRef R) {
  if (std::optional<int64_t> Difference = fold(ExprKind::Sub, L, R))
    return intLit(*Difference);
  if (R->kind() == ExprKind::IntLit && R->intValue() == 0)
    return L;
  return make(ExprKind::Sub, 0, "", {L, R});
}

ExprRef LogicContext::mul(ExprRef L, ExprRef R) {
  if (std::optional<int64_t> Product = fold(ExprKind::Mul, L, R))
    return intLit(*Product);
  if (L->kind() == ExprKind::IntLit && L->intValue() == 1)
    return R;
  if (R->kind() == ExprKind::IntLit && R->intValue() == 1)
    return L;
  if ((L->kind() == ExprKind::IntLit && L->intValue() == 0) ||
      (R->kind() == ExprKind::IntLit && R->intValue() == 0))
    return intLit(0);
  return make(ExprKind::Mul, 0, "", {L, R});
}

ExprRef LogicContext::div(ExprRef L, ExprRef R) {
  if (std::optional<int64_t> Quotient = fold(ExprKind::Div, L, R))
    return intLit(*Quotient);
  if (R->kind() == ExprKind::IntLit && R->intValue() == 1)
    return L;
  return make(ExprKind::Div, 0, "", {L, R});
}

ExprRef LogicContext::mod(ExprRef L, ExprRef R) {
  if (std::optional<int64_t> Remainder = fold(ExprKind::Mod, L, R))
    return intLit(*Remainder);
  return make(ExprKind::Mod, 0, "", {L, R});
}

ExprRef LogicContext::boolLit(bool Value) { return Value ? True : False; }

ExprRef LogicContext::cmp(ExprKind Kind, ExprRef L, ExprRef R) {
  assert(isCmpKind(Kind) && "cmp() requires a comparison kind");
  // Fold comparisons of equal pure terms: they compare as equal values.
  if (L == R)
    return boolLit(compare(Kind, 0, 0));
  // Fold comparisons of integer constants.
  if (L->kind() == ExprKind::IntLit && R->kind() == ExprKind::IntLit)
    return boolLit(compare(Kind, L->intValue(), R->intValue()));
  return make(Kind, 0, "", {L, R});
}

ExprRef LogicContext::notE(ExprRef E) {
  assert(E->isFormula() && "! applies to formulas");
  if (E->kind() == ExprKind::BoolLit)
    return boolLit(!E->boolValue());
  if (E->kind() == ExprKind::Not)
    return E->op(0);
  if (isCmpKind(E->kind()))
    return cmp(negateCmp(E->kind()), E->op(0), E->op(1));
  return make(ExprKind::Not, 0, "", {E});
}

/// True if \p Ops holds some phi and notE(phi), matched by structure
/// (so that no negation is interned): x and Not(x), or a comparison and
/// the one of negated kind.
static bool hasComplementPair(const std::vector<ExprRef> &Ops) {
  for (ExprRef A : Ops)
    for (ExprRef B : Ops)
      if ((A->kind() == ExprKind::Not && A->op(0) == B) ||
          (isCmpKind(A->kind()) && B->kind() == negateCmp(A->kind()) &&
           A->op(0) == B->op(0) && A->op(1) == B->op(1)))
        return true;
  return false;
}

ExprRef LogicContext::andE(ExprRef L, ExprRef R) {
  return andE(std::vector<ExprRef>{L, R});
}

ExprRef LogicContext::andE(std::vector<ExprRef> Ops) {
  std::vector<ExprRef> Flat;
  for (ExprRef Op : Ops) {
    assert(Op->isFormula() && "&& applies to formulas");
    if (Op->isTrue())
      continue;
    if (Op->isFalse())
      return False;
    if (Op->kind() == ExprKind::And) {
      for (ExprRef Sub : Op->operands())
        if (std::find(Flat.begin(), Flat.end(), Sub) == Flat.end())
          Flat.push_back(Sub);
      continue;
    }
    if (std::find(Flat.begin(), Flat.end(), Op) == Flat.end())
      Flat.push_back(Op);
  }
  // A conjunction containing both phi and !phi is false.
  if (hasComplementPair(Flat))
    return False;
  if (Flat.empty())
    return True;
  if (Flat.size() == 1)
    return Flat.front();
  return make(ExprKind::And, 0, "", std::move(Flat));
}

ExprRef LogicContext::orE(ExprRef L, ExprRef R) {
  return orE(std::vector<ExprRef>{L, R});
}

ExprRef LogicContext::orE(std::vector<ExprRef> Ops) {
  std::vector<ExprRef> Flat;
  for (ExprRef Op : Ops) {
    assert(Op->isFormula() && "|| applies to formulas");
    if (Op->isFalse())
      continue;
    if (Op->isTrue())
      return True;
    if (Op->kind() == ExprKind::Or) {
      for (ExprRef Sub : Op->operands())
        if (std::find(Flat.begin(), Flat.end(), Sub) == Flat.end())
          Flat.push_back(Sub);
      continue;
    }
    if (std::find(Flat.begin(), Flat.end(), Op) == Flat.end())
      Flat.push_back(Op);
  }
  if (hasComplementPair(Flat))
    return True;
  if (Flat.empty())
    return False;
  if (Flat.size() == 1)
    return Flat.front();
  return make(ExprKind::Or, 0, "", std::move(Flat));
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

namespace {

/// Binding strengths for parenthesization; higher binds tighter.
enum Prec {
  PrecOr = 1,
  PrecAnd = 2,
  PrecCmp = 3,
  PrecAdd = 4,
  PrecMul = 5,
  PrecUnary = 6,
  PrecPostfix = 7,
};

int precedenceOf(ExprKind Kind) {
  switch (Kind) {
  case ExprKind::Or:
    return PrecOr;
  case ExprKind::And:
    return PrecAnd;
  case ExprKind::Eq:
  case ExprKind::Ne:
  case ExprKind::Lt:
  case ExprKind::Le:
  case ExprKind::Gt:
  case ExprKind::Ge:
    return PrecCmp;
  case ExprKind::Add:
  case ExprKind::Sub:
    return PrecAdd;
  case ExprKind::Mul:
  case ExprKind::Div:
  case ExprKind::Mod:
    return PrecMul;
  case ExprKind::Not:
  case ExprKind::Neg:
  case ExprKind::Deref:
  case ExprKind::AddrOf:
    return PrecUnary;
  case ExprKind::Field:
  case ExprKind::Index:
    return PrecPostfix;
  default:
    return 100; // Atoms never need parens.
  }
}

const char *binaryOpText(ExprKind Kind) {
  switch (Kind) {
  case ExprKind::Add:
    return " + ";
  case ExprKind::Sub:
    return " - ";
  case ExprKind::Mul:
    return " * ";
  case ExprKind::Div:
    return " / ";
  case ExprKind::Mod:
    return " % ";
  case ExprKind::Eq:
    return " == ";
  case ExprKind::Ne:
    return " != ";
  case ExprKind::Lt:
    return " < ";
  case ExprKind::Le:
    return " <= ";
  case ExprKind::Gt:
    return " > ";
  case ExprKind::Ge:
    return " >= ";
  default:
    assert(false && "not a binary operator");
    return "?";
  }
}

void print(const Expr *E, int ParentPrec, std::string &Out) {
  int Prec = precedenceOf(E->kind());
  bool Paren = Prec < ParentPrec;
  if (Paren)
    Out += '(';
  switch (E->kind()) {
  case ExprKind::IntLit:
    Out += std::to_string(E->intValue());
    break;
  case ExprKind::NullLit:
    Out += "NULL";
    break;
  case ExprKind::BoolLit:
    Out += E->boolValue() ? "true" : "false";
    break;
  case ExprKind::Var:
    Out += E->name();
    break;
  case ExprKind::AddrOf:
    Out += '&';
    print(E->op(0), PrecUnary, Out);
    break;
  case ExprKind::Deref:
    Out += '*';
    print(E->op(0), PrecUnary, Out);
    break;
  case ExprKind::Field:
    // Render Field(Deref(p), f) as p->f, anything else as base.f.
    if (E->op(0)->kind() == ExprKind::Deref) {
      print(E->op(0)->op(0), PrecPostfix, Out);
      Out += "->";
    } else {
      print(E->op(0), PrecPostfix, Out);
      Out += '.';
    }
    Out += E->name();
    break;
  case ExprKind::Index:
    print(E->op(0), PrecPostfix, Out);
    Out += '[';
    print(E->op(1), 0, Out);
    Out += ']';
    break;
  case ExprKind::Neg:
    Out += '-';
    print(E->op(0), PrecUnary, Out);
    break;
  case ExprKind::Not:
    Out += '!';
    print(E->op(0), PrecUnary, Out);
    break;
  case ExprKind::And:
  case ExprKind::Or: {
    bool IsAnd = E->kind() == ExprKind::And;
    const char *Sep = IsAnd ? " && " : " || ";
    // Operands of || that are && get parentheses for readability even
    // though C precedence would not require them.
    int ChildPrec = IsAnd ? Prec + 1 : PrecCmp;
    for (unsigned I = 0; I != E->numOperands(); ++I) {
      if (I != 0)
        Out += Sep;
      print(E->op(I), ChildPrec, Out);
    }
    break;
  }
  default:
    print(E->op(0), Prec + 1, Out);
    Out += binaryOpText(E->kind());
    print(E->op(1), Prec + 1, Out);
    break;
  }
  if (Paren)
    Out += ')';
}

} // namespace

std::string Expr::str() const {
  std::string Out;
  print(this, 0, Out);
  return Out;
}
