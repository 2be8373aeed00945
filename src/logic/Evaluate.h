//===- Evaluate.h - Concrete evaluation of the predicate logic --*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one evaluator of logic expressions over concrete values. The
/// prover's models (prover/Model.h) and the reference interpreter
/// (cfront/Interp.h) both use it, so a predicate means the same in the
/// prover's theory as in a concrete C state (Section 4). It owns the
/// literals, arithmetic (logic::arith), comparisons (logic::compare) and
/// connectives; a Store answers the leaves (Var, Deref, Field, Index and
/// AddrOf). Operands are evaluated left to right, and there are two
/// ways to fail:
///   * Poison: an overflow, a division by zero, or a store's own poison
///     (a model's broken address axiom, or its fresh values running
///     out). Poison ends the evaluation at once with no value.
///   * Undefined: a leaf the store cannot resolve (in the interpreter, a
///     NULL or dangling dereference, an unknown name, an index out of
///     range, a whole struct or array), or arithmetic or ordering on a
///     pointer. `&&` and `||` evaluate every operand and still decide on
///     a defined deciding one (Kleene's three-valued logic); any other
///     operator is undefined at its first undefined operand.
/// Values are typed, so a pointer is never silently an integer; NULL
/// equals the integer 0. Formulas evaluate to the integers 0 and 1.
///
//===----------------------------------------------------------------------===//

#ifndef LOGIC_EVALUATE_H
#define LOGIC_EVALUATE_H

#include "logic/Expr.h"

#include <cstdint>

namespace slam {
namespace logic {

/// A concrete value: an integer or a pointer (an object id; 0 = NULL).
struct Value {
  enum class Kind : uint8_t { Int, Ptr };

  int64_t I = 0;
  int Obj = 0;
  Kind K = Kind::Int;

  static Value makeInt(int64_t V) { return {V, 0, Kind::Int}; }
  static Value makePtr(int Obj) { return {0, Obj, Kind::Ptr}; }
  static Value null() { return makePtr(0); }

  bool isNull() const { return K == Kind::Ptr && Obj == 0; }

  bool operator==(const Value &O) const {
    if (K != O.K) // NULL equals the integer 0 (SIL-C's null constant).
      return (isNull() && O.I == 0) || (O.isNull() && I == 0);
    return K == Kind::Int ? I == O.I : Obj == O.Obj;
  }
};

/// The outcome of one evaluation: a value, or the way it failed.
struct Result {
  enum class Status : uint8_t { Defined, Undefined, Poison };

  Value V;
  Status S = Status::Defined;

  static Result of(Value V) { return {V, Status::Defined}; }
  static Result undefined() { return {{}, Status::Undefined}; }
  static Result poison() { return {{}, Status::Poison}; }

  bool defined() const { return S == Status::Defined; }
};

/// Where the leaves of an evaluation get their values.
class Store {
public:
  /// The value of \p App, a Var, Deref, Field, Index or AddrOf
  /// application. A store evaluates the operands it needs with
  /// logic::evaluate and passes their failures on.
  virtual Result leaf(ExprRef App) = 0;

  /// True if pointers are integers, as in the prover's theory: NULL is
  /// then the integer 0, else the null pointer.
  bool NullIsZero;

protected:
  explicit Store(bool NullIsZero) : NullIsZero(NullIsZero) {}
  ~Store() = default;
};

/// The value of the term or formula \p E, with its leaves from \p S.
Result evaluate(ExprRef E, Store &S);

} // namespace logic
} // namespace slam

#endif // LOGIC_EVALUATE_H
