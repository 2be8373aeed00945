//===- Model.h - Concrete models of the predicate logic ---------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A concrete interpretation of the predicate logic over int64, used to
/// check that a satisfying assignment the theory solver proposes really
/// is a model. A checked model is a witness: it refutes every later
/// implication `c => phi` whose cube c it satisfies while falsifying phi,
/// so the cube search can skip that prover call (CubeSearch.h).
///
/// A Model is logic::evaluate's store (logic/Evaluate.h) for the
/// prover's own theory (Theory.h): Var, Deref, Field, Index and AddrOf
/// are functions, keyed by their symbol (the variable or field name) and
/// their argument values, so congruence holds by construction; NULL is
/// 0, every address is positive, and the addresses of distinct variables
/// differ. Every failure in a model poisons: an overflow, a division by
/// zero, a broken address axiom, or fresh values running out. Such a
/// formula or term has no value (std::nullopt). Since the prover's Unsat
/// is sound for this theory, a query true in a Model is never Unsat.
///
/// Evaluating an application the model does not define extends the model
/// with a fresh value (larger than every value it holds), so one model
/// can answer formulas over terms its query never mentioned.
///
//===----------------------------------------------------------------------===//

#ifndef PROVER_MODEL_H
#define PROVER_MODEL_H

#include "logic/Evaluate.h"

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace slam {
namespace prover {

class Model : private logic::Store {
public:
  Model() : Store(/*NullIsZero=*/true) {}

  /// Makes the application \p App (a Var, Deref, Field, Index or AddrOf)
  /// take \p Value at its arguments' values in this model. Returns false
  /// if the model already gives it another value, if an argument has no
  /// value, or if an address axiom breaks.
  bool define(logic::ExprRef App, int64_t Value);

  /// The value of the term \p E, or nullopt.
  std::optional<int64_t> value(logic::ExprRef E);

  /// The truth of the formula \p F, or nullopt. A connective does not
  /// short-circuit on a deciding operand: every term of \p F is checked
  /// against the axioms up to the first that has no value.
  std::optional<bool> holds(logic::ExprRef F);

  /// Keeps every later fresh value above |\p Value|.
  void reserve(int64_t Value);

  /// A value no term of the model has yet (positive, so it may also be
  /// an address), or nullopt once the values grow too large.
  std::optional<int64_t> fresh();

private:
  logic::Result leaf(logic::ExprRef App) override;

  /// One point of a function: App's symbol at (Arg0, Arg1).
  struct Entry {
    logic::ExprRef App;
    int64_t Arg0, Arg1, Value;
  };

  /// The value of \p App at its arguments' values: the model's, else
  /// \p Want (or a fresh value) entered into it. nullopt if an argument
  /// has no value, the model's value is not \p Want, or an address
  /// axiom breaks.
  std::optional<int64_t> apply(logic::ExprRef App,
                               std::optional<int64_t> Want);
  /// The entry for \p App at the given arguments, or null.
  Entry *find(logic::ExprRef App, int64_t Arg0, int64_t Arg1);
  /// Evaluates App's arguments into \p Args; false if one has no value.
  bool arguments(logic::ExprRef App, int64_t (&Args)[2]);
  /// Checks the address axioms for \p App taking \p Value.
  bool addressOk(logic::ExprRef App, int64_t Value);

  std::vector<Entry> Table;
  /// (variable, address) for every `&x` evaluated so far.
  std::vector<std::pair<logic::ExprRef, int64_t>> Addresses;
  /// The next fresh value: above every value in Table.
  int64_t NextFresh = FreshStride;

  /// Fresh values are this far apart, so small offsets of one (p + 1)
  /// do not land on another.
  static constexpr int64_t FreshStride = 1 << 12;
};

} // namespace prover
} // namespace slam

#endif // PROVER_MODEL_H
