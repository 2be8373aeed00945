//===- Theory.h - Nelson–Oppen combination of EUF and LIA -------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decides satisfiability of conjunctions of comparison literals over the
/// predicate language by combining congruence closure (equality with
/// uninterpreted functions) and Simplex (linear integer arithmetic) with
/// bidirectional equality propagation — the architecture of the
/// Nelson–Oppen provers (Simplify, Vampyre) the paper builds on.
///
/// Built-in axioms of the memory model:
///   * distinct integer literals are distinct;
///   * NULL equals the integer 0;
///   * addresses of distinct variables are distinct;
///   * the address of a variable is neither NULL nor 0.
///
/// The procedure is sound for Unsat answers; a Sat answer may be
/// approximate (the combination is propagation-based, not exhaustive),
/// which the abstraction tolerates by conservatively weakening — exactly
/// the paper's treatment of incomplete provers.
///
/// A TheorySolver clears its buffers between checks instead of freeing
/// them, so once warmed up a check allocates nothing.
///
//===----------------------------------------------------------------------===//

#ifndef PROVER_THEORY_H
#define PROVER_THEORY_H

#include "logic/Expr.h"
#include "prover/CongruenceClosure.h"
#include "prover/Simplex.h"

#include <vector>

namespace slam {
namespace prover {

/// A theory literal: a comparison atom with a polarity.
struct Literal {
  logic::ExprRef Atom;
  bool Positive;
};

enum class TheoryResult { Sat, Unsat, Unknown };

/// Decides conjunctions of literals, reusing its buffers across checks.
/// Not thread-safe: each Prover owns one.
class TheorySolver {
public:
  /// Decides the conjunction of \p Literals.
  TheoryResult check(const std::vector<Literal> &Literals);

private:
  /// A linear combination in Arena[Begin, End), sorted by variable.
  struct Span {
    size_t Begin, End;
  };

  /// Linearizes a term into unit-var + leaf-var coefficients. Leaves
  /// (variables, derefs, fields, indices, address-ofs, non-linear
  /// operators) become LIA variables shared with the EUF side.
  Span linearize(logic::ExprRef E);
  Span combine(Span L, Span R, bool Negate); ///< L + R or L - R.
  /// Diff := the linearization of A - B.
  const LinearExpr &difference(logic::ExprRef A, logic::ExprRef B);
  int leafVar(logic::ExprRef E);

  /// Adds a literal's arithmetic meaning to LIA; negative equalities are
  /// deferred to the split check. Returns false on infeasibility.
  bool addAtomToLIA(logic::ExprRef Atom, bool Positive);
  void collectConstantsAndAddrs(logic::ExprRef E);

  static constexpr int UnitVar = 0;

  CongruenceClosure CC;
  Simplex LIA;
  logic::ExprIdMap LeafVars;
  std::vector<logic::ExprRef> LeafOrder;
  std::vector<logic::ExprRef> ConstantTerms;
  std::vector<logic::ExprRef> AddrOfVarTerms;
  std::vector<std::pair<logic::ExprRef, logic::ExprRef>> Disequalities;
  std::vector<LinearTerm> Arena; ///< linearize()'s scratch.
  LinearExpr Diff;               ///< Argument buffer for the Simplex.
  bool SawUnknown = false;
};

} // namespace prover
} // namespace slam

#endif // PROVER_THEORY_H
