//===- CongruenceClosure.h - EUF decision procedure -------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Congruence closure over uninterpreted terms — the equality half of the
/// Nelson–Oppen combination (Section 4.1 relies on a prover for the
/// theory of equality with uninterpreted functions plus linear
/// arithmetic). Terms are logic::Expr nodes; every operator (including
/// the arithmetic ones, which the Simplex side interprets) is treated as
/// an uninterpreted function here, which is sound and lets congruence
/// derive facts like p == q  ==>  p->f == q->f — exactly the
/// contrapositive aliasing rule of the paper's footnote 3.
///
/// Terms are found by their dense Expr::id() and signatures are
/// fixed-size integer records; clear() keeps all storage for reuse.
///
//===----------------------------------------------------------------------===//

#ifndef PROVER_CONGRUENCECLOSURE_H
#define PROVER_CONGRUENCECLOSURE_H

#include "logic/Expr.h"

#include <vector>

namespace slam {
namespace prover {

/// Union-find based congruence closure with use-lists.
class CongruenceClosure {
public:
  /// Forgets every term, equality and disequality.
  void clear();

  /// Registers \p E (and its subterms) and returns its node id. Adding
  /// the same expression twice returns the same id. Terms have at most
  /// two operands.
  int addTerm(logic::ExprRef E);

  /// Asserts A == B and propagates congruence. Returns false if this
  /// contradicts an asserted disequality.
  bool assertEqual(int A, int B);

  /// Asserts A != B. Returns false if A and B are already equal.
  bool assertDisequal(int A, int B);

  bool areEqual(int A, int B) { return find(A) == find(B); }

  /// Representative node id of A's class.
  int find(int A);

  int numTerms() const { return static_cast<int>(Terms.size()); }

  /// True if some asserted disequality has been violated.
  bool inConflict() const { return Conflict; }

private:
  struct Term {
    logic::ExprRef E;
    int Kid0, Kid1; ///< Operand terms; -1 if absent.
    int Parent, Rank;
  };
  /// A function application's signature: the symbol (kind and name) of
  /// Term and its children's representatives (Kid1 is -1 for unary
  /// terms). Leaves are their own classes and have none.
  struct Signature {
    int Term, Kid0, Kid1;
  };

  Signature signatureOf(int Id);
  bool mergeClasses(int A, int B);
  bool checkDisequalities();
  /// The term stored under \p S's key, or -1 after storing \p S.
  int findOrInsertSignature(const Signature &S);
  /// Index of the table's entry for \p S's key, or -1.
  int findSignature(const Signature &S) const;

  std::vector<Term> Terms;
  /// Terms that have a child in a given class representative.
  std::vector<std::vector<int>> Uses;
  logic::ExprIdMap Ids;
  /// The signature table; a few dozen terms at most, so a flat array.
  std::vector<Signature> Signatures;
  std::vector<std::pair<int, int>> Disequalities;
  std::vector<std::pair<int, int>> Pending; // mergeClasses' FIFO.
  bool Conflict = false;
};

} // namespace prover
} // namespace slam

#endif // PROVER_CONGRUENCECLOSURE_H
