//===- CongruenceClosure.cpp ----------------------------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "prover/CongruenceClosure.h"

using namespace slam;
using namespace slam::prover;
using logic::ExprRef;

void CongruenceClosure::clear() {
  for (int I = 0; I != numTerms(); ++I)
    Uses[I].clear();
  Terms.clear();
  Ids.clear();
  Signatures.clear();
  Disequalities.clear();
  Conflict = false;
}

int CongruenceClosure::addTerm(ExprRef E) {
  int Known = Ids.lookup(E);
  if (Known >= 0)
    return Known;

  assert(E->numOperands() <= 2 && "terms have at most two operands");
  int Kid0 = E->numOperands() > 0 ? addTerm(E->op(0)) : -1;
  int Kid1 = E->numOperands() > 1 ? addTerm(E->op(1)) : -1;
  int Id = static_cast<int>(Terms.size());
  Terms.push_back({E, Kid0, Kid1, Id, 0});
  if (Uses.size() == Terms.size() - 1)
    Uses.emplace_back();
  Ids.insert(E, Id);
  if (Kid0 < 0)
    return Id; // A leaf is its own class.

  Uses[find(Kid0)].push_back(Id);
  if (Kid1 >= 0)
    Uses[find(Kid1)].push_back(Id);
  // Congruence at creation: if a term with the same signature already
  // exists, the two are equal.
  int Existing = findOrInsertSignature(signatureOf(Id));
  if (Existing >= 0 && !areEqual(Existing, Id))
    mergeClasses(Existing, Id);
  return Id;
}

int CongruenceClosure::find(int A) {
  while (Terms[A].Parent != A) {
    Terms[A].Parent = Terms[Terms[A].Parent].Parent;
    A = Terms[A].Parent;
  }
  return A;
}

CongruenceClosure::Signature CongruenceClosure::signatureOf(int Id) {
  const Term &T = Terms[Id];
  return {Id, find(T.Kid0), T.Kid1 < 0 ? -1 : find(T.Kid1)};
}

int CongruenceClosure::findSignature(const Signature &S) const {
  for (size_t I = 0; I != Signatures.size(); ++I) {
    const Signature &T = Signatures[I];
    ExprRef A = Terms[T.Term].E, B = Terms[S.Term].E;
    if (T.Kid0 == S.Kid0 && T.Kid1 == S.Kid1 && A->kind() == B->kind() &&
        A->name() == B->name())
      return static_cast<int>(I);
  }
  return -1;
}

int CongruenceClosure::findOrInsertSignature(const Signature &S) {
  int I = findSignature(S);
  if (I >= 0)
    return Signatures[I].Term;
  Signatures.push_back(S);
  return -1;
}

bool CongruenceClosure::mergeClasses(int A, int B) {
  Pending.clear();
  Pending.emplace_back(A, B);

  for (size_t Next = 0; Next != Pending.size(); ++Next) {
    auto [X, Y] = Pending[Next];
    int RX = find(X), RY = find(Y);
    if (RX == RY)
      continue;
    if (Terms[RX].Rank < Terms[RY].Rank)
      std::swap(RX, RY);
    else if (Terms[RX].Rank == Terms[RY].Rank)
      ++Terms[RX].Rank;

    // RY joins RX. Any term using a member of RY changes signature.
    for (int Term : Uses[RY]) {
      if (int I = findSignature(signatureOf(Term)); I >= 0) {
        Signatures[I] = Signatures.back();
        Signatures.pop_back();
      }
    }
    Terms[RY].Parent = RX;
    for (int Term : Uses[RY]) {
      int Existing = findOrInsertSignature(signatureOf(Term));
      if (Existing >= 0 && !areEqual(Existing, Term))
        Pending.emplace_back(Existing, Term);
    }
    Uses[RX].insert(Uses[RX].end(), Uses[RY].begin(), Uses[RY].end());
    Uses[RY].clear();
  }
  return checkDisequalities();
}

bool CongruenceClosure::checkDisequalities() {
  for (const auto &[A, B] : Disequalities) {
    if (find(A) == find(B)) {
      Conflict = true;
      return false;
    }
  }
  return true;
}

bool CongruenceClosure::assertEqual(int A, int B) {
  if (Conflict)
    return false;
  if (find(A) == find(B))
    return checkDisequalities();
  return mergeClasses(A, B);
}

bool CongruenceClosure::assertDisequal(int A, int B) {
  if (Conflict)
    return false;
  Disequalities.emplace_back(A, B);
  if (find(A) == find(B)) {
    Conflict = true;
    return false;
  }
  return true;
}
