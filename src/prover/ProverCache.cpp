//===- ProverCache.cpp - Shared cross-worker query cache ------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "prover/ProverCache.h"

#include "prover/Prover.h"

#include <cassert>

using namespace slam;
using namespace slam::prover;
using logic::ExprKind;
using logic::ExprRef;

std::pair<ExprRef, bool> SharedProverCache::canonicalize(ExprRef Phi) {
  if (Phi->kind() == ExprKind::Not)
    return {Phi->op(0), false};
  return {Phi, true};
}

SharedProverCache::Lookup SharedProverCache::lookupOrReserve(ExprRef Phi) {
  auto [Base, Positive] = canonicalize(Phi);
  int Slot = Positive ? 0 : 1;
  Shard &S = shardFor(Base);

  {
    std::unique_lock<std::mutex> L(S.M);
    Entry &E = S.Map[Base];
    bool Waited = false;
    while (E.State[Slot] == SlotState::InFlight) {
      // Another worker is deciding this exact query; ride its
      // coattails. Waking to an Empty slot means that worker abandoned
      // its reservation — fall through and claim it ourselves.
      S.Cv.wait(L);
      Waited = true;
    }
    if (E.State[Slot] == SlotState::Done) {
      Outcome Kind = Waited           ? Outcome::WaitHit
                     : E.Derived[Slot] ? Outcome::NegHit
                                       : Outcome::Hit;
      return {Kind, E.Value[Slot], Reservation(), E.Witness[Slot].get()};
    }
    E.State[Slot] = SlotState::InFlight;
  }

  return {Outcome::Miss, Satisfiability::Unknown, Reservation(this, Phi)};
}

void SharedProverCache::publishImpl(ExprRef Phi, Satisfiability Result,
                                    std::unique_ptr<const Model> Witness) {
  auto [Base, Positive] = canonicalize(Phi);
  int Slot = Positive ? 0 : 1;
  Shard &S = shardFor(Base);
  {
    std::lock_guard<std::mutex> L(S.M);
    Entry &E = S.Map[Base];
    E.State[Slot] = SlotState::Done;
    E.Value[Slot] = Result;
    E.Derived[Slot] = false;
    E.Witness[Slot] = std::move(Witness);
    // phi unsatisfiable => !phi valid => !phi satisfiable. The converse
    // direction gives nothing (Sat tells us nothing about the negation),
    // and an Unknown must not poison the other polarity.
    int Other = 1 - Slot;
    if (Result == Satisfiability::Unsat &&
        E.State[Other] == SlotState::Empty) {
      E.State[Other] = SlotState::Done;
      E.Value[Other] = Satisfiability::Sat;
      E.Derived[Other] = true;
    }
  }
  S.Cv.notify_all();
}

void SharedProverCache::abandonImpl(ExprRef Phi) {
  auto [Base, Positive] = canonicalize(Phi);
  int Slot = Positive ? 0 : 1;
  Shard &S = shardFor(Base);
  {
    std::lock_guard<std::mutex> L(S.M);
    Entry &E = S.Map[Base];
    assert(E.State[Slot] == SlotState::InFlight &&
           "abandoning a slot we do not hold");
    E.State[Slot] = SlotState::Empty;
  }
  S.Cv.notify_all();
}

void SharedProverCache::Reservation::publish(
    Satisfiability Result, std::unique_ptr<const Model> Witness) {
  assert(Cache && "publishing through an empty reservation");
  SharedProverCache *C = std::exchange(Cache, nullptr);
  C->publishImpl(Phi, Result, std::move(Witness));
}

void SharedProverCache::Reservation::abandon() {
  if (SharedProverCache *C = std::exchange(Cache, nullptr))
    C->abandonImpl(Phi);
}

