//===- ProverCache.h - Shared cross-worker query cache ----------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The prover's one satisfiability-query cache (Section 5.2's caching,
/// extended across threads — prover-call volume is the cost the paper
/// and its successors engineer around). It is shared by all worker
/// provers of an abstraction run, so a cube implication discharged on
/// one worker is a cache hit on every other; a Prover given none owns
/// one.
///
/// Three design points:
///
///   * **Sharded + mutex-striped.** Entries are distributed over a fixed
///     set of shards by the stable hash-consed id of the queried
///     formula; each shard has its own mutex, so writers on different
///     shards never contend.
///
///   * **Negation-canonical.** checkSat(phi) and checkSat(!phi) are
///     issued in validity pairs by the cube search (F(phi) next to
///     F(!phi)). An entry is keyed on the negation-stripped base
///     formula and holds one slot per polarity; publishing Unsat for
///     one polarity derives Sat for the other (phi unsatisfiable =>
///     !phi valid => !phi satisfiable), so half of each pair is often
///     answered without a prover call.
///
///   * **Single-flight.** A worker that starts deciding a query marks
///     its slot in-flight; a second worker asking the same query blocks
///     on the shard's condition variable instead of burning a duplicate
///     prover call, and is woken with the published result. A miss
///     hands the caller a Reservation — an RAII claim on the in-flight
///     slot. Publishing through it fills the slot; destroying it
///     unpublished (an exception, an early return) abandons the slot
///     back to Empty and wakes waiters so they can re-reserve, instead
///     of deadlocking them on a result that will never come.
///
//===----------------------------------------------------------------------===//

#ifndef PROVER_PROVERCACHE_H
#define PROVER_PROVERCACHE_H

#include "logic/Expr.h"
#include "prover/Model.h"

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace slam {
namespace prover {

enum class Satisfiability; // From Prover.h (included by users of both).

/// Shared, sharded satisfiability cache. Bound to one LogicContext:
/// keys are interned expression nodes of that context.
class SharedProverCache {
public:
  /// How a lookup was (or was not) answered.
  enum class Outcome {
    Miss,    ///< Not cached; the caller holds the slot and must publish.
    Hit,     ///< Answered from a completed in-memory entry.
    NegHit,  ///< Answered from the opposite polarity's Unsat result.
    WaitHit, ///< Answered after blocking on another worker's in-flight call.
  };

  /// RAII claim on an in-flight slot. Exactly one of two things happens
  /// to a reservation: publish() fills the slot and wakes waiters, or
  /// destruction abandons it — the slot returns to Empty and waiters
  /// are woken to re-reserve. Movable, not copyable.
  class Reservation {
  public:
    Reservation() = default;
    Reservation(Reservation &&O) noexcept
        : Cache(std::exchange(O.Cache, nullptr)), Phi(O.Phi) {}
    Reservation &operator=(Reservation &&O) noexcept {
      if (this != &O) {
        abandon();
        Cache = std::exchange(O.Cache, nullptr);
        Phi = O.Phi;
      }
      return *this;
    }
    ~Reservation() { abandon(); }

    /// True while the slot is held (i.e. publish is still owed).
    explicit operator bool() const { return Cache != nullptr; }

    /// Publishes \p Result, with the verified model \p Witness of a
    /// Sat (or null), into the reserved slot, wakes waiters, and
    /// releases the claim. The cache keeps the model for its lifetime.
    void publish(Satisfiability Result,
                 std::unique_ptr<const Model> Witness = nullptr);

  private:
    friend class SharedProverCache;
    Reservation(SharedProverCache *Cache, logic::ExprRef Phi)
        : Cache(Cache), Phi(Phi) {}
    void abandon();

    SharedProverCache *Cache = nullptr;
    logic::ExprRef Phi = nullptr;
  };

  struct Lookup {
    Outcome Kind;
    Satisfiability Value; ///< Meaningful unless Kind == Miss.
    Reservation Slot;     ///< Engaged exactly when Kind == Miss.
    /// The model published with a computed Sat; null for a NegHit.
    const Model *Witness = nullptr;
  };

  /// Looks \p Phi up. A Miss returns an engaged Reservation the caller
  /// publishes through; all other outcomes carry the answer.
  Lookup lookupOrReserve(logic::ExprRef Phi);

private:
  enum class SlotState : uint8_t { Empty, InFlight, Done };

  struct Entry {
    SlotState State[2] = {SlotState::Empty, SlotState::Empty};
    Satisfiability Value[2];
    /// Set when the slot was filled by negation derivation rather than
    /// a prover call; hits on such slots are reported distinctly.
    bool Derived[2] = {false, false};
    std::unique_ptr<const Model> Witness[2];
  };

  struct Shard {
    std::mutex M;
    std::condition_variable Cv;
    std::unordered_map<logic::ExprRef, Entry> Map;
  };

  static constexpr size_t NumShards = 16;

  /// Strips a top-level negation: returns the base formula and whether
  /// the query was the positive polarity. The logic context pushes !
  /// through comparisons and folds double negation, so at most one Not
  /// survives at the root.
  static std::pair<logic::ExprRef, bool> canonicalize(logic::ExprRef Phi);

  Shard &shardFor(logic::ExprRef Base) {
    return Shards[Base->id() % NumShards];
  }

  /// Fills the slot for \p Phi with \p Result and wakes waiters.
  void publishImpl(logic::ExprRef Phi, Satisfiability Result,
                   std::unique_ptr<const Model> Witness);
  void abandonImpl(logic::ExprRef Phi);

  Shard Shards[NumShards];
};

} // namespace prover
} // namespace slam

#endif // PROVER_PROVERCACHE_H
