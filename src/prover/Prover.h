//===- Prover.h - Validity checking for the abstraction ---------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The theorem-prover interface C2bp depends on (Section 4.1): deciding
/// whether `cube => phi` is valid. Plays the role of Simplify/Vampyre in
/// the paper's implementation. Internally a lazy-SMT loop: a DPLL
/// enumeration of the boolean skeleton, with each candidate model's atom
/// conjunction decided by the Prover's own TheorySolver (EUF+LIA), and a
/// greedily minimized conflict core fed back as a blocking clause.
///
/// All query results are cached (Section 5.2, optimization five), and
/// every query goes through one SharedProverCache: the one the caller
/// injects (shared by the worker provers of an abstraction run), or
/// else one the Prover owns. The cache is negation-canonical, so the
/// UNSAT(phi) half of a validity pair answers the UNSAT(!phi) half for
/// free whenever phi was unsatisfiable. Each worker remains
/// single-threaded and owns its Prover exclusively.
///
/// The caller's statistics registry is the only record of the work:
/// `prover.calls` counts non-cached satisfiability decisions (the
/// "theorem prover calls" column of Tables 1 and 2), and
/// `prover.cache_hits` / `prover.neg_cache_hits` count the exact-entry
/// and opposite-polarity cache hits. A cube check the cube search
/// answers from a witness (witness()) never reaches the Prover and
/// counts in none of them, only in `c2bp.witness_hits`.
///
//===----------------------------------------------------------------------===//

#ifndef PROVER_PROVER_H
#define PROVER_PROVER_H

#include "logic/Expr.h"
#include "prover/ProverCache.h"
#include "prover/Theory.h"
#include "support/Stats.h"

#include <memory>

namespace slam {
namespace prover {

/// Result of a validity query. Unknown means the prover could not
/// decide (search budget exhausted); the abstraction treats Unknown
/// like Invalid, which is conservative and sound.
enum class Validity { Valid, Invalid, Unknown };

/// Result of a satisfiability query.
enum class Satisfiability { Sat, Unsat, Unknown };

/// A caching validity/satisfiability checker over the predicate logic.
/// Not thread-safe itself: a parallel run gives each worker its own
/// Prover, sharing results only through an (internally synchronized)
/// SharedProverCache.
class Prover {
public:
  /// \p Shared, when non-null, must outlive the Prover; without it the
  /// Prover caches into a SharedProverCache of its own.
  explicit Prover(logic::LogicContext &Ctx, StatsRegistry *Stats = nullptr,
                  SharedProverCache *Shared = nullptr);

  /// Is `Antecedent => Consequent` valid?
  Validity implies(logic::ExprRef Antecedent, logic::ExprRef Consequent);

  /// Is \p Phi satisfiable?
  Satisfiability checkSat(logic::ExprRef Phi);

  /// The verified model behind the last checkSat's Sat (implies's
  /// Invalid), or null: a theory Sat whose model failed the check, and a
  /// Sat derived from the opposite polarity's Unsat, come without one.
  /// A cache hit gives the model the computing call found, so the
  /// answer is the same whichever worker computed it. Owned by the cache.
  const Model *witness() const { return LastWitness; }

private:
  Satisfiability checkSatUncached(logic::ExprRef Phi,
                                  std::unique_ptr<const Model> &Found);

  /// Counts a non-Miss cache outcome into the right counters
  /// (prover.cache_hits / neg_cache_hits) and returns its value.
  Satisfiability noteCacheHit(SharedProverCache::Outcome Kind,
                              Satisfiability Value);

  /// checkSatUncached plus observability: a "prover.query" trace span,
  /// a sample in the prover.query_us latency histogram, and the
  /// slow-query log (trace::slowQueryMillis).
  Satisfiability timedCheck(logic::ExprRef Phi,
                            std::unique_ptr<const Model> &Found);

  logic::LogicContext &Ctx;
  StatsRegistry *Stats;
  /// Set only when no cache was injected.
  std::unique_ptr<SharedProverCache> OwnedCache;
  SharedProverCache &Cache;
  TheorySolver Theory;
  logic::ExprIdMap AtomVars; ///< The skeleton encoder's atom numbering.
  const Model *LastWitness = nullptr;
  /// Antecedent/consequent of the implication currently being decided
  /// (set by implies() so the slow-query log can print the implication
  /// rather than its desugared satisfiability query). The Prover is
  /// single-threaded, so plain members suffice.
  logic::ExprRef CurAntecedent = nullptr;
  logic::ExprRef CurConsequent = nullptr;
};

} // namespace prover
} // namespace slam

#endif // PROVER_PROVER_H
