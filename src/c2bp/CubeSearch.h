//===- CubeSearch.h - The F_V / G_V computations ----------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 4.1's strengthening: F_V(phi) is the largest disjunction of
/// cubes over the boolean variables V whose concretizations imply phi;
/// G_V(phi) = !F_V(!phi) is the corresponding weakening. Each cube
/// check is one theorem-prover call, so this module carries the
/// optimizations of Section 5.2:
///
///   1. cubes enumerated by increasing length, pruning supersets of
///      found implicants and of cubes implying !phi (so the result is a
///      disjunction of prime implicants);
///   3. a syntactic cone-of-influence pass shrinking V per query;
///   4. a syntactic fast path (phi or !phi textually in E(V));
///   5. result caching, done one layer down: every implication goes
///      through the run's shared prover cache, so a repeated (cube, phi)
///      check is a cache hit rather than a prover call;
///   k. an optional maximum cube length (precision/speed trade-off —
///      the paper reports k = 3 suffices in most cases).
///
//===----------------------------------------------------------------------===//

#ifndef C2BP_CUBESEARCH_H
#define C2BP_CUBESEARCH_H

#include "logic/AliasOracle.h"
#include "logic/Expr.h"
#include "prover/Prover.h"
#include "support/Stats.h"

#include <vector>

namespace slam {
namespace c2bp {

/// One literal of a cube: an index into V plus a polarity.
struct CubeLit {
  int Var;
  bool Positive;
  bool operator==(const CubeLit &O) const {
    return Var == O.Var && Positive == O.Positive;
  }
};

/// A cube (conjunction of literals); a DNF is a vector of cubes.
using Cube = std::vector<CubeLit>;
using Dnf = std::vector<Cube>;

/// Tuning knobs (each is an ablation axis in bench/).
struct CubeSearchOptions {
  /// Maximum cube length; -1 = |V| (exact).
  int MaxCubeLength = -1;
  /// Optimization 3: restrict V to predicates sharing (aliased)
  /// locations with phi before enumerating.
  bool ConeOfInfluence = true;
  /// Optimization 1: prune supersets of implicants and of
  /// contradiction cubes. Disabling enumerates every cube (ablation).
  bool PruneSupersets = true;
};

/// Computes F_V and G_V against one prover instance.
class CubeSearch {
public:
  CubeSearch(logic::LogicContext &Ctx, prover::Prover &P,
             const logic::AliasOracle &Alias, CubeSearchOptions Options,
             StatsRegistry *Stats = nullptr)
      : Ctx(Ctx), P(P), Alias(Alias), Options(Options), Stats(Stats) {}

  /// F_V(Phi): prime implicants of Phi over the predicates \p V.
  /// For Phi = false this returns the empty disjunction (contradictory
  /// cubes denote no concrete state); the enforce computation uses
  /// findContradictions instead.
  Dnf findF(const std::vector<logic::ExprRef> &V, logic::ExprRef Phi);

  /// Section 5.1: the mutually inconsistent cubes F_V(false), used to
  /// build the per-procedure enforce invariant.
  Dnf findContradictions(const std::vector<logic::ExprRef> &V);

  /// E(F_V(Phi)) as a formula (disjunction of concretized cubes).
  logic::ExprRef concretizeF(const std::vector<logic::ExprRef> &V,
                             logic::ExprRef Phi);

  /// The concretization E(c) of one cube.
  logic::ExprRef concretize(const std::vector<logic::ExprRef> &V,
                            const Cube &C) const;

private:
  /// Cone-of-influence restriction, then the raw enumeration — the path
  /// shared by findF and findContradictions.
  Dnf search(const std::vector<logic::ExprRef> &V, logic::ExprRef Phi);
  Dnf searchRaw(const std::vector<logic::ExprRef> &V, logic::ExprRef Phi,
                const std::vector<int> &Indices);
  std::vector<int> coneOfInfluence(const std::vector<logic::ExprRef> &V,
                                   logic::ExprRef Phi) const;

  logic::LogicContext &Ctx;
  prover::Prover &P;
  const logic::AliasOracle &Alias;
  CubeSearchOptions Options;
  StatsRegistry *Stats;
};

} // namespace c2bp
} // namespace slam

#endif // C2BP_CUBESEARCH_H
