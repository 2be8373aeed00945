//===- CubeSearch.cpp - Prime implicant enumeration -------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "c2bp/CubeSearch.h"

#include "logic/ExprUtils.h"

#include <algorithm>

using namespace slam;
using namespace slam::c2bp;
using logic::ExprRef;
using prover::Validity;

namespace {

/// The witnesses of one search: every verified model the prover handed
/// back for one of its checks, kept as the truth of phi (bit 0) and of
/// each cone predicate (bit 1 + its place in the cone). A witness that
/// satisfies a cube refutes `cube => phi` when it falsifies phi, and
/// `cube => !phi` when it satisfies phi.
class WitnessPool {
public:
  WitnessPool(const std::vector<ExprRef> &V, const std::vector<int> &Indices,
              ExprRef Phi)
      : V(V), Indices(Indices), Phi(Phi),
        Words((Indices.size() + 64) / 64), Mask(Words), Want(Words),
        BitOf(V.size(), -1) {
    for (size_t I = 0; I != Indices.size(); ++I)
      BitOf[Indices[I]] = static_cast<int>(I) + 1;
  }

  /// Adds the prover's last witness, if it gave one. The model is
  /// extended to the predicates its query did not mention.
  void add(const prover::Model *Witness) {
    if (!Witness)
      return;
    M = *Witness; // Reuses the scratch model's storage.
    size_t Begin = Rows.size();
    Rows.resize(Begin + Words, 0);
    auto Set = [&](int Bit, ExprRef F) {
      std::optional<bool> Holds = M.holds(F);
      if (Holds && *Holds)
        Rows[Begin + Bit / 64] |= uint64_t(1) << (Bit % 64);
      return Holds.has_value();
    };
    bool Ok = Set(0, Phi);
    for (size_t I = 0; Ok && I != Indices.size(); ++I)
      Ok = Set(static_cast<int>(I) + 1, V[Indices[I]]);
    for (size_t R = 0; Ok && R != Begin; R += Words)
      Ok = !std::equal(Rows.begin() + R, Rows.begin() + R + Words,
                       Rows.begin() + Begin);
    if (!Ok)
      Rows.resize(Begin);
  }

  /// Is some witness a model of \p C, and of phi (\p PhiValue true) or
  /// of !phi (false) unless \p PhiValue is empty?
  bool refutes(const Cube &C, std::optional<bool> PhiValue) {
    std::fill(Mask.begin(), Mask.end(), 0);
    std::fill(Want.begin(), Want.end(), 0);
    auto Require = [&](int Bit, bool Value) {
      Mask[Bit / 64] |= uint64_t(1) << (Bit % 64);
      Want[Bit / 64] |= uint64_t(Value) << (Bit % 64);
    };
    if (PhiValue)
      Require(0, *PhiValue);
    for (const CubeLit &L : C)
      Require(BitOf[L.Var], L.Positive);
    for (size_t R = 0; R != Rows.size(); R += Words) {
      size_t W = 0;
      while (W != Words && (Rows[R + W] & Mask[W]) == Want[W])
        ++W;
      if (W == Words)
        return true;
    }
    return false;
  }

private:
  const std::vector<ExprRef> &V;
  const std::vector<int> &Indices;
  ExprRef Phi;
  size_t Words;
  std::vector<uint64_t> Mask, Want; ///< refutes()'s scratch.
  std::vector<int> BitOf;           ///< V index -> bit.
  std::vector<uint64_t> Rows;       ///< Words per witness.
  prover::Model M;                  ///< add()'s scratch.
};

} // namespace

ExprRef CubeSearch::concretize(const std::vector<ExprRef> &V,
                               const Cube &C) const {
  std::vector<ExprRef> Lits;
  Lits.reserve(C.size());
  for (const CubeLit &L : C)
    Lits.push_back(L.Positive ? V[L.Var] : Ctx.notE(V[L.Var]));
  return Ctx.andE(std::move(Lits));
}

std::vector<int>
CubeSearch::coneOfInfluence(const std::vector<ExprRef> &V,
                            ExprRef Phi) const {
  // Locations per predicate, plus the seed from phi; grow until fixpoint
  // (a predicate is relevant if one of its locations may alias a
  // location already in the cone).
  std::vector<std::vector<ExprRef>> PredLocs;
  PredLocs.reserve(V.size());
  for (ExprRef P : V)
    PredLocs.push_back(logic::collectLocations(P));

  std::vector<ExprRef> Seed = logic::collectLocations(Phi);
  std::vector<bool> InCone(V.size(), false);

  auto Touches = [&](const std::vector<ExprRef> &Locs) {
    for (ExprRef A : Locs)
      for (ExprRef B : Seed)
        if (Alias.alias(A, B) != logic::AliasResult::NoAlias)
          return true;
    return false;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I != V.size(); ++I) {
      if (InCone[I] || !Touches(PredLocs[I]))
        continue;
      InCone[I] = true;
      for (ExprRef L : PredLocs[I])
        if (std::find(Seed.begin(), Seed.end(), L) == Seed.end())
          Seed.push_back(L);
      Changed = true;
    }
  }

  std::vector<int> Out;
  for (size_t I = 0; I != V.size(); ++I)
    if (InCone[I])
      Out.push_back(static_cast<int>(I));
  return Out;
}

Dnf CubeSearch::search(const std::vector<ExprRef> &V, ExprRef Phi) {
  // Cone of influence shrinks the variable set per query (opt. 3). The
  // enforce query F(false) mentions no locations, so every predicate is
  // relevant to it.
  std::vector<int> Indices;
  if (Options.ConeOfInfluence && !Phi->isFalse()) {
    Indices = coneOfInfluence(V, Phi);
  } else {
    for (size_t I = 0; I != V.size(); ++I)
      Indices.push_back(static_cast<int>(I));
  }
  return searchRaw(V, Phi, Indices);
}

Dnf CubeSearch::searchRaw(const std::vector<ExprRef> &V, ExprRef Phi,
                          const std::vector<int> &Indices) {
  WitnessPool Witnesses(V, Indices, Phi);
  uint64_t CubesChecked = 0, WitnessHits = 0; // Added to Stats once.
  // A check some witness refutes is answered "not valid" without a
  // query: the witnessed query is satisfiable, so the prover (sound for
  // Unsat) could only have said Sat or Unknown.
  auto Refuted = [&](const Cube &C, std::optional<bool> PhiValue) {
    bool Hit = Witnesses.refutes(C, PhiValue);
    WitnessHits += Hit;
    return Hit;
  };
  auto Valid = [&](Validity Answer) {
    Witnesses.add(P.witness());
    return Answer == Validity::Valid;
  };

  // The empty cube: is phi already valid?
  if (!Phi->isFalse() && Valid(P.implies(Ctx.trueE(), Phi)))
    return {Cube{}};

  int MaxLen = Options.MaxCubeLength < 0
                   ? static_cast<int>(Indices.size())
                   : std::min<int>(Options.MaxCubeLength,
                                   static_cast<int>(Indices.size()));

  ExprRef NotPhi = Ctx.notE(Phi);
  Dnf Result;
  std::vector<Cube> Rejected; // Cubes shown to imply !Phi.
  std::vector<Cube> Live;     // Cubes to extend, current length.
  Live.push_back({});         // Seed: the empty cube (length 0).

  // Subset test over literal-sorted cubes (for pruning supersets of
  // accepted implicants and of contradiction cubes, whichever parent
  // they were extended from).
  auto HasSubsetIn = [](const std::vector<Cube> &Set, const Cube &C) {
    for (const Cube &S : Set) {
      size_t I = 0;
      for (const CubeLit &L : C) {
        if (I < S.size() && S[I] == L)
          ++I;
      }
      if (I == S.size())
        return true;
    }
    return false;
  };

  for (int Len = 1; Len <= MaxLen && !Live.empty(); ++Len) {
    std::vector<Cube> Next;
    for (const Cube &C : Live) {
      int MaxVar = C.empty() ? -1 : C.back().Var;
      for (int Idx : Indices) {
        if (Idx <= MaxVar)
          continue;
        for (bool Positive : {true, false}) {
          Cube Ext = C;
          Ext.push_back({Idx, Positive});
          if (Options.PruneSupersets &&
              (HasSubsetIn(Result, Ext) || HasSubsetIn(Rejected, Ext)))
            continue;
          ++CubesChecked;
          // The witnesses are scanned first: a cube a witness satisfies
          // cannot concretize to a syntactic false.
          ExprRef EC = nullptr;
          bool Implies = false;
          if (!Refuted(Ext, false)) {
            EC = concretize(V, Ext);
            if (EC->isFalse()) {
              // Syntactically contradictory (b && !b can't arise here,
              // but folding may still produce false): an implicant of
              // anything, useful only for the enforce query.
              if (Phi->isFalse())
                Result.push_back(std::move(Ext));
              continue;
            }
            Implies = Valid(P.implies(EC, Phi));
          }
          if (Implies) {
            // A vacuous (unsatisfiable) cube implies anything but
            // denotes no concrete state; it contributes nothing to the
            // disjunction and would only clutter the output.
            if (!Phi->isFalse() && !Refuted(Ext, std::nullopt)) {
              prover::Satisfiability Sat = P.checkSat(EC);
              Witnesses.add(P.witness());
              if (Sat == prover::Satisfiability::Unsat) {
                Rejected.push_back(std::move(Ext));
                continue;
              }
            }
            Result.push_back(Ext);
            if (Options.PruneSupersets)
              continue; // Supersets are redundant (prime implicants).
            Next.push_back(std::move(Ext));
            continue;
          }
          if (Options.PruneSupersets && !Phi->isFalse() &&
              !Refuted(Ext, true) &&
              Valid(P.implies(EC ? EC : concretize(V, Ext), NotPhi))) {
            Rejected.push_back(std::move(Ext));
            continue; // No superset can imply phi non-vacuously.
          }
          Next.push_back(std::move(Ext));
        }
      }
    }
    Live = std::move(Next);
  }
  if (Stats && CubesChecked)
    Stats->add("c2bp.cubes_checked", CubesChecked);
  if (Stats && WitnessHits)
    Stats->add("c2bp.witness_hits", WitnessHits);
  return Result;
}

Dnf CubeSearch::findContradictions(const std::vector<ExprRef> &V) {
  return search(V, Ctx.falseE());
}

Dnf CubeSearch::findF(const std::vector<ExprRef> &V, ExprRef Phi) {
  if (Phi->isTrue())
    return {Cube{}};
  if (Phi->isFalse())
    return {};

  // Optimization 4: phi (or its negation) may literally be in E(V).
  for (size_t I = 0; I != V.size(); ++I) {
    if (V[I] == Phi)
      return {Cube{{static_cast<int>(I), true}}};
    if (Ctx.notE(V[I]) == Phi)
      return {Cube{{static_cast<int>(I), false}}};
  }
  return search(V, Phi);
}

ExprRef CubeSearch::concretizeF(const std::vector<ExprRef> &V,
                                ExprRef Phi) {
  Dnf D = findF(V, Phi);
  std::vector<ExprRef> Cubes;
  Cubes.reserve(D.size());
  for (const Cube &C : D)
    Cubes.push_back(concretize(V, C));
  return Ctx.orE(std::move(Cubes));
}
