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
  // The empty cube: is phi already valid?
  if (!Phi->isFalse() &&
      P.implies(Ctx.trueE(), Phi) == Validity::Valid)
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
          if (Stats)
            Stats->add("c2bp.cubes_checked");
          ExprRef EC = concretize(V, Ext);
          if (EC->isFalse()) {
            // Syntactically contradictory (b && !b can't arise here,
            // but folding may still produce false): an implicant of
            // anything, useful only for the enforce query.
            if (Phi->isFalse())
              Result.push_back(std::move(Ext));
            continue;
          }
          Validity Implies = P.implies(EC, Phi);
          if (Implies == Validity::Valid) {
            // A vacuous (unsatisfiable) cube implies anything but
            // denotes no concrete state; it contributes nothing to the
            // disjunction and would only clutter the output.
            if (!Phi->isFalse() &&
                P.checkSat(EC) == prover::Satisfiability::Unsat) {
              Rejected.push_back(std::move(Ext));
              continue;
            }
            Result.push_back(Ext);
            if (Options.PruneSupersets)
              continue; // Supersets are redundant (prime implicants).
            Next.push_back(std::move(Ext));
            continue;
          }
          if (Options.PruneSupersets && !Phi->isFalse() &&
              P.implies(EC, NotPhi) == Validity::Valid) {
            Rejected.push_back(std::move(Ext));
            continue; // No superset can imply phi non-vacuously.
          }
          Next.push_back(std::move(Ext));
        }
      }
    }
    Live = std::move(Next);
  }
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
