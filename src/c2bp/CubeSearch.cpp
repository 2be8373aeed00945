//===- CubeSearch.cpp - Prime implicant enumeration -------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "c2bp/CubeSearch.h"

#include "logic/ExprUtils.h"

#include <algorithm>
#include <bit>

using namespace slam;
using namespace slam::c2bp;
using logic::ExprRef;
using prover::Validity;

namespace {

/// Words of a witness row, or of one half of a packed cube, over a cone
/// of \p N predicates: bit 0 is phi, bit 1 + I the cone's I-th.
size_t wordsFor(size_t N) { return (N + 64) / 64; }

bool bitOf(const uint64_t *Words, size_t Bit) {
  return Words[Bit / 64] >> (Bit % 64) & 1;
}

void setBit(uint64_t *Words, size_t Bit) {
  Words[Bit / 64] |= uint64_t(1) << (Bit % 64);
}

/// Calls \p F on every set bit of \p Mask, in increasing order.
template <typename Fn>
void forEachBit(const uint64_t *Mask, size_t Words, Fn F) {
  for (size_t W = 0; W != Words; ++W)
    for (uint64_t B = Mask[W]; B; B &= B - 1)
      F(W * 64 + std::countr_zero(B));
}

/// The packed cube \p C (mask, then polarity) as literals over V.
Cube toCube(const std::vector<int> &Indices, const uint64_t *C,
            size_t Words) {
  Cube Out;
  forEachBit(C, Words, [&](size_t Bit) {
    Out.push_back({Indices[Bit - 1], bitOf(C + Words, Bit)});
  });
  return Out;
}

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

Dnf CubeSearch::search(const std::vector<ExprRef> &V, ExprRef Phi,
                       const ModelPool *Seeds, ModelPool *Fill) {
  // Cone of influence shrinks the variable set per query (opt. 3). The
  // enforce query F(false) mentions no locations, so every predicate is
  // relevant to it.
  std::vector<int> Indices;
  if (!Phi->isFalse()) {
    Indices = coneOfInfluence(V, Phi);
  } else {
    for (size_t I = 0; I != V.size(); ++I)
      Indices.push_back(static_cast<int>(I));
  }
  return searchRaw(V, Phi, Indices, Seeds, Fill);
}

Dnf CubeSearch::searchRaw(const std::vector<ExprRef> &V, ExprRef Phi,
                          const std::vector<int> &Indices,
                          const ModelPool *Seeds, ModelPool *Fill) {
  const size_t N = Indices.size(), Words = wordsFor(N);
  uint64_t CubesChecked = 0, WitnessHits = 0; // Added to Stats once.

  // The witnesses: one row of Words per verified model, phi at bit 0
  // and cone position I at bit 1 + I. A row that satisfies a cube
  // refutes `cube => phi` when phi is clear, `cube => !phi` when it is
  // set, and the vacuity check either way.
  std::vector<uint64_t> Rows;
  prover::Model M; // Scratch: holds() extends the model it evaluates on.
  auto KeepRow = [&](size_t Begin) {
    for (size_t R = 0; R != Begin; R += Words)
      if (std::equal(Rows.begin() + R, Rows.begin() + R + Words,
                     Rows.begin() + Begin))
        return false;
    return true;
  };
  // Adds the prover's last witness, if it gave one, extended to the
  // predicates its query did not mention.
  auto AddWitness = [&](const prover::Model *Witness) {
    if (!Witness)
      return;
    M = *Witness; // Reuses the scratch model's storage.
    size_t Begin = Rows.size();
    Rows.resize(Begin + Words, 0);
    auto Set = [&](size_t Bit, ExprRef F) {
      std::optional<bool> Holds = M.holds(F);
      if (Holds && *Holds)
        setBit(&Rows[Begin], Bit);
      return Holds.has_value();
    };
    bool Ok = Set(0, Phi);
    for (size_t I = 0; Ok && I != N; ++I)
      Ok = Set(I + 1, V[Indices[I]]);
    if (!Ok || !KeepRow(Begin)) {
      Rows.resize(Begin);
      return;
    }
    if (Fill) { // The enforce search: Indices is all of V.
      Fill->Models.push_back(M);
      Fill->Rows.insert(Fill->Rows.end(), Rows.begin() + Begin, Rows.end());
    }
  };
  // A pool's model gives a row once phi is evaluated on a copy of it;
  // its cone bits are the pool row's.
  if (Seeds) {
    for (size_t J = 0; J != Seeds->Models.size(); ++J) {
      M = Seeds->Models[J];
      std::optional<bool> PhiHolds = M.holds(Phi);
      if (!PhiHolds)
        continue;
      const uint64_t *PoolRow = &Seeds->Rows[J * wordsFor(V.size())];
      size_t Begin = Rows.size();
      Rows.resize(Begin + Words, 0);
      Rows[Begin] = *PhiHolds;
      for (size_t I = 0; I != N; ++I)
        if (bitOf(PoolRow, Indices[I] + 1))
          setBit(&Rows[Begin], I + 1);
      if (!KeepRow(Begin))
        Rows.resize(Begin);
    }
  }

  // A packed cube is 2 * Words words: the mask of its cone positions,
  // then the polarity of each (set = positive), both at bit 1 + I. Ext
  // is the candidate every check below is about.
  const size_t Stride = 2 * Words;
  std::vector<uint64_t> Ext(Stride);
  const uint64_t *C = Ext.data();
  // Is some witness a model of the cube, and of phi (PhiValue true) or
  // of !phi (false) unless PhiValue is empty? A check some witness
  // refutes is answered "not valid" without a query: the witnessed
  // query is satisfiable, so the prover (sound for Unsat) could only
  // have said Sat or Unknown. The row that refutes one moves to the
  // front, where the checks of the candidates after it look first; the
  // answer does not depend on the rows' order.
  auto Refuted = [&](std::optional<bool> PhiValue) {
    uint64_t Mask0 = C[0] | uint64_t(PhiValue.has_value());
    uint64_t Want0 = C[Words] | uint64_t(PhiValue.value_or(false));
    for (size_t R = 0; R != Rows.size(); R += Words) {
      if ((Rows[R] & Mask0) != Want0)
        continue;
      size_t W = 1;
      while (W != Words && (Rows[R + W] & C[W]) == C[Words + W])
        ++W;
      if (W == Words) {
        ++WitnessHits;
        std::rotate(Rows.begin(), Rows.begin() + R, Rows.begin() + R + Words);
        return true;
      }
    }
    return false;
  };
  auto Valid = [&](Validity Answer) {
    AddWitness(P.witness());
    return Answer == Validity::Valid;
  };
  // Does \p Set hold a subset of the candidate: a cube whose literals
  // all appear in it?
  auto HoldsSubsetOf = [&](const std::vector<uint64_t> &Set) {
    for (size_t S = 0; S != Set.size(); S += Stride) {
      size_t W = 0;
      while (W != Words && (Set[S + W] & ~C[W]) == 0 &&
             ((Set[S + Words + W] ^ C[Words + W]) & Set[S + W]) == 0)
        ++W;
      if (W == Words)
        return true;
    }
    return false;
  };
  std::vector<ExprRef> Lits;
  auto Concretize = [&] {
    Lits.clear();
    forEachBit(C, Words, [&](size_t Bit) {
      ExprRef E = V[Indices[Bit - 1]];
      Lits.push_back(bitOf(C + Words, Bit) ? E : Ctx.notE(E));
    });
    return Ctx.andE(Lits);
  };

  // The empty cube: is phi already valid?
  if (!Phi->isFalse() && Valid(P.implies(Ctx.trueE(), Phi)))
    return {Cube{}};

  size_t MaxLen = Options.MaxCubeLength < 0
                      ? N
                      : std::min<size_t>(Options.MaxCubeLength, N);

  ExprRef NotPhi = Ctx.notE(Phi);
  Dnf Result;
  std::vector<uint64_t> Accepted; // Result, packed.
  std::vector<uint64_t> Rejected; // Cubes shown to imply !Phi.
  std::vector<uint64_t> Live(Stride, 0); // Cubes to extend: the empty one.
  std::vector<uint64_t> Next;
  auto Keep = [&](std::vector<uint64_t> &List) {
    List.insert(List.end(), Ext.begin(), Ext.end());
  };
  auto Accept = [&] {
    Result.push_back(toCube(Indices, C, Words));
    Keep(Accepted);
  };

  for (size_t Len = 1; Len <= MaxLen && !Live.empty(); ++Len) {
    Next.clear();
    for (size_t L = 0; L != Live.size(); L += Stride) {
      const uint64_t *Parent = &Live[L];
      // Extend past the cube's last position, so each cube comes once.
      size_t First = 1;
      for (size_t W = Words; W-- != 0;)
        if (Parent[W]) {
          First = W * 64 + 64 - std::countl_zero(Parent[W]);
          break;
        }
      for (size_t Bit = First; Bit <= N; ++Bit) {
        for (bool Positive : {true, false}) {
          std::copy(Parent, Parent + Stride, Ext.begin());
          setBit(&Ext[0], Bit);
          if (Positive)
            setBit(&Ext[Words], Bit);
          if (HoldsSubsetOf(Accepted) || HoldsSubsetOf(Rejected))
            continue;
          ++CubesChecked;
          // The witnesses are scanned first: a cube a witness satisfies
          // cannot concretize to a syntactic false.
          ExprRef EC = nullptr;
          bool Implies = false;
          if (!Refuted(false)) {
            EC = Concretize();
            if (EC->isFalse()) {
              // Syntactically contradictory (b && !b can't arise here,
              // but folding may still produce false): an implicant of
              // anything, useful only for the enforce query.
              if (Phi->isFalse())
                Accept();
              continue;
            }
            Implies = Valid(P.implies(EC, Phi));
          }
          if (Implies) {
            // A vacuous (unsatisfiable) cube implies anything but
            // denotes no concrete state; it contributes nothing to the
            // disjunction and would only clutter the output.
            if (!Phi->isFalse() && !Refuted(std::nullopt)) {
              prover::Satisfiability Sat = P.checkSat(EC);
              AddWitness(P.witness());
              if (Sat == prover::Satisfiability::Unsat) {
                Keep(Rejected);
                continue;
              }
            }
            Accept(); // Its supersets are redundant (prime implicants).
            continue;
          }
          if (!Phi->isFalse() && !Refuted(true) &&
              Valid(P.implies(EC ? EC : Concretize(), NotPhi))) {
            Keep(Rejected);
            continue; // No superset can imply phi non-vacuously.
          }
          Keep(Next);
        }
      }
    }
    Live.swap(Next);
  }
  if (Stats && CubesChecked)
    Stats->add("c2bp.cubes_checked", CubesChecked);
  if (Stats && WitnessHits)
    Stats->add("c2bp.witness_hits", WitnessHits);
  return Result;
}

Dnf CubeSearch::findContradictions(const std::vector<ExprRef> &V,
                                   ModelPool *Pool) {
  if (Pool) {
    Pool->V = V;
    Pool->Models.clear();
    Pool->Rows.clear();
  }
  return search(V, Ctx.falseE(), nullptr, Pool);
}

Dnf CubeSearch::findF(const std::vector<ExprRef> &V, ExprRef Phi,
                      const ModelPool *Pool) {
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
  return search(V, Phi, Pool && Pool->V == V ? Pool : nullptr, nullptr);
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
