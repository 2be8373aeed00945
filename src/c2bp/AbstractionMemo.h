//===- AbstractionMemo.h - Cross-iteration cube-search reuse ----*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental-CEGAR memo: cube-search results carried from one
/// abstraction iteration to the next. Refinement grows the predicate
/// set monotonically, and most statements' weakest preconditions touch
/// none of the new predicates — their cone of influence is the same set
/// of predicates as last iteration, so F_V(phi) restricted to that cone
/// is *provably* the same disjunction. The memo captures exactly that:
/// results are keyed on (phi, the cone's predicates) and replayed when
/// the key recurs, skipping the cube enumeration and every prover call
/// under it.
///
/// Two properties make replay byte-exact rather than merely sound:
///
///   * Keys use hash-consed ids (stable within a run) of the *cone*
///     predicates in V order, and values store cube literals as
///     *positions in the cone*, not indices into any particular V.
///     Predicates are only ever appended, so surviving predicates keep
///     their relative order and a cone position maps to exactly one
///     index of the current V; the remapped Dnf is the one the search
///     would have produced (the enumeration visits cone indices
///     ascending, and ascending cone position == ascending V index).
///
///   * The memo is **generational**. Lookups see only entries committed
///     at the end of a previous iteration; fresh results are staged on
///     the side and promoted by commit(). Within an iteration a parallel
///     run therefore answers every lookup identically no matter how
///     tasks interleave across workers — intra-iteration hits, which
///     would depend on schedule, cannot happen by construction. This is
///     what keeps `c2bp.cubes_checked` (and all downstream output)
///     independent of the worker count.
///
/// The cube entries hold no ExprRefs, only ids: they never extend the
/// life of expressions, and a stale id simply never matches again.
///
/// The memo also keeps the program facts, built once per run, and per
/// procedure the boolean program last built for it, which a round whose
/// procedure key matches reuses whole (committed entries only, as for
/// cubes). Both hold for one program, context and set of
/// output-affecting options, so the memo binds to the first it sees.
///
//===----------------------------------------------------------------------===//

#ifndef C2BP_ABSTRACTIONMEMO_H
#define C2BP_ABSTRACTIONMEMO_H

#include "c2bp/C2bp.h"
#include "c2bp/Signatures.h"

#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <vector>

namespace slam {
namespace c2bp {

/// What abstraction needs of the program besides its predicates.
struct ProgramFacts {
  ProgramFacts(const cfront::Program &P, alias::Mode Mode)
      : P(P), PT(P, Mode), MR(P, PT) {}

  /// \p F's signature over its local predicates \p Locals, recomputed
  /// only when they differ from the last call's for \p F.
  const ProcSignature &signature(const cfront::FuncDecl &F,
                                 const std::vector<logic::ExprRef> &Locals) {
    auto [It, New] = Signatures.try_emplace(&F);
    if (New || It->second.first != Locals)
      It->second = {Locals, computeSignature(P, F, Locals, PT, MR)};
    return It->second.second;
  }

  const cfront::Program &P;
  alias::PointsTo PT;
  alias::ModRef MR;

private:
  std::map<const cfront::FuncDecl *,
           std::pair<std::vector<logic::ExprRef>, ProcSignature>>
      Signatures;
};

/// Cube-search results shared across CEGAR iterations. Thread-safety
/// contract: find() and stage() may race with each other (abstraction
/// workers); commit() must be called with no search running (the CEGAR
/// driver calls it between iterations).
class AbstractionMemo {
public:
  /// Identity of one search: the queried formula plus the cone of
  /// influence it was answered against, as in-run stable ids. The cone
  /// ids are listed in V order (ascending index), which — because
  /// refinement only appends predicates — is the same order in every
  /// later V containing them.
  struct Key {
    unsigned PhiId;
    std::vector<unsigned> ConeIds;

    bool operator<(const Key &O) const {
      if (PhiId != O.PhiId)
        return PhiId < O.PhiId;
      return ConeIds < O.ConeIds;
    }
  };

  /// Looks \p K up among committed entries only. The returned Dnf's
  /// literals are cone positions (indices into Key::ConeIds); the
  /// caller remaps them onto its current V.
  std::optional<Dnf> find(const Key &K) const {
    // Committed is mutated only by commit(), which is serialized
    // against all searches, so reads take no lock.
    auto It = Committed.find(K);
    if (It == Committed.end())
      return std::nullopt;
    return It->second;
  }

  /// Stages a freshly computed result (literals already cone-relative)
  /// for the next commit. First staging wins; concurrent duplicates are
  /// identical anyway (the search is deterministic in its key).
  void stage(Key K, Dnf ConeDnf) {
    std::lock_guard<std::mutex> L(M);
    Staged.emplace(std::move(K), std::move(ConeDnf));
  }

  /// Promotes staged entries into the committed generation; a staged
  /// procedure replaces (and so frees) the procedure's old entry. Call
  /// between iterations, never concurrently with find/stage.
  void commit() {
    std::lock_guard<std::mutex> L(M);
    Committed.merge(Staged);
    Staged.clear();
    for (auto &[F, E] : StagedProcs)
      CommittedProcs.insert_or_assign(F, std::move(E));
    StagedProcs.clear();
  }

  /// Committed entries (for reporting).
  size_t size() const { return Committed.size(); }

  /// Binds the memo to \p P, \p Ctx and the output-affecting fields of
  /// \p O on first use, building the program facts then, and returns
  /// them. Throws std::invalid_argument if it is already bound to
  /// another program, context or options.
  ProgramFacts &bind(const cfront::Program &P, logic::LogicContext &Ctx,
                     const C2bpOptions &O) {
    auto Output = [](const C2bpOptions &X) {
      return std::tuple(X.Cubes.MaxCubeLength, X.Cubes.ConeOfInfluence,
                        X.Cubes.PruneSupersets, X.UseEnforce,
                        X.UseAliasAnalysis, X.AliasMode);
    };
    if (!Facts) {
      Facts = std::make_unique<ProgramFacts>(P, O.AliasMode);
      BoundCtx = &Ctx;
      BoundOptions = O;
    } else if (&Facts->P != &P || BoundCtx != &Ctx ||
               Output(BoundOptions) != Output(O)) {
      throw std::invalid_argument("AbstractionMemo: bound to another "
                                  "program, context or options");
    }
    return *Facts;
  }

  /// One procedure's boolean program as a round built it: its key (see
  /// C2bpTool), the BProc, and the arena owning every node of it.
  struct ProcEntry {
    std::vector<unsigned> Key;
    bp::BProc *Proc = nullptr;
    std::shared_ptr<const bp::BProgram> Arena;
  };

  /// The committed entry of \p F if it was built under \p Key.
  const ProcEntry *findProc(const cfront::FuncDecl *F,
                            const std::vector<unsigned> &Key) const {
    auto It = CommittedProcs.find(F);
    return It != CommittedProcs.end() && It->second.Key == Key
               ? &It->second
               : nullptr;
  }

  /// Stages \p E as \p F's entry for the next commit. Call with no
  /// search running.
  void stageProc(const cfront::FuncDecl *F, ProcEntry E) {
    StagedProcs.insert_or_assign(F, std::move(E));
  }

private:
  std::map<Key, Dnf> Committed;
  std::map<Key, Dnf> Staged;
  mutable std::mutex M; ///< Guards Staged.
  std::map<const cfront::FuncDecl *, ProcEntry> CommittedProcs, StagedProcs;
  const logic::LogicContext *BoundCtx = nullptr;
  C2bpOptions BoundOptions;
  std::unique_ptr<ProgramFacts> Facts;
};

} // namespace c2bp
} // namespace slam

#endif // C2BP_ABSTRACTIONMEMO_H
