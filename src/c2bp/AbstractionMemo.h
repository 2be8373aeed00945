//===- AbstractionMemo.h - Cross-iteration procedure reuse ------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental-CEGAR memo: what one abstraction run hands the next.
/// C2bp abstracts each procedure from its own scope predicates and the
/// signatures of itself and its callees (Section 4.5); everything else
/// it reads — points-to and mod/ref facts, statement ids, options — is
/// fixed for a program. So the memo keeps two things:
///
///   * the program facts, built once on the first run and bound to one
///     program, logic context and set of output-affecting options;
///   * per procedure, the boolean program last built for it and the key
///     it was built under. A later run whose key for the procedure
///     matches reuses that BProc whole.
///
/// The memo is **generational**: runs look up only entries committed at
/// the end of an earlier round, and stage their own for the next
/// commit(). A reuse decision therefore never depends on the order in
/// which a round's work finishes, and the output is the same at every
/// worker count. Only the planning thread touches the memo; no worker
/// does.
///
/// Every C2bpTool run goes through a memo: the CEGAR driver passes one
/// that lives for the whole loop, and a run given none uses its own.
///
//===----------------------------------------------------------------------===//

#ifndef C2BP_ABSTRACTIONMEMO_H
#define C2BP_ABSTRACTIONMEMO_H

#include "c2bp/C2bp.h"
#include "c2bp/Signatures.h"

#include <map>
#include <stdexcept>
#include <tuple>
#include <vector>

namespace slam {
namespace c2bp {

/// What abstraction needs of the program besides its predicates.
struct ProgramFacts {
  explicit ProgramFacts(const cfront::Program &P)
      : P(P), PT(P), MR(P, PT) {}

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

/// Program facts and procedures shared across CEGAR iterations. Not
/// thread-safe: one thread plans, stages and commits.
class AbstractionMemo {
public:
  /// Promotes the staged procedures into the committed generation; a
  /// staged procedure replaces (and so frees) the procedure's old entry.
  /// Call between iterations.
  void commit() {
    for (auto &[F, E] : StagedProcs)
      CommittedProcs.insert_or_assign(F, std::move(E));
    StagedProcs.clear();
  }

  /// Binds the memo to \p P, \p Ctx and the output-affecting fields of
  /// \p O on first use, building the program facts then, and returns
  /// them. Throws std::invalid_argument if it is already bound to
  /// another program, context or options.
  ProgramFacts &bind(const cfront::Program &P, logic::LogicContext &Ctx,
                     const C2bpOptions &O) {
    auto Output = [](const C2bpOptions &X) {
      return std::tuple(X.Cubes.MaxCubeLength, X.UseEnforce,
                        X.UseAliasAnalysis);
    };
    if (!Facts) {
      Facts = std::make_unique<ProgramFacts>(P);
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

  /// Stages \p E as \p F's entry for the next commit.
  void stageProc(const cfront::FuncDecl *F, ProcEntry E) {
    StagedProcs.insert_or_assign(F, std::move(E));
  }

private:
  std::map<const cfront::FuncDecl *, ProcEntry> CommittedProcs, StagedProcs;
  const logic::LogicContext *BoundCtx = nullptr;
  C2bpOptions BoundOptions;
  std::unique_ptr<ProgramFacts> Facts;
};

} // namespace c2bp
} // namespace slam

#endif // C2BP_ABSTRACTIONMEMO_H
