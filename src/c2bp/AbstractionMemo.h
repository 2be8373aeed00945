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
///   * per procedure, its local predicates, signature and key as of the
///     last run, and the boolean program last built for it with the key
///     it was built under. A later run whose key for the procedure
///     matches reuses that BProc whole. A run recomputes only the
///     signatures and keys whose inputs changed (update()), so a round
///     that refines one procedure does not re-key the others.
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

#include <memory>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

namespace slam {
namespace c2bp {

/// What abstraction needs of the program besides its predicates.
struct ProgramFacts {
  explicit ProgramFacts(const cfront::Program &P) : P(P), PT(P), MR(P, PT) {}

  const cfront::Program &P;
  alias::PointsTo PT;
  alias::ModRef MR;
};

/// Program facts, procedure signatures and keys, and built procedures
/// shared across CEGAR iterations. Not thread-safe: one thread plans,
/// stages and commits.
class AbstractionMemo {
public:
  /// One procedure's boolean program as a round built it: its key (see
  /// ProcState), the BProc, and the arena owning every node of it.
  struct ProcEntry {
    std::vector<unsigned> Key;
    bp::BProc *Proc = nullptr;
    std::shared_ptr<const bp::BProgram> Arena;
  };

  /// What the memo knows of one procedure of the bound program.
  struct ProcState {
    const cfront::FuncDecl *F = nullptr;
    /// The local predicates of the last update(), and the signature
    /// over them.
    std::vector<logic::ExprRef> Locals;
    ProcSignature Sig;
    /// What the procedure's boolean program is a function of, besides
    /// the facts the memo is bound to: its scope predicates (globals,
    /// then locals), its own signature and every callee's, as
    /// expression ids with each list prefixed by its length. Empty
    /// until key() computes it after a change.
    std::vector<unsigned> Key;
    /// The procedures it calls, and those that call it (indices).
    std::vector<size_t> Callees, Callers;
    /// The entry committed last, and the one staged for the next
    /// commit().
    ProcEntry Committed, Staged;
  };

  /// Promotes the staged procedures into the committed generation; a
  /// staged procedure replaces (and so frees) the procedure's old entry.
  /// Call between iterations.
  void commit() {
    for (size_t I : StagedProcs)
      Procs[I].Committed = std::exchange(Procs[I].Staged, {});
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
      index();
    } else if (&Facts->P != &P || BoundCtx != &Ctx ||
               Output(BoundOptions) != Output(O)) {
      throw std::invalid_argument("AbstractionMemo: bound to another "
                                  "program, context or options");
    }
    return *Facts;
  }

  /// Brings the bound program's procedures up to \p Preds: recomputes
  /// the signatures of those whose local predicates changed, and drops
  /// the keys of those whose scope predicates, own signature or callee
  /// signatures changed; every key if the global predicates changed.
  void update(const PredicateSet &Preds) {
    if (Preds.Globals != Globals) {
      Globals = Preds.Globals;
      for (ProcState &St : Procs)
        St.Key.clear();
    }
    if (!Updated) {
      Updated = true;
      for (ProcState &St : Procs) {
        St.Locals = Preds.forProc(St.F->Name);
        St.Sig = computeSignature(Facts->P, *St.F, St.Locals, Facts->PT,
                                  Facts->MR);
        NumScoped += !St.Locals.empty();
      }
      return;
    }
    size_t Scoped = 0;
    for (const auto &[Name, Locals] : Preds.PerProc) {
      auto It = ByName.find(Name);
      if (It == ByName.end())
        continue;
      setLocals(It->second, Locals);
      Scoped += !Locals.empty();
    }
    // Some procedure lost all its local predicates.
    if (Scoped != NumScoped)
      for (size_t I = 0; I != Procs.size(); ++I)
        if (!Procs[I].Locals.empty() &&
            Preds.forProc(Procs[I].F->Name).empty())
          setLocals(I, {});
  }

  /// The procedures of the bound program, in program order.
  const std::vector<ProcState> &procs() const { return Procs; }
  /// \p F's state.
  const ProcState &proc(const cfront::FuncDecl *F) const {
    return Procs[ByDecl.at(F)];
  }

  /// Procedure \p I's key (see ProcState::Key), computed if needed.
  const std::vector<unsigned> &key(size_t I) {
    std::vector<unsigned> &Key = Procs[I].Key;
    if (!Key.empty())
      return Key;
    auto Add = [&Key](const std::vector<logic::ExprRef> &V) {
      Key.push_back(static_cast<unsigned>(V.size()));
      for (logic::ExprRef E : V)
        Key.push_back(E->id());
    };
    Add(Globals);
    Add(Procs[I].Locals);
    for (size_t J : Procs[I].Callees) {
      Add(Procs[J].Sig.Formals);
      Add(Procs[J].Sig.Returns);
    }
    return Key;
  }

  /// Stages \p E as procedure \p I's entry for the next commit.
  void stageProc(size_t I, ProcEntry E) {
    if (!Procs[I].Staged.Proc)
      StagedProcs.push_back(I);
    Procs[I].Staged = std::move(E);
  }

private:
  /// Lays out one state per procedure, with its call edges.
  void index() {
    for (const cfront::FuncDecl *F : Facts->P.Functions) {
      ByDecl.emplace(F, Procs.size());
      ByName.emplace(F->Name, Procs.size());
      Procs.emplace_back().F = F;
    }
    for (size_t I = 0; I != Procs.size(); ++I) {
      // The key lists the procedure's own signature first.
      Procs[I].Callees.push_back(I);
      for (const cfront::FuncDecl *Callee : Facts->MR.callees(Procs[I].F)) {
        size_t J = ByDecl.at(Callee);
        Procs[I].Callees.push_back(J);
        Procs[J].Callers.push_back(I);
      }
    }
  }

  /// Sets procedure \p I's local predicates to \p Locals.
  void setLocals(size_t I, const std::vector<logic::ExprRef> &Locals) {
    ProcState &St = Procs[I];
    if (St.Locals == Locals)
      return;
    NumScoped = NumScoped + !Locals.empty() - !St.Locals.empty();
    St.Locals = Locals;
    St.Key.clear();
    ProcSignature Sig =
        computeSignature(Facts->P, *St.F, Locals, Facts->PT, Facts->MR);
    if (Sig.Formals != St.Sig.Formals || Sig.Returns != St.Sig.Returns)
      for (size_t C : St.Callers)
        Procs[C].Key.clear();
    St.Sig = std::move(Sig);
  }

  std::unique_ptr<ProgramFacts> Facts;
  const logic::LogicContext *BoundCtx = nullptr;
  C2bpOptions BoundOptions;
  std::vector<ProcState> Procs;
  std::unordered_map<const cfront::FuncDecl *, size_t> ByDecl;
  std::unordered_map<std::string_view, size_t> ByName;
  /// Whether update() ran, the global predicates it last saw, and the
  /// number of procedures with local predicates.
  bool Updated = false;
  std::vector<logic::ExprRef> Globals;
  size_t NumScoped = 0;
  std::vector<size_t> StagedProcs;
};

} // namespace c2bp
} // namespace slam

#endif // C2BP_ABSTRACTIONMEMO_H
