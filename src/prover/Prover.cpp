//===- Prover.cpp - Lazy SMT over the predicate logic ---------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "prover/Prover.h"

#include "prover/Sat.h"
#include "prover/Theory.h"
#include "support/Timer.h"
#include "support/Trace.h"

using namespace slam;
using namespace slam::prover;
using logic::ExprKind;
using logic::ExprRef;

namespace {

/// Tseitin encoder from formulas to CNF over atom variables. Atoms are
/// numbered in the order the walk first meets them, which depends only
/// on the formula's structure, so the candidate models (and the witness
/// the Prover keeps) are the same in every run and at every -j.
///
/// encode() is an explicit-worklist post-order walk: the weakest
/// preconditions of long statement sequences (and especially the
/// enforce-invariant conjunctions) nest Not/And chains thousands of
/// nodes deep, which overflowed the stack in the naive recursive
/// formulation. The iterative walk visits children left to right and
/// emits clauses at the same points the recursion did, so the produced
/// CNF (variable numbering included) is identical.
class SkeletonEncoder {
public:
  /// \p AtomVars is the caller's reusable atom-to-variable map.
  SkeletonEncoder(SatSolver &Solver, logic::ExprIdMap &AtomVars)
      : Solver(Solver), AtomVars(AtomVars) {
    AtomVars.clear();
  }

  /// Returns the literal representing \p E.
  int encode(ExprRef Root) {
    struct Frame {
      ExprRef E;
      size_t NextOp;         // Next child to descend into.
      std::vector<int> Lits; // Completed children's literals (And/Or).
    };
    std::vector<Frame> Stack;
    Stack.push_back({Root, 0, {}});
    int Result = 0; // Literal of the most recently completed subtree.
    while (!Stack.empty()) {
      Frame &F = Stack.back();
      switch (F.E->kind()) {
      case ExprKind::BoolLit:
        Result = F.E->boolValue() ? constantTrue() : -constantTrue();
        Stack.pop_back();
        continue;
      case ExprKind::Not:
        if (F.NextOp == 0) {
          F.NextOp = 1;
          Stack.push_back({F.E->op(0), 0, {}});
        } else {
          Result = -Result;
          Stack.pop_back();
        }
        continue;
      case ExprKind::And:
      case ExprKind::Or: {
        if (F.NextOp > 0)
          F.Lits.push_back(Result); // Collect the child just finished.
        if (F.NextOp < F.E->numOperands()) {
          ExprRef Child = F.E->op(F.NextOp++);
          Stack.push_back({Child, 0, {}});
          continue;
        }
        bool IsAnd = F.E->kind() == ExprKind::And;
        int Aux = Solver.newVar() + 1;
        std::vector<int> Big;
        Big.push_back(IsAnd ? Aux : -Aux);
        for (int Lit : F.Lits) {
          Solver.addClause(IsAnd ? std::vector<int>{-Aux, Lit}
                                 : std::vector<int>{Aux, -Lit});
          Big.push_back(IsAnd ? -Lit : Lit);
        }
        Solver.addClause(std::move(Big));
        Result = Aux;
        Stack.pop_back();
        continue;
      }
      default:
        assert(logic::isCmpKind(F.E->kind()) &&
               "formula leaf must be an atom");
        Result = atomLit(F.E);
        Stack.pop_back();
        continue;
      }
    }
    return Result;
  }

  /// (atom, variable) in first-met order.
  const std::vector<std::pair<ExprRef, int>> &atoms() const { return Atoms; }

  int varOf(ExprRef Atom) const { return AtomVars.lookup(Atom); }

private:
  int constantTrue() {
    if (TrueVar < 0) {
      TrueVar = Solver.newVar();
      Solver.addClause({TrueVar + 1});
    }
    return TrueVar + 1;
  }

  int atomLit(ExprRef Atom) {
    int Var = AtomVars.lookup(Atom);
    if (Var < 0) {
      Var = Solver.newVar();
      AtomVars.insert(Atom, Var);
      Atoms.emplace_back(Atom, Var);
    }
    return Var + 1;
  }

  SatSolver &Solver;
  logic::ExprIdMap &AtomVars;
  std::vector<std::pair<ExprRef, int>> Atoms;
  int TrueVar = -1;
};

/// Greedy unsat-core minimization: drop literals whose removal keeps the
/// conjunction unsatisfiable. Produces much stronger blocking clauses
/// than blocking the full model.
std::vector<Literal> minimizeCore(TheorySolver &Theory,
                                  std::vector<Literal> Core) {
  if (Core.size() > 24)
    return Core; // Too expensive to shrink; block the full model.
  for (size_t I = 0; I < Core.size();) {
    std::vector<Literal> Without;
    Without.reserve(Core.size() - 1);
    for (size_t J = 0; J != Core.size(); ++J)
      if (J != I)
        Without.push_back(Core[J]);
    if (Theory.check(Without) == TheoryResult::Unsat)
      Core = std::move(Without);
    else
      ++I;
  }
  return Core;
}

} // namespace

Prover::Prover(logic::LogicContext &Ctx, StatsRegistry *Stats,
               SharedProverCache *Shared)
    : Ctx(Ctx), Stats(Stats),
      OwnedCache(Shared ? nullptr : std::make_unique<SharedProverCache>()),
      Cache(Shared ? *Shared : *OwnedCache) {}

Satisfiability Prover::checkSatUncached(ExprRef Phi,
                                        std::unique_ptr<const Model> &Found) {
  SatSolver Solver;
  SkeletonEncoder Encoder(Solver, AtomVars);
  int Root = Encoder.encode(Phi);
  Solver.addClause({Root});

  bool SawUnknownModel = false;
  for (int Iteration = 0; Iteration != 20000; ++Iteration) {
    if (Solver.solve() == SatSolver::Result::Unsat)
      return SawUnknownModel ? Satisfiability::Unknown : Satisfiability::Unsat;

    std::vector<Literal> Lits;
    Lits.reserve(Encoder.atoms().size());
    for (const auto &[Atom, Var] : Encoder.atoms())
      Lits.push_back({Atom, Solver.modelValue(Var)});

    TheoryResult TR = Theory.check(Lits);
    if (TR == TheoryResult::Sat) {
      // The skeleton's Tseitin clauses are equivalences, so a model that
      // makes every atom take its skeleton value makes Phi true.
      if (std::optional<Model> M = Theory.model(Lits))
        Found = std::make_unique<const Model>(std::move(*M));
      return Satisfiability::Sat;
    }
    if (TR == TheoryResult::Unknown)
      SawUnknownModel = true;

    std::vector<Literal> Core =
        TR == TheoryResult::Unsat ? minimizeCore(Theory, Lits) : Lits;
    std::vector<int> Blocking;
    Blocking.reserve(Core.size());
    for (const Literal &L : Core) {
      int Var = Encoder.varOf(L.Atom);
      Blocking.push_back(L.Positive ? -(Var + 1) : (Var + 1));
    }
    Solver.addClause(std::move(Blocking));
  }
  return Satisfiability::Unknown;
}

Satisfiability Prover::timedCheck(ExprRef Phi,
                                  std::unique_ptr<const Model> &Found) {
  // The query's text is built before the span opens, so that the span
  // times only the decision.
  std::string Query = TraceRecorder::active() ? Phi->str() : std::string();
  TraceSpan Span("prover.query", "prover");
  Timer T;
  Satisfiability Result = checkSatUncached(Phi, Found);
  if (Stats)
    Stats->observe("prover.query_us",
                   static_cast<uint64_t>(T.millis() * 1000.0));
  if (Span.enabled()) {
    Span.arg("query", std::move(Query));
    Span.arg("result", Result == Satisfiability::Sat     ? "sat"
                       : Result == Satisfiability::Unsat ? "unsat"
                                                         : "unknown");
  }
  return Result;
}

Satisfiability Prover::noteCacheHit(SharedProverCache::Outcome Kind,
                                    Satisfiability Value) {
  const char *Counter = nullptr;
  switch (Kind) {
  case SharedProverCache::Outcome::Hit:
    Counter = "prover.cache_hits";
    break;
  case SharedProverCache::Outcome::WaitHit:
    Counter = "prover.cache_hits";
    if (Stats)
      Stats->add("prover.shared_wait_hits");
    break;
  case SharedProverCache::Outcome::NegHit:
    Counter = "prover.neg_cache_hits";
    break;
  case SharedProverCache::Outcome::Miss:
    assert(false && "a miss is not a hit");
    break;
  }
  if (Stats && Counter)
    Stats->add(Counter);
  return Value;
}

Satisfiability Prover::checkSat(ExprRef Phi) {
  assert(Phi->isFormula() && "checkSat takes a formula");
  LastWitness = nullptr;
  if (Phi->isTrue())
    return Satisfiability::Sat;
  if (Phi->isFalse())
    return Satisfiability::Unsat;

  // On a miss the Lookup carries the reserved slot; publishing through
  // it releases it, and any path that skips the publish (a throwing
  // decision procedure) abandons it on destruction rather than leaving
  // waiters parked forever.
  SharedProverCache::Lookup L = Cache.lookupOrReserve(Phi);
  if (L.Kind != SharedProverCache::Outcome::Miss) {
    LastWitness = L.Witness;
    return noteCacheHit(L.Kind, L.Value);
  }
  if (Stats)
    Stats->add("prover.calls");
  std::unique_ptr<const Model> Found;
  Satisfiability Result = timedCheck(Phi, Found);
  LastWitness = Found.get(); // The cache keeps it.
  L.Slot.publish(Result, std::move(Found));
  return Result;
}

Validity Prover::implies(ExprRef Antecedent, ExprRef Consequent) {
  switch (checkSat(Ctx.andE(Antecedent, Ctx.notE(Consequent)))) {
  case Satisfiability::Unsat:
    return Validity::Valid;
  case Satisfiability::Sat:
    return Validity::Invalid;
  case Satisfiability::Unknown:
    return Validity::Unknown;
  }
  return Validity::Unknown;
}
