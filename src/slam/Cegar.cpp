//===- Cegar.cpp - abstract / check / refine ----------------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "slam/Cegar.h"

#include "c2bp/AbstractionMemo.h"
#include "cfront/Normalize.h"
#include "cfront/Parser.h"
#include "cfront/Sema.h"
#include "slam/Newton.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <cstdio>

using namespace slam;
using namespace slam::slamtool;
using namespace slam::cfront;

SlamResult slamtool::checkProgram(const Program &P,
                                  const c2bp::PredicateSet &InitialPreds,
                                  logic::LogicContext &Ctx,
                                  const PipelineOptions &Options,
                                  StatsRegistry *Stats) {
  SlamResult Result;
  Result.Predicates = InitialPreds;
  // The flight recorder reads per-iteration counter deltas, so run over
  // a local registry when the caller did not supply one.
  StatsRegistry LocalStats;
  StatsRegistry *S = Stats ? Stats : &LocalStats;

  // Each iteration's abstraction owns its prover cache (C2bpTool), and
  // Newton's feasibility queries go through this prover's own.
  prover::Prover NewtonProver(Ctx, S);

  // Cross-iteration reuse: the memo outlives the per-iteration C2bp
  // tools and holds the program facts they share; each iteration
  // reuses procedures committed by earlier ones and commits its own at
  // the end of the round.
  c2bp::AbstractionMemo Memo;
  c2bp::C2bpOptions C2bpOpts = Options.C2bp;
  if (Options.Cegar.Incremental)
    C2bpOpts.Memo = &Memo;

  // One BDD manager for the loop: a procedure the memo reuses keeps its
  // relations and call bindings (bebop::Session).
  bebop::Session Session;

  auto CacheHits = [&] {
    return S->get("prover.cache_hits") + S->get("prover.neg_cache_hits");
  };

  for (int Iter = 0; Iter != Options.Cegar.MaxIterations; ++Iter) {
    Result.Iterations = Iter + 1;
    S->add("slam.iterations");

    TraceSpan IterSpan("slam.iteration", "slam");
    if (IterSpan.enabled())
      IterSpan.arg("iter", Iter + 1);

    IterationRecord Rec;
    Rec.Iteration = Iter + 1;
    Rec.Predicates = Result.Predicates.totalCount();
    uint64_t Calls0 = S->get("prover.calls");
    uint64_t Hits0 = CacheHits();
    uint64_t Cubes0 = S->get("c2bp.cubes_checked");
    uint64_t ProcsReused0 = S->get("c2bp.procs_reused");
    uint64_t ProcsRebuilt0 = S->get("c2bp.procs_rebuilt");

    // Phase 1: abstraction.
    Timer C2bpTime;
    std::optional<c2bp::C2bpTool> Tool;
    {
      TraceSpan Span("c2bp.setup", "c2bp");
      Tool.emplace(P, Result.Predicates, Ctx, C2bpOpts, S);
    }
    std::unique_ptr<bp::BProgram> BP = Tool->run();
    // Promote this round's staged procedures; iteration k+1 rebuilds
    // only procedures whose key changed. Committing between iterations
    // (never during one) is what keeps reuse decisions
    // schedule-independent.
    Memo.commit();
    Rec.C2bpSeconds = C2bpTime.seconds();

    // Phase 2: model checking.
    Timer BebopTime;
    std::optional<bebop::Bebop> Checker(std::in_place, *BP, S, &Session);
    bebop::CheckResult Check = Checker->run(Options.Cegar.EntryProc);
    Rec.BebopSeconds = BebopTime.seconds();
    Rec.BddNodes = Checker->bddNodes();

    bool Done = true;
    if (!Check.AssertViolated) {
      Result.V = SlamResult::Verdict::Validated;
    } else {
      // Phase 3: predicate discovery on the abstract counterexample.
      Timer NewtonTime;
      NewtonResult NR = analyzeTrace(P, Check.Trace, Ctx, NewtonProver,
                                     Result.Predicates, S);
      Rec.NewtonSeconds = NewtonTime.seconds();
      Rec.NewPredicates = NR.NewPreds.totalCount();
      if (NR.Feasible || NR.NewPreds.totalCount() == 0) {
        Result.V = NR.Feasible ? SlamResult::Verdict::BugFound
                               : SlamResult::Verdict::Unknown;
        // The steps' statements belong to this iteration's boolean
        // program, which dies below; keep only what outlives it.
        Result.Trace = std::move(Check.Trace);
        for (bebop::TraceStep &Step : Result.Trace)
          Step.Stmt = nullptr;
      } else {
        Done = false;
        for (logic::ExprRef E : NR.NewPreds.Globals)
          Result.Predicates.addGlobal(E);
        for (const auto &[ProcName, V] : NR.NewPreds.PerProc)
          for (logic::ExprRef E : V)
            Result.Predicates.addLocal(ProcName, E);
      }
    }
    Rec.ProverCalls = S->get("prover.calls") - Calls0;
    Rec.CacheHits = CacheHits() - Hits0;
    Rec.Cubes = S->get("c2bp.cubes_checked") - Cubes0;
    Rec.ProcsReused = S->get("c2bp.procs_reused") - ProcsReused0;
    Rec.ProcsRebuilt = S->get("c2bp.procs_rebuilt") - ProcsRebuilt0;
    Result.FlightLog.push_back(Rec);

    // The round's checker, boolean program and tool die inside the
    // iteration, under their own span.
    {
      TraceSpan Span("slam.teardown", "slam");
      Checker.reset();
      BP.reset();
      Tool.reset();
    }
    if (Done)
      return Result;
  }
  Result.V = SlamResult::Verdict::Unknown;
  return Result;
}

std::optional<SlamResult> slamtool::checkSafety(
    std::string_view Source, const SafetySpec &Spec,
    logic::LogicContext &Ctx, DiagnosticEngine &Diags,
    const PipelineOptions &Options, StatsRegistry *Stats) {
  std::unique_ptr<Program> P;
  {
    TraceSpan Span("cfront.parse", "cfront");
    P = parseProgram(Source, Diags);
  }
  if (!P)
    return std::nullopt;
  {
    TraceSpan Span("cfront.analyze", "cfront");
    if (!analyze(*P, Diags))
      return std::nullopt;
  }
  {
    TraceSpan Span("cfront.instrument", "cfront");
    if (!instrument(*P, Spec, Options.Cegar.EntryProc, Diags))
      return std::nullopt;
  }
  {
    TraceSpan Span("cfront.normalize", "cfront");
    if (!normalize(*P, Diags))
      return std::nullopt;
    DiagnosticEngine Rerun;
    if (!analyze(*P, Rerun)) {
      for (const Diagnostic &D : Rerun.diagnostics())
        Diags.error(D.Loc, "internal (instrumentation): " + D.Message);
      return std::nullopt;
    }
  }

  c2bp::PredicateSet Seeds;
  seedPredicates(Ctx, Spec, Seeds);
  return checkProgram(*P, Seeds, Ctx, Options, Stats);
}

std::string
slamtool::formatFlightLog(const std::vector<IterationRecord> &Log) {
  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "%5s %6s %7s %6s %7s %9s %10s %9s %9s %10s %6s\n", "iter",
                "preds", "prover", "hits", "cubes", "procs", "bdd-nodes",
                "c2bp(ms)", "bebop(ms)", "newton(ms)", "new");
  std::string Out = Line;
  for (const IterationRecord &Rec : Log) {
    std::snprintf(Line, sizeof(Line),
                  "%5d %6zu %7llu %6llu %7llu %5llu/%-3llu "
                  "%10llu %9.3f %9.3f %10.3f %6zu\n",
                  Rec.Iteration, Rec.Predicates,
                  static_cast<unsigned long long>(Rec.ProverCalls),
                  static_cast<unsigned long long>(Rec.CacheHits),
                  static_cast<unsigned long long>(Rec.Cubes),
                  static_cast<unsigned long long>(Rec.ProcsReused),
                  static_cast<unsigned long long>(Rec.ProcsRebuilt),
                  static_cast<unsigned long long>(Rec.BddNodes),
                  Rec.C2bpSeconds * 1e3, Rec.BebopSeconds * 1e3,
                  Rec.NewtonSeconds * 1e3, Rec.NewPredicates);
    Out += Line;
  }
  return Out;
}
