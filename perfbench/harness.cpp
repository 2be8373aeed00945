//===- harness.cpp - End-to-end and per-layer pipeline benchmark ----------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Times the pipeline to a verdict on one workload and checks every
// verdict against KnownAnswers.h:
//
//   drivers    the Table 1 models plus two generated models (32 and 64
//              dispatch routines) through slamtool::checkSafety, k = 3;
//   table2     the Table 2 programs through C2bp then Bebop, k = 3, -j 1;
//   table2-j4  the same at -j 4.
//
//   slam_perfbench --workload W --seed N --seconds S --trace 0|1
//                  [--record FILE]
//
// A pass runs every program of the workload once, in a fixed order.
// Set-up (building the inputs plus one warm-up pass) is repeated five
// times; the last one provides the references every measured run is
// compared against. Passes then repeat until --seconds have elapsed;
// --seconds 0 runs exactly one.
//
// --trace 0 reports the end-to-end metrics of untraced passes. --trace 1
// alternates an untraced pass with a traced one, which drives the same
// calls one public entry point at a time under bench-side timers, and
// reports the per-layer metrics. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//===----------------------------------------------------------------------===//

#include "KnownAnswers.h"

#include "alias/PointsTo.h"
#include "bebop/Bebop.h"
#include "c2bp/AbstractionMemo.h"
#include "c2bp/C2bp.h"
#include "cfront/Normalize.h"
#include "cfront/Parser.h"
#include "cfront/Sema.h"
#include "slam/Cegar.h"
#include "slam/Newton.h"
#include "support/Json.h"
#include "support/Timer.h"
#include "workloads/Workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace slam;

namespace {

//===----------------------------------------------------------------------===//
// Programs and outcomes
//===----------------------------------------------------------------------===//

/// One program of a workload, with the answer it must reach.
struct Job {
  std::string Name;
  /// Driver model for the SLAM loop; null for a Table 2 program.
  std::optional<workloads::DriverModel> Model;
  int MaxIterations = 0;
  /// Table 2 program; null for a driver model.
  const workloads::Workload *W = nullptr;
  const perfbench::KnownAnswer *Expected = nullptr;
};

/// The counts a run must repeat exactly at the same worker count.
struct Counts {
  int Iterations = 0;
  size_t Predicates = 0;
  uint64_t ProverCalls = 0;
  uint64_t CubesChecked = 0;
  uint64_t BddNodes = 0;

  bool operator==(const Counts &) const = default;
};

struct Outcome {
  std::string Verdict = "error";
  Counts C;
  double Ms = 0;
  /// The final boolean program, kept for Table 2 fingerprints.
  std::string BoolProgram;
};

Counts countsOf(const Outcome &O, const StatsRegistry &S) {
  Counts C = O.C;
  C.ProverCalls = S.get("prover.calls");
  C.CubesChecked = S.get("c2bp.cubes_checked");
  C.BddNodes = S.get("bebop.bdd_nodes");
  return C;
}

//===----------------------------------------------------------------------===//
// Bench-side layer timers
//===----------------------------------------------------------------------===//

/// Milliseconds spent in each layer, summed over calls.
struct Layers {
  double ParseMs = 0;
  double SemaMs = 0; ///< analyze + instrument + re-analyze.
  double NormalizeMs = 0;
  double PointsToMs = 0; ///< One PointsTo build, outside TotalMs.
  double C2bpSetupMs = 0;
  double C2bpRunMs = 0;
  double BebopMs = 0;
  double NewtonMs = 0;
  double TeardownMs = 0;
  double TotalMs = 0; ///< Traced wall time to the verdict.
  uint64_t BpStmts = 0;

  double attributedMs() const {
    return ParseMs + SemaMs + NormalizeMs + C2bpSetupMs + C2bpRunMs +
           BebopMs + NewtonMs + TeardownMs;
  }

  void add(const Layers &O) {
    ParseMs += O.ParseMs;
    SemaMs += O.SemaMs;
    NormalizeMs += O.NormalizeMs;
    PointsToMs += O.PointsToMs;
    C2bpSetupMs += O.C2bpSetupMs;
    C2bpRunMs += O.C2bpRunMs;
    BebopMs += O.BebopMs;
    NewtonMs += O.NewtonMs;
    TeardownMs += O.TeardownMs;
    TotalMs += O.TotalMs;
    BpStmts += O.BpStmts;
  }
};

/// Adds the scope's wall time to *Slot; reads no clock when Slot is
/// null, so untraced runs carry no timing.
class LayerTimer {
public:
  explicit LayerTimer(double *Slot) : Slot(Slot) {
    if (Slot)
      Start = Clock::now();
  }
  ~LayerTimer() {
    if (Slot)
      *Slot +=
          std::chrono::duration<double, std::milli>(Clock::now() - Start)
              .count();
  }
  LayerTimer(const LayerTimer &) = delete;
  LayerTimer &operator=(const LayerTimer &) = delete;

private:
  using Clock = std::chrono::steady_clock;
  double *Slot;
  Clock::time_point Start;
};

double *slot(Layers *L, double Layers::*Field) {
  return L ? &(L->*Field) : nullptr;
}

uint64_t countStmts(const bp::BStmt *S) {
  if (!S)
    return 0;
  uint64_t N = S->Kind == bp::BStmtKind::Block ? 0 : 1;
  for (const bp::BStmt *Sub : S->Stmts)
    N += countStmts(Sub);
  return N + countStmts(S->Sub) + countStmts(S->Then) +
         countStmts(S->Else) + countStmts(S->Body);
}

uint64_t countStmts(const bp::BProgram &BP) {
  uint64_t N = 0;
  for (const bp::BProc *P : BP.Procs)
    N += countStmts(P->Body);
  return N;
}

//===----------------------------------------------------------------------===//
// One program run
//===----------------------------------------------------------------------===//

/// Cube length 3 everywhere (the paper's Table 1/2 setting).
c2bp::C2bpOptions abstractionOptions(int Workers) {
  c2bp::C2bpOptions O;
  O.Cubes.MaxCubeLength = 3;
  O.NumWorkers = Workers;
  return O;
}

slamtool::PipelineOptions pipelineOptions(const Job &J) {
  slamtool::PipelineOptions O;
  O.C2bp = abstractionOptions(1);
  O.Cegar.MaxIterations = J.MaxIterations;
  return O;
}

const char *slamVerdict(slamtool::SlamResult::Verdict V) {
  switch (V) {
  case slamtool::SlamResult::Verdict::Validated:
    return "validated";
  case slamtool::SlamResult::Verdict::BugFound:
    return "BUG FOUND";
  case slamtool::SlamResult::Verdict::Unknown:
    return "unknown";
  }
  return "error";
}

/// A driver model through the library front door, untimed inside. The
/// time runs from building the LogicContext to destroying it and the
/// result.
Outcome runDriver(const Job &J, StatsRegistry &S) {
  Outcome O;
  slamtool::PipelineOptions Opts = pipelineOptions(J);
  Timer T;
  {
    logic::LogicContext Ctx;
    DiagnosticEngine Diags;
    auto R = slamtool::checkSafety(J.Model->Source, J.Model->Spec, Ctx, Diags,
                                   Opts, &S);
    if (R) {
      O.Verdict = slamVerdict(R->V);
      O.C.Iterations = R->Iterations;
      O.C.Predicates = R->Predicates.totalCount();
    }
  }
  O.Ms = T.millis();
  O.C = countsOf(O, S);
  return O;
}

/// The same SLAM loop as slamtool::checkProgram, one public call at a
/// time, each under a layer timer that also covers construction; the
/// destruction of each iteration's C2bpTool, BProgram and Bebop is timed
/// as teardown. The total spans the same scope as runDriver's.
Outcome runDriverTraced(const Job &J, StatsRegistry &S, Layers &L) {
  Outcome O;
  slamtool::PipelineOptions Opts = pipelineOptions(J);
  const std::string &Entry = Opts.Cegar.EntryProc;
  Timer Total;
  double UntimedMs = 0;
  {
    logic::LogicContext Ctx;
    DiagnosticEngine Diags;
    std::unique_ptr<cfront::Program> P;
    {
      LayerTimer T(&L.ParseMs);
      P = cfront::parseProgram(J.Model->Source, Diags);
    }
    bool Ok = P != nullptr;
    if (Ok) {
      LayerTimer T(&L.SemaMs);
      Ok = cfront::analyze(*P, Diags) &&
           slamtool::instrument(*P, J.Model->Spec, Entry, Diags);
    }
    if (Ok) {
      LayerTimer T(&L.NormalizeMs);
      Ok = cfront::normalize(*P, Diags);
    }
    if (Ok) {
      LayerTimer T(&L.SemaMs);
      DiagnosticEngine Rerun;
      Ok = cfront::analyze(*P, Rerun);
    }
    if (!Ok)
      return O;
    {
      Timer Probe;
      alias::PointsTo PT(*P, Opts.C2bp.AliasMode);
      double Ms = Probe.millis();
      L.PointsToMs += Ms;
      UntimedMs += Ms;
    }

    c2bp::PredicateSet Preds;
    slamtool::seedPredicates(Ctx, J.Model->Spec, Preds);
    c2bp::AbstractionMemo Memo;
    c2bp::C2bpOptions C2 = Opts.C2bp;
    if (Opts.Cegar.Incremental)
      C2.Memo = &Memo;
    prover::Prover NewtonProver(Ctx, &S);

    O.Verdict = "unknown";
    for (int Iter = 0; Iter != Opts.Cegar.MaxIterations; ++Iter) {
      O.C.Iterations = Iter + 1;
      std::unique_ptr<c2bp::C2bpTool> Tool;
      {
        LayerTimer T(&L.C2bpSetupMs);
        Tool = std::make_unique<c2bp::C2bpTool>(*P, Preds, Ctx, C2, &S);
      }
      std::unique_ptr<bp::BProgram> BP;
      {
        LayerTimer T(&L.C2bpRunMs);
        BP = Tool->run();
        Memo.commit();
      }
      {
        Timer Count;
        L.BpStmts += countStmts(*BP);
        UntimedMs += Count.millis();
      }
      std::unique_ptr<bebop::Bebop> Checker;
      bebop::CheckResult Check;
      {
        LayerTimer T(&L.BebopMs);
        Checker = std::make_unique<bebop::Bebop>(*BP, &S);
        Check = Checker->run(Entry);
      }
      bool Done = true;
      if (!Check.AssertViolated) {
        O.Verdict = "validated";
      } else {
        slamtool::NewtonResult NR;
        {
          LayerTimer T(&L.NewtonMs);
          NR = slamtool::analyzeTrace(*P, Check.Trace, Ctx, NewtonProver,
                                      Preds, &S);
        }
        if (NR.Feasible) {
          O.Verdict = "BUG FOUND";
        } else if (NR.NewPreds.totalCount() != 0) {
          Done = false;
          for (logic::ExprRef E : NR.NewPreds.Globals)
            Preds.addGlobal(E);
          for (const auto &[Proc, V] : NR.NewPreds.PerProc)
            for (logic::ExprRef E : V)
              Preds.addLocal(Proc, E);
        }
      }
      {
        LayerTimer T(&L.TeardownMs);
        Check = {};
        Checker.reset();
        BP.reset();
        Tool.reset();
      }
      if (Done)
        break;
    }
    O.C.Predicates = Preds.totalCount();
  }
  O.Ms = Total.millis() - UntimedMs;
  L.TotalMs += O.Ms;
  O.C = countsOf(O, S);
  return O;
}

/// A Table 2 program: front end, predicate file, C2bp, Bebop. With a
/// null \p L it runs with no timer inside; otherwise each call is timed
/// as in runDriverTraced. The boolean program's text is kept, untimed,
/// for the fingerprint checks.
Outcome runTable2(const Job &J, int Workers, StatsRegistry &S, Layers *L) {
  Outcome O;
  const workloads::Workload &W = *J.W;
  Timer Total;
  double UntimedMs = 0;
  {
    logic::LogicContext Ctx;
    DiagnosticEngine Diags;
    std::unique_ptr<cfront::Program> P;
    {
      LayerTimer T(slot(L, &Layers::ParseMs));
      P = cfront::parseProgram(W.Source, Diags);
    }
    bool Ok = P != nullptr;
    if (Ok) {
      LayerTimer T(slot(L, &Layers::SemaMs));
      Ok = cfront::analyze(*P, Diags);
    }
    if (Ok) {
      LayerTimer T(slot(L, &Layers::NormalizeMs));
      Ok = cfront::normalize(*P, Diags);
    }
    if (Ok) {
      LayerTimer T(slot(L, &Layers::SemaMs));
      DiagnosticEngine Rerun;
      Ok = cfront::analyze(*P, Rerun);
    }
    std::optional<c2bp::PredicateSet> Preds;
    if (Ok)
      Preds = c2bp::parsePredicateFile(Ctx, W.Predicates, Diags);
    if (!Preds)
      return O;
    c2bp::C2bpOptions Opts = abstractionOptions(Workers);
    if (L) {
      Timer Probe;
      alias::PointsTo PT(*P, Opts.AliasMode);
      double Ms = Probe.millis();
      L->PointsToMs += Ms;
      UntimedMs += Ms;
    }

    std::unique_ptr<c2bp::C2bpTool> Tool;
    {
      LayerTimer T(slot(L, &Layers::C2bpSetupMs));
      Tool = std::make_unique<c2bp::C2bpTool>(*P, *Preds, Ctx, Opts, &S);
    }
    std::unique_ptr<bp::BProgram> BP;
    {
      LayerTimer T(slot(L, &Layers::C2bpRunMs));
      BP = Tool->run();
    }
    if (L) {
      Timer Count;
      L->BpStmts += countStmts(*BP);
      UntimedMs += Count.millis();
    }
    std::unique_ptr<bebop::Bebop> Checker;
    bool Violated = false;
    {
      LayerTimer T(slot(L, &Layers::BebopMs));
      Checker = std::make_unique<bebop::Bebop>(*BP, &S);
      Violated = Checker->run(W.Entry).AssertViolated;
    }
    {
      Timer Print;
      O.BoolProgram = BP->str();
      UntimedMs += Print.millis();
    }
    {
      LayerTimer T(slot(L, &Layers::TeardownMs));
      Checker.reset();
      BP.reset();
      Tool.reset();
    }
    O.Verdict = Violated ? "violated" : "not violated";
    O.C.Iterations = 1;
    O.C.Predicates = Preds->totalCount();
  }
  O.Ms = Total.millis() - UntimedMs;
  if (L)
    L->TotalMs += O.Ms;
  O.C = countsOf(O, S);
  return O;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

const perfbench::KnownAnswer *knownAnswer(const std::string &Name) {
  for (const perfbench::KnownAnswer &A : perfbench::KnownAnswers)
    if (Name == A.Program)
      return &A;
  std::fprintf(stderr, "perfbench: no known answer for '%s'\n", Name.c_str());
  std::exit(2);
}

/// Default refinement cap, raised for models whose convergence needs
/// more rounds: one spurious trace is refuted per dispatch routine.
int iterationCap(const workloads::DriverConfig &C) {
  return std::max(slamtool::CegarOptions().MaxIterations,
                  2 * C.NumDispatch + 2);
}

std::vector<Job> driverJobs(unsigned Seed) {
  std::vector<Job> Jobs;
  for (workloads::DriverModel &M : workloads::table1Drivers()) {
    Job J;
    J.Name = M.Name;
    J.MaxIterations = slamtool::CegarOptions().MaxIterations;
    J.Model = std::move(M);
    Jobs.push_back(std::move(J));
  }
  for (int Dispatch : {32, 64}) {
    workloads::DriverConfig C;
    C.Name = "dispatch" + std::to_string(Dispatch);
    C.NumDispatch = Dispatch;
    C.Seed = Seed;
    Job J;
    J.Name = C.Name;
    J.MaxIterations = iterationCap(C);
    J.Model = workloads::generateDriver(C);
    Jobs.push_back(std::move(J));
  }
  for (Job &J : Jobs)
    J.Expected = knownAnswer(J.Name);
  return Jobs;
}

std::vector<Job> table2Jobs() {
  std::vector<Job> Jobs;
  for (const workloads::Workload *W : workloads::table2Workloads()) {
    Job J;
    J.Name = W->Name;
    J.W = W;
    J.Expected = knownAnswer(J.Name);
    Jobs.push_back(std::move(J));
  }
  return Jobs;
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Linear-interpolation quantile of \p V (0 <= Q <= 1).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Quantile of a log2-bucketed latency histogram, interpolated linearly
/// inside the bucket that holds the rank and capped at the maximum.
double histogramQuantile(const LatencyHistogram &H, double Q) {
  if (H.count() == 0)
    return 0;
  double Rank = Q * static_cast<double>(H.count());
  double Seen = 0;
  for (int B = 0; B != LatencyHistogram::NumBuckets; ++B) {
    double N = static_cast<double>(H.bucket(B));
    if (N == 0 || Seen + N < Rank) {
      Seen += N;
      continue;
    }
    if (B == 0)
      return 0;
    double Lo = static_cast<double>(LatencyHistogram::bucketUpperBound(B - 1));
    double Hi = static_cast<double>(LatencyHistogram::bucketUpperBound(B));
    double V = Lo + (Hi - Lo) * (Rank - Seen) / N;
    return std::min(V, static_cast<double>(H.maxMicros()));
  }
  return static_cast<double>(H.maxMicros());
}

double ratio(double Num, double Den) { return Den == 0 ? 0 : Num / Den; }

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

//===----------------------------------------------------------------------===//
// The run
//===----------------------------------------------------------------------===//

/// Set-ups per process; setup_s is their median.
constexpr int NumSetups = 5;

struct Config {
  std::string Workload;
  unsigned Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string RecordPath;
};

/// One workload's harness state: the programs, their references, and
/// the failure tally.
class Bench {
public:
  explicit Bench(const Config &C) : C(C) {
    Workers = C.Workload == "table2-j4" ? 4 : 1;
  }

  bool known() const {
    return C.Workload == "drivers" || C.Workload == "table2" ||
           C.Workload == "table2-j4";
  }

  /// Builds the inputs and runs the warm-up pass; the last call's
  /// outcomes become the references. Returns the seconds taken.
  double setup() {
    Timer T;
    Jobs = C.Workload == "drivers" ? driverJobs(C.Seed) : table2Jobs();
    Reference.assign(Jobs.size(), Outcome());
    J1Reference.clear();
    if (Workers != 1) {
      // The -j 1 boolean programs and counts this workload must match
      // (programs) or is compared against (counts, recorded as data).
      for (const Job &J : Jobs) {
        StatsRegistry S;
        ++Attempted;
        J1Reference.push_back(runTable2(J, 1, S, nullptr));
        checkAnswer(J, J1Reference.back());
      }
    }
    for (size_t I = 0; I != Jobs.size(); ++I) {
      StatsRegistry S;
      Outcome O = run(I, S, nullptr);
      checkAnswer(Jobs[I], O);
      if (Workers != 1 && O.BoolProgram != J1Reference[I].BoolProgram)
        fail(Jobs[I], "boolean program differs from -j 1");
      Reference[I] = std::move(O);
    }
    return T.seconds();
  }

  /// One untraced pass; returns its wall seconds. \p ProgramsMs gets the
  /// sum of the programs' own times, the span the traced total covers.
  double untracedPass(std::vector<std::vector<double>> &ProgramMs,
                      double &ProgramsMs) {
    Timer T;
    ProgramsMs = 0;
    for (size_t I = 0; I != Jobs.size(); ++I) {
      StatsRegistry S;
      Outcome O = run(I, S, nullptr);
      check(I, O, "untraced");
      ProgramMs[I].push_back(O.Ms);
      ProgramsMs += O.Ms;
    }
    return T.seconds();
  }

  /// One traced pass: layer times and the merged counters of all its
  /// programs.
  void tracedPass(Layers &L, StatsRegistry &S) {
    for (size_t I = 0; I != Jobs.size(); ++I) {
      StatsRegistry Local;
      Layers PL;
      Outcome O = run(I, Local, &PL);
      check(I, O, "traced");
      L.add(PL);
      S.mergeFrom(Local);
    }
  }

  const std::vector<Job> &jobs() const { return Jobs; }
  const std::vector<Outcome> &references() const { return Reference; }
  const std::vector<Outcome> &j1References() const { return J1Reference; }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  int workers() const { return Workers; }

private:
  Outcome run(size_t I, StatsRegistry &S, Layers *L) {
    const Job &J = Jobs[I];
    ++Attempted;
    if (J.Model)
      return L ? runDriverTraced(J, S, *L) : runDriver(J, S);
    return runTable2(J, Workers, S, L);
  }

  void fail(const Job &J, const std::string &Why) {
    ++Failed;
    std::fprintf(stderr, "perfbench: FAIL %s: %s\n", J.Name.c_str(),
                 Why.c_str());
  }

  void checkAnswer(const Job &J, const Outcome &O) {
    if (O.Verdict != J.Expected->Verdict)
      fail(J, "verdict '" + O.Verdict + "', expected '" +
                  J.Expected->Verdict + "'");
    else if (O.C.Iterations != J.Expected->Iterations)
      fail(J, std::to_string(O.C.Iterations) + " iterations, expected " +
                  std::to_string(J.Expected->Iterations));
  }

  /// A measured run must reach the known answer and repeat the
  /// reference's counts and boolean program exactly. For the drivers the
  /// reference comes from checkSafety, so this is also the traced run's
  /// agreement check.
  void check(size_t I, const Outcome &O, const char *Mode) {
    const Job &J = Jobs[I];
    uint64_t Before = Failed;
    checkAnswer(J, O);
    if (Failed != Before)
      return;
    if (!(O.C == Reference[I].C))
      fail(J, std::string(Mode) + " run's counts differ from the reference");
    else if (O.BoolProgram != Reference[I].BoolProgram)
      fail(J, std::string(Mode) + " run's boolean program differs");
  }

  const Config &C;
  int Workers = 1;
  std::vector<Job> Jobs;
  std::vector<Outcome> Reference;
  std::vector<Outcome> J1Reference;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Per-layer metrics of one traced pass, beside its untraced twin;
/// \p UntracedMs is the twin's sum of program times.
std::vector<Metric> layerMetrics(const Layers &L, const StatsRegistry &S,
                                 const Bench &B, double UntracedMs) {
  LatencyHistogram Q = S.histogram("prover.query_us");
  double Calls = static_cast<double>(S.get("prover.calls"));
  double Hits = static_cast<double>(S.get("prover.cache_hits") +
                                    S.get("prover.shared_cache_hits") +
                                    S.get("prover.neg_cache_hits"));
  double MemoHits = static_cast<double>(S.get("c2bp.memo_hits"));
  double MemoMisses = static_cast<double>(S.get("c2bp.memo_misses"));
  double Iterations = 0, Predicates = 0;
  for (const Outcome &O : B.references()) {
    Iterations += O.C.Iterations;
    Predicates += static_cast<double>(O.C.Predicates);
  }
  auto Count = [&](const char *Name) {
    return static_cast<double>(S.get(Name));
  };
  return {
      {"cfront.parse_ms", L.ParseMs, "ms"},
      {"cfront.sema_ms", L.SemaMs, "ms"},
      {"cfront.normalize_ms", L.NormalizeMs, "ms"},
      {"alias.points_to_ms", L.PointsToMs, "ms"},
      {"c2bp.setup_ms", L.C2bpSetupMs, "ms"},
      {"c2bp.run_ms", L.C2bpRunMs, "ms"},
      {"c2bp.cubes_checked", Count("c2bp.cubes_checked"), "count"},
      {"c2bp.memo_hit_ratio", ratio(MemoHits, MemoHits + MemoMisses),
       "ratio"},
      {"c2bp.stmts_recomputed", Count("c2bp.stmts_recomputed"), "count"},
      {"c2bp.bp_stmts", static_cast<double>(L.BpStmts), "count"},
      {"prover.calls", Calls, "count"},
      {"prover.busy_ms", static_cast<double>(Q.sumMicros()) / 1000.0, "ms"},
      {"prover.query_us.p50", histogramQuantile(Q, 0.50), "us"},
      {"prover.query_us.p99", histogramQuantile(Q, 0.99), "us"},
      {"prover.query_us.max", static_cast<double>(Q.maxMicros()), "us"},
      {"prover.cache_hit_ratio", ratio(Hits, Hits + Calls), "ratio"},
      {"bebop.ms", L.BebopMs, "ms"},
      {"bebop.bdd_nodes", Count("bebop.bdd_nodes"), "count"},
      {"bebop.pe_updates", Count("bebop.pe_updates"), "count"},
      {"newton.ms", L.NewtonMs, "ms"},
      {"newton.paths", Count("newton.paths"), "count"},
      {"newton.predicates", Count("newton.predicates"), "count"},
      {"slam.iterations", Iterations, "count"},
      {"slam.predicates", Predicates, "count"},
      {"slam.teardown_ms", L.TeardownMs, "ms"},
      {"slam.unattributed_ms", L.TotalMs - L.attributedMs(), "ms"},
      {"trace.overhead", ratio(L.TotalMs, UntracedMs) - 1, "ratio"},
  };
}

std::string formatQuartiles(const std::vector<double> &V) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "median %.3f  q1 %.3f  q3 %.3f  min %.3f  n %zu", median(V),
                quantile(V, 0.25), quantile(V, 0.75), quantile(V, 0), V.size());
  return Buf;
}

void printCounts(const char *Label, const Counts &C) {
  std::printf("  %-10s iters %3d  preds %4zu  prover.calls %6llu  "
              "cubes %7llu  bdd_nodes %7llu\n",
              Label, C.Iterations, C.Predicates,
              static_cast<unsigned long long>(C.ProverCalls),
              static_cast<unsigned long long>(C.CubesChecked),
              static_cast<unsigned long long>(C.BddNodes));
}

int usage() {
  std::fprintf(stderr,
               "usage: slam_perfbench --workload drivers|table2|table2-j4 "
               "--seed N --seconds S --trace 0|1 [--record FILE]\n");
  return 2;
}

bool parseArgs(int Argc, char **Argv, Config &C) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return false;
    const char *V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      C.Workload = V;
      continue;
    }
    if (A == "--record") {
      C.RecordPath = V;
      continue;
    }
    double N = std::strtod(V, &End);
    if (End == V || *End != '\0' || N < 0)
      return false;
    if (A == "--seed")
      C.Seed = static_cast<unsigned>(N);
    else if (A == "--seconds")
      C.Seconds = N;
    else if (A == "--trace")
      C.Trace = N != 0;
    else
      return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  if (!parseArgs(Argc, Argv, C))
    return usage();
  Bench B(C);
  if (!B.known())
    return usage();

  std::vector<double> SetupS;
  for (int I = 0; I != NumSetups; ++I)
    SetupS.push_back(B.setup());
  const std::vector<Job> &Jobs = B.jobs();

  // Pass 0 always runs, so --seconds 0 gives exactly one pass.
  std::vector<std::vector<double>> ProgramMs(Jobs.size());
  std::vector<double> PassS;
  std::vector<std::vector<Metric>> LayerRuns;
  Timer Clock;
  for (int Pass = 0; Pass == 0 || Clock.seconds() < C.Seconds; ++Pass) {
    double ProgramsMs = 0;
    if (!C.Trace) {
      PassS.push_back(B.untracedPass(ProgramMs, ProgramsMs));
      continue;
    }
    // Alternate which half runs first so neither gets warmer caches.
    Layers L;
    StatsRegistry S;
    if (Pass % 2)
      B.tracedPass(L, S);
    PassS.push_back(B.untracedPass(ProgramMs, ProgramsMs));
    if (Pass % 2 == 0)
      B.tracedPass(L, S);
    LayerRuns.push_back(layerMetrics(L, S, B, ProgramsMs));
  }

  // The human-readable report.
  std::printf("workload %s  seed %u  -j %d  trace %d\n", C.Workload.c_str(),
              C.Seed, B.workers(), C.Trace ? 1 : 0);
  std::printf("setup_s   %s  first %.3f\n", formatQuartiles(SetupS).c_str(),
              SetupS.front());
  std::printf("suite_s   %s\n", formatQuartiles(PassS).c_str());
  std::vector<double> ProgramMedians;
  for (size_t I = 0; I != Jobs.size(); ++I) {
    ProgramMedians.push_back(median(ProgramMs[I]));
    std::printf("%-10s %-12s ms %s\n", Jobs[I].Name.c_str(),
                B.references()[I].Verdict.c_str(),
                formatQuartiles(ProgramMs[I]).c_str());
    printCounts("counts", B.references()[I].C);
    if (!B.j1References().empty() &&
        !(B.j1References()[I].C == B.references()[I].C))
      printCounts("at -j 1", B.j1References()[I].C);
  }
  double LogSum = 0;
  for (double Ms : ProgramMedians)
    LogSum += std::log(Ms);
  double Geomean = std::exp(LogSum / static_cast<double>(Jobs.size()));

  std::vector<Metric> Metrics;
  if (!C.Trace) {
    Metrics = {
        {"suite_s", median(PassS), "s"},
        {"program_ms.geomean", Geomean, "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"setup_s", median(SetupS), "s"},
    };
  } else {
    // Each layer metric is the median over traced passes.
    for (size_t K = 0; K != LayerRuns.front().size(); ++K) {
      std::vector<double> V;
      for (const std::vector<Metric> &Run : LayerRuns)
        V.push_back(Run[K].Value);
      Metrics.push_back({LayerRuns.front()[K].Name, median(V),
                         LayerRuns.front()[K].Unit});
    }
    Metrics.push_back({"fail_rate",
                       ratio(static_cast<double>(B.failed()),
                             static_cast<double>(B.attempted())),
                       "ratio"});
  }
  for (const Metric &M : Metrics)
    std::printf("  %-24s %14.4f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());

  std::string Out;
  json::Writer W(Out);
  W.beginObject();
  W.kv("correct", B.failed() == 0);
  W.kv("attempted", B.attempted());
  W.kv("failed", B.failed());
  W.key("metrics");
  W.beginObject();
  for (const Metric &M : Metrics) {
    W.key(M.Name);
    W.beginObject();
    W.kv("value", M.Value);
    W.kv("unit", M.Unit);
    W.endObject();
  }
  W.endObject();
  W.endObject();

  if (!C.RecordPath.empty()) {
    // The exact-count record: per program, the reference counts at this
    // -j (and at -j 1 on table2-j4), verdict and timing quartiles.
    std::string Rec;
    json::Writer R(Rec);
    R.beginObject();
    R.kv("workload", C.Workload);
    R.kv("seed", C.Seed);
    R.kv("workers", B.workers());
    R.kv("trace", C.Trace);
    R.key("programs");
    R.beginArray();
    auto WriteCounts = [&](const char *Key, const Counts &Cs) {
      R.key(Key);
      R.beginObject();
      R.kv("slam.iterations", Cs.Iterations);
      R.kv("slam.predicates", static_cast<uint64_t>(Cs.Predicates));
      R.kv("prover.calls", Cs.ProverCalls);
      R.kv("c2bp.cubes_checked", Cs.CubesChecked);
      R.kv("bebop.bdd_nodes", Cs.BddNodes);
      R.endObject();
    };
    for (size_t I = 0; I != Jobs.size(); ++I) {
      R.beginObject();
      R.kv("name", Jobs[I].Name);
      R.kv("verdict", B.references()[I].Verdict);
      R.kv("ms.median", median(ProgramMs[I]));
      R.kv("ms.q1", quantile(ProgramMs[I], 0.25));
      R.kv("ms.q3", quantile(ProgramMs[I], 0.75));
      R.kv("samples", static_cast<uint64_t>(ProgramMs[I].size()));
      WriteCounts("counts", B.references()[I].C);
      if (!B.j1References().empty())
        WriteCounts("counts_j1", B.j1References()[I].C);
      R.endObject();
    }
    R.endArray();
    R.endObject();
    std::ofstream(C.RecordPath) << Rec << "\n";
  }

  std::printf("%s\n", Out.c_str());
  return 0;
}
