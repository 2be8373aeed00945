//===- IncrementalTest.cpp - Cross-iteration reuse ------------------------===//
//
// The abstraction memo, checked for the property that makes it safe to
// ship: it changes how much work runs, never what the pipeline answers.
// Memo on/off runs must produce the same verdict, iteration count,
// predicate set, and trace, and every round the same boolean program;
// the stats then pin down that the memo actually skipped the work.
//
//===----------------------------------------------------------------------===//

#include "bp/BPParser.h"
#include "c2bp/AbstractionMemo.h"
#include "cfront/Normalize.h"
#include "cfront/Parser.h"
#include "cfront/Sema.h"
#include "slam/Cegar.h"
#include "slam/Newton.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>

using namespace slam;
using namespace slam::slamtool;

namespace {

// The classic locking example under the driver's k=3 cube bound: the
// first abstraction is too coarse, so validation takes several CEGAR
// iterations — enough for iteration k+1 to reuse iteration k's work.
const char *LockingSource = R"(
    void AcquireLock() { }
    void ReleaseLock() { }
    int nondet();
    void main() {
      int flag;
      int work;
      flag = nondet();
      work = 0;
      if (flag > 0) {
        AcquireLock();
      }
      work = work + 1;
      if (flag > 0) {
        ReleaseLock();
      }
    }
  )";

struct PipeRun {
  SlamResult Result;
  StatsRegistry Stats; // Not movable: filled in place by runPipeline.
};

/// One fresh-process-like pipeline run: its own context, so interned
/// ids differ from every other run's (as they would across processes).
void runPipeline(const PipelineOptions &Options, PipeRun &R) {
  logic::LogicContext Ctx;
  DiagnosticEngine Diags;
  auto Res = checkSafety(LockingSource,
                         SafetySpec::lockDiscipline("AcquireLock",
                                                    "ReleaseLock"),
                         Ctx, Diags, Options, &R.Stats);
  EXPECT_TRUE(Res.has_value()) << Diags.str();
  R.Result = Res.value_or(SlamResult{});
}

PipelineOptions baseOptions() {
  PipelineOptions O;
  O.C2bp.Cubes.MaxCubeLength = 3; // The slam driver's default.
  return O;
}

/// A generated driver with \p N dispatch routines: it validates in
/// N + 1 rounds, each refining one dispatch routine.
workloads::DriverModel dispatchModel(int N) {
  workloads::DriverConfig C;
  C.Name = "dispatch" + std::to_string(N);
  C.NumDispatch = N;
  return workloads::generateDriver(C);
}

void runDispatch8(PipelineOptions Options, PipeRun &R) {
  workloads::DriverModel M = dispatchModel(8);
  logic::LogicContext Ctx;
  DiagnosticEngine Diags;
  auto Res = checkSafety(M.Source, M.Spec, Ctx, Diags, Options, &R.Stats);
  EXPECT_TRUE(Res.has_value()) << Diags.str();
  R.Result = Res.value_or(SlamResult{});
}

/// Everything the slam tool prints to stdout, as a comparison key:
/// reuse may only change the stats, never this.
std::string resultKey(const SlamResult &R) {
  std::ostringstream Out;
  Out << static_cast<int>(R.V) << '|' << R.Iterations << '|'
      << R.Predicates.totalCount() << '|';
  for (const auto &Step : R.Trace)
    Out << Step.ProcName << ';';
  return Out.str();
}

/// Every predicate, by scope, as text: comparable across contexts.
std::string predicateText(const c2bp::PredicateSet &Preds) {
  std::ostringstream Out;
  for (logic::ExprRef E : Preds.Globals)
    Out << "global: " << E->str() << '\n';
  for (const auto &[Proc, Es] : Preds.PerProc)
    for (logic::ExprRef E : Es)
      Out << Proc << ": " << E->str() << '\n';
  return Out.str();
}

} // namespace

TEST(Incremental, MemoDoesNotChangeTheAnswer) {
  PipelineOptions With = baseOptions();
  PipelineOptions Without = baseOptions();
  Without.Cegar.Incremental = false;
  PipeRun A;
  runPipeline(With, A);
  PipeRun B;
  runPipeline(Without, B);
  EXPECT_EQ(A.Result.V, SlamResult::Verdict::Validated);
  EXPECT_EQ(resultKey(A.Result), resultKey(B.Result));
  ASSERT_EQ(A.Result.FlightLog.size(), B.Result.FlightLog.size());
  for (size_t I = 0; I != A.Result.FlightLog.size(); ++I) {
    EXPECT_EQ(A.Result.FlightLog[I].Predicates,
              B.Result.FlightLog[I].Predicates);
    EXPECT_EQ(A.Result.FlightLog[I].NewPredicates,
              B.Result.FlightLog[I].NewPredicates);
  }
  // The memo only ever *removes* work: here round 2 rebuilds main,
  // whose predicates grew, and reuses both lock routines whole.
  EXPECT_EQ(A.Stats.get("c2bp.procs_reused"), 2u);
  EXPECT_EQ(B.Stats.get("c2bp.procs_reused"), 0u);
}

TEST(Incremental, ExamplesAnswerTheSameWithAndWithoutTheMemo) {
  SafetySpec Lock = SafetySpec::lockDiscipline("AcquireLock", "ReleaseLock");
  const std::pair<const char *, SafetySpec> Cases[] = {
      {"locking.c", Lock},
      {"locking_bug.c", Lock},
      {"irp.c", SafetySpec::irpDiscipline("CompleteRequest", "MarkPending")},
      {"dispatch.c", Lock}};
  for (const auto &[File, Spec] : Cases) {
    std::ifstream In(std::string(SLAM_EXAMPLES_DIR) + "/" + File);
    ASSERT_TRUE(In) << File;
    std::ostringstream Source;
    Source << In.rdbuf();
    std::string Keys[2], Preds[2];
    for (bool Memo : {false, true}) {
      PipelineOptions O = baseOptions();
      O.Cegar.Incremental = Memo;
      logic::LogicContext Ctx;
      DiagnosticEngine Diags;
      auto R = checkSafety(Source.str(), Spec, Ctx, Diags, O);
      ASSERT_TRUE(R.has_value()) << File << ": " << Diags.str();
      Keys[Memo] = resultKey(*R);
      Preds[Memo] = predicateText(R->Predicates);
    }
    EXPECT_EQ(Keys[true], Keys[false]) << File;
    EXPECT_EQ(Preds[true], Preds[false]) << File;
  }
}

// Round 2 of examples/programs/locking.c rebuilds main, whose new
// predicates grow the largest frame from 2 to 4 slots; the session
// widens its frame and keeps the lock routines' relations. main is the
// entry procedure, so the round's run starts from zero all the same.
TEST(Incremental, LockingExampleKeepsItsSessionWhenTheFrameGrows) {
  std::ifstream In(std::string(SLAM_EXAMPLES_DIR) + "/locking.c");
  ASSERT_TRUE(In);
  std::ostringstream Source;
  Source << In.rdbuf();
  logic::LogicContext Ctx;
  DiagnosticEngine Diags;
  StatsRegistry Stats;
  auto R = checkSafety(
      Source.str(), SafetySpec::lockDiscipline("AcquireLock", "ReleaseLock"),
      Ctx, Diags, baseOptions(), &Stats);
  ASSERT_TRUE(R.has_value()) << Diags.str();
  EXPECT_EQ(R->V, SlamResult::Verdict::Validated);
  ASSERT_EQ(R->Iterations, 2);
  EXPECT_EQ(R->FlightLog[1].ProcsReused, 2u);
  EXPECT_GT(Stats.get("bebop.relations_reused"), 0u);
  EXPECT_EQ(Stats.get("bebop.steps_resumed"), 0u);
}

TEST(Incremental, NonIncrementalLogsNoReuse) {
  PipelineOptions O = baseOptions();
  O.Cegar.Incremental = false;
  PipeRun R;
  runPipeline(O, R);
  for (const IterationRecord &Rec : R.Result.FlightLog)
    EXPECT_EQ(Rec.ProcsReused, 0u);
}

namespace {

/// The front end as checkSafety runs it, keeping the program.
std::unique_ptr<cfront::Program> prepare(const workloads::DriverModel &M,
                                         DiagnosticEngine &Diags) {
  auto P = cfront::parseProgram(M.Source, Diags);
  DiagnosticEngine Rerun;
  if (!P || !cfront::analyze(*P, Diags) ||
      !instrument(*P, M.Spec, "main", Diags) ||
      !cfront::normalize(*P, Diags) || !cfront::analyze(*P, Rerun))
    return nullptr;
  return P;
}

/// Abstracts \p P under \p Preds with no memo: the reference output.
std::string freshAbstraction(const cfront::Program &P,
                             const c2bp::PredicateSet &Preds,
                             logic::LogicContext &Ctx) {
  return c2bp::C2bpTool(P, Preds, Ctx, baseOptions().C2bp).run()->str();
}

/// The statements \p S stands for in the concrete syntax, which prints
/// a block's nested blocks inline: a block's statements, flattened, or
/// \p S itself.
void flatten(bp::BStmt *S, std::vector<bp::BStmt *> &Out) {
  if (!S)
    return;
  if (S->Kind != bp::BStmtKind::Block) {
    Out.push_back(S);
    return;
  }
  for (bp::BStmt *Sub : S->Stmts)
    flatten(Sub, Out);
}

/// Copies the origin ids and branch sides of the statements \p From
/// stands for onto those \p To stands for, which must have the same
/// shape: the concrete syntax of a boolean program does not carry
/// them, but traces do.
void copyOrigins(bp::BStmt *From, bp::BStmt *To) {
  std::vector<bp::BStmt *> Fs, Ts;
  flatten(From, Fs);
  flatten(To, Ts);
  ASSERT_EQ(Fs.size(), Ts.size());
  for (size_t I = 0; I != Fs.size(); ++I) {
    const bp::BStmt &F = *Fs[I];
    bp::BStmt &T = *Ts[I];
    ASSERT_EQ(F.Kind, T.Kind);
    T.OriginId = F.OriginId;
    T.BranchTaken = F.BranchTaken;
    copyOrigins(F.Sub, T.Sub);
    copyOrigins(F.Then, T.Then);
    copyOrigins(F.Else, T.Else);
    copyOrigins(F.Body, T.Body);
  }
}

/// \p BP parsed back from its printed form, with its origin ids: the
/// same program in fresh procedures, whose CFGs no Bebop has read yet.
std::unique_ptr<bp::BProgram> reparse(const bp::BProgram &BP) {
  DiagnosticEngine Diags;
  std::unique_ptr<bp::BProgram> Fresh = bp::parseBProgram(BP.str(), Diags);
  EXPECT_TRUE(Fresh && bp::verifyBProgram(*Fresh, Diags)) << Diags.str();
  if (!Fresh || Fresh->Procs.size() != BP.Procs.size())
    return nullptr;
  for (size_t I = 0; I != BP.Procs.size(); ++I)
    copyOrigins(BP.Procs[I]->Body, Fresh->Procs[I]->Body);
  return Fresh;
}

/// A Bebop run as a comparison key: the verdict, the failing assert,
/// every trace step (procedure, operation, origin id and statement)
/// and the BDD node count.
std::string checkKey(const bebop::CheckResult &R, size_t BddNodes) {
  std::ostringstream Out;
  Out << R.AssertViolated << ' ' << R.FailingProc << ' '
      << (R.FailingStmt ? bp::printBStmt(*R.FailingStmt) : "") << '\n';
  for (const bebop::TraceStep &Step : R.Trace)
    Out << Step.ProcName << ' ' << static_cast<int>(Step.Op) << ' '
        << Step.OriginId << ' '
        << (Step.Stmt ? bp::printBStmt(*Step.Stmt) : "<exit>") << '\n';
  Out << "bdd nodes " << BddNodes << '\n';
  return Out.str();
}

/// Adds the predicates Newton discovered, \p New, to \p Preds.
void addPredicates(const c2bp::PredicateSet &New, c2bp::PredicateSet &Preds) {
  for (logic::ExprRef E : New.Globals)
    Preds.addGlobal(E);
  for (const auto &[Proc, V] : New.PerProc)
    for (logic::ExprRef E : V)
      Preds.addLocal(Proc, E);
}

c2bp::PredicateSet parsePreds(logic::LogicContext &Ctx,
                              const std::string &Text) {
  DiagnosticEngine Diags;
  auto Preds = c2bp::parsePredicateFile(Ctx, Text, Diags);
  EXPECT_TRUE(Preds.has_value()) << Diags.str();
  return Preds.value_or(c2bp::PredicateSet{});
}

} // namespace

// The CEGAR loop round by round, as checkProgram drives it: every
// round's boolean program built through the memo, with reused
// procedures, equals a memo-less abstraction of the same predicates,
// and Bebop answers the same on it, whose reused procedures keep the
// CFGs earlier rounds lowered, as on a fresh parse of it, whose
// procedures lower new ones. The 4-worker pass runs the rounds' tasks
// on worker threads while the memo is in use (ThreadSanitizer runs
// this suite).
TEST(Incremental, EveryRoundMatchesAMemoLessAbstraction) {
  std::vector<workloads::DriverModel> Models = workloads::table1Drivers();
  Models.push_back(dispatchModel(8));
  for (int Workers : {1, 4}) {
    for (const workloads::DriverModel &M : Models) {
      SCOPED_TRACE(M.Name + " -j " + std::to_string(Workers));
      logic::LogicContext Ctx;
      DiagnosticEngine Diags;
      std::unique_ptr<cfront::Program> P = prepare(M, Diags);
      ASSERT_TRUE(P) << Diags.str();
      c2bp::PredicateSet Preds;
      seedPredicates(Ctx, M.Spec, Preds);
      c2bp::AbstractionMemo Memo;
      c2bp::C2bpOptions Opts = baseOptions().C2bp;
      Opts.Memo = &Memo;
      Opts.NumWorkers = Workers;
      prover::Prover NewtonProver(Ctx);
      StatsRegistry Stats;
      int Rounds = 0;
      while (++Rounds <= 20) {
        auto BP = c2bp::C2bpTool(*P, Preds, Ctx, Opts, &Stats).run();
        Memo.commit();
        ASSERT_EQ(BP->str(), freshAbstraction(*P, Preds, Ctx))
            << "round " << Rounds;
        bebop::Bebop Checker(*BP);
        bebop::CheckResult Check = Checker.run("main");
        std::unique_ptr<bp::BProgram> Fresh = reparse(*BP);
        ASSERT_TRUE(Fresh) << "round " << Rounds;
        bebop::Bebop FreshChecker(*Fresh);
        bebop::CheckResult FreshCheck = FreshChecker.run("main");
        ASSERT_EQ(checkKey(Check, Checker.bddNodes()),
                  checkKey(FreshCheck, FreshChecker.bddNodes()))
            << "round " << Rounds;
        if (!Check.AssertViolated)
          break;
        NewtonResult NR =
            analyzeTrace(*P, Check.Trace, Ctx, NewtonProver, Preds);
        if (NR.Feasible || NR.NewPreds.totalCount() == 0)
          break;
        addPredicates(NR.NewPreds, Preds);
      }
      EXPECT_LE(Rounds, 20);
      if (M.Name == "dispatch8") {
        EXPECT_EQ(Rounds, 9); // NumDispatch + 1.
        EXPECT_GT(Stats.get("c2bp.procs_reused"), 0u);
      }
    }
  }
}

// A new predicate over a callee's formal enters the callee's signature,
// so every caller is rebuilt; one over a callee's local leaves the
// signature alone, so the callers are reused; a new global predicate
// enters every procedure's scope; a scope that loses all its
// predicates rebuilds its procedure alone.
TEST(Incremental, CalleeSignatureChangeRebuildsItsCallers) {
  const char *Source = R"(
    int g;
    void callee(int x) { int y; y = x; g = y; }
    void caller() { int a; a = 1; callee(a); }
    void other() { int b; b = 2; g = b; }
  )";
  const char *Rounds[] = {
      "caller:\na == 1\ncallee:\ny == 1\nother:\nb == 2\n",
      "caller:\na == 1\ncallee:\ny == 1, x == 1\nother:\nb == 2\n",
      "caller:\na == 1\ncallee:\ny == 1, x == 1, y == 2\nother:\nb == 2\n",
      "global:\ng == 1\ncaller:\na == 1\ncallee:\ny == 1, x == 1, y == 2\n"
      "other:\nb == 2\n",
      "global:\ng == 1\ncaller:\na == 1\ncallee:\ny == 1, x == 1, y == 2\n",
  };
  const uint64_t WantRebuilt[] = {3, 2, 1, 3, 1};
  logic::LogicContext Ctx;
  DiagnosticEngine Diags;
  auto P = cfront::frontend(Source, Diags);
  ASSERT_TRUE(P) << Diags.str();
  c2bp::AbstractionMemo Memo;
  c2bp::C2bpOptions Opts = baseOptions().C2bp;
  Opts.Memo = &Memo;
  std::string Previous;
  for (int I = 0; I != 5; ++I) {
    SCOPED_TRACE(I + 1);
    c2bp::PredicateSet Preds = parsePreds(Ctx, Rounds[I]);
    StatsRegistry Stats;
    std::string Text =
        c2bp::C2bpTool(*P, Preds, Ctx, Opts, &Stats).run()->str();
    Memo.commit();
    EXPECT_EQ(Text, freshAbstraction(*P, Preds, Ctx));
    EXPECT_EQ(Stats.get("c2bp.procs_rebuilt"), WantRebuilt[I]);
    EXPECT_EQ(Stats.get("c2bp.procs_reused"), 3 - WantRebuilt[I]);
    EXPECT_NE(Text, Previous);
    Previous = Text;
  }
  // Round 2 changed the call itself: callee takes {x == 1} from caller.
  EXPECT_NE(Previous.find("callee({a == 1})"), std::string::npos) << Previous;
  EXPECT_NE(Previous.find("decl {g == 1};"), std::string::npos) << Previous;
}

TEST(Incremental, ProceduresAreReusedFromRoundTwoOnDispatch8) {
  for (bool Incremental : {true, false}) {
    SCOPED_TRACE(Incremental);
    PipelineOptions O = baseOptions();
    O.Cegar.Incremental = Incremental;
    PipeRun Run;
    runDispatch8(O, Run);
    const SlamResult &R = Run.Result;
    ASSERT_EQ(R.FlightLog.size(), 9u);
    EXPECT_EQ(R.FlightLog[0].ProcsReused, 0u);
    for (size_t I = 1; I != R.FlightLog.size(); ++I) {
      const IterationRecord &Rec = R.FlightLog[I];
      if (Incremental) {
        EXPECT_GT(Rec.ProcsReused, 0u) << "round " << I + 1;
      } else {
        EXPECT_EQ(Rec.ProcsReused, 0u) << "round " << I + 1;
      }
      EXPECT_EQ(Rec.ProcsReused + Rec.ProcsRebuilt,
                R.FlightLog[0].ProcsRebuilt);
    }
    if (!Incremental) {
      EXPECT_EQ(Run.Stats.get("c2bp.procs_reused"), 0u);
    }
  }
}

namespace {

/// The labels of the statements \p S stands for.
void labelsOf(const bp::BStmt *S, std::vector<std::string> &Out) {
  if (!S)
    return;
  if (S->Kind == bp::BStmtKind::Label)
    Out.push_back(S->LabelName);
  for (const bp::BStmt *Sub : S->Stmts)
    labelsOf(Sub, Out);
  for (const bp::BStmt *Sub : {S->Sub, S->Then, S->Else, S->Body})
    labelsOf(Sub, Out);
}

/// A run of \p Checker on \p BP as a comparison key: checkKey, then the
/// reachable states at every labelled statement. Counts the labels in
/// \p Labels.
std::string sessionKey(bebop::Bebop &Checker, const bp::BProgram &BP,
                       bebop::CheckResult &Check, size_t &Labels) {
  Check = Checker.run("main");
  std::ostringstream Out;
  Out << checkKey(Check, Checker.bddNodes());
  for (const bp::BProc *Proc : BP.Procs) {
    std::vector<std::string> Names;
    labelsOf(Proc->Body, Names);
    for (const std::string &L : Names) {
      auto Cubes = Checker.reachableAtLabel(Proc->Name, L);
      Out << Proc->Name << ':' << L << (Cubes ? "" : " unknown") << '\n';
      for (const auto &Cube : Cubes.value_or(
               std::vector<std::map<std::string, bool>>{})) {
        for (const auto &[Var, Value] : Cube)
          Out << ' ' << (Value ? "" : "!") << Var;
        Out << '\n';
      }
      ++Labels;
    }
  }
  return Out.str();
}

} // namespace

// Every CEGAR round's checker over one bebop::Session answers as a fresh
// checker does on the same program: the verdict, the failing statement,
// the trace, the reachable states at every labelled statement and the
// node count. With the memo on, reused procedures keep their relations
// and call bindings, and a round resumes the last one's run up to the
// first seeding of a rebuilt procedure; with it off, every round's
// procedures are new, and nothing may be served for them, even where
// one lands at the address of a freed one.
TEST(Incremental, SessionCheckerMatchesAFreshCheckerEveryRound) {
  std::vector<workloads::DriverModel> Models = workloads::table1Drivers();
  Models.push_back(dispatchModel(8));
  Models.push_back(dispatchModel(16));
  for (bool UseMemo : {true, false}) {
    for (const workloads::DriverModel &M : Models) {
      SCOPED_TRACE(M.Name + (UseMemo ? " memo on" : " memo off"));
      logic::LogicContext Ctx;
      DiagnosticEngine Diags;
      std::unique_ptr<cfront::Program> P = prepare(M, Diags);
      ASSERT_TRUE(P) << Diags.str();
      c2bp::PredicateSet Preds;
      seedPredicates(Ctx, M.Spec, Preds);
      c2bp::AbstractionMemo Memo;
      c2bp::C2bpOptions Opts = baseOptions().C2bp;
      if (UseMemo)
        Opts.Memo = &Memo;
      prover::Prover NewtonProver(Ctx);
      StatsRegistry Stats;
      bebop::Session Session;
      int Rounds = 0;
      size_t Labels = 0;
      while (++Rounds <= 20) {
        auto BP = c2bp::C2bpTool(*P, Preds, Ctx, Opts).run();
        Memo.commit();
        bebop::CheckResult Check, FreshCheck;
        std::string Key, FreshKey;
        {
          bebop::Bebop Checker(*BP, &Stats, &Session);
          Key = sessionKey(Checker, *BP, Check, Labels);
        }
        {
          bebop::Bebop FreshChecker(*BP);
          FreshKey = sessionKey(FreshChecker, *BP, FreshCheck, Labels);
        }
        ASSERT_EQ(Key, FreshKey) << "round " << Rounds;
        if (!Check.AssertViolated)
          break;
        NewtonResult NR =
            analyzeTrace(*P, Check.Trace, Ctx, NewtonProver, Preds);
        if (NR.Feasible || NR.NewPreds.totalCount() == 0)
          break;
        addPredicates(NR.NewPreds, Preds);
      }
      EXPECT_LE(Rounds, 20);
      EXPECT_GT(Labels, 0u);
      if (M.Name == "dispatch8") {
        EXPECT_EQ(Rounds, 9); // NumDispatch + 1.
      }
      if (M.Name == "dispatch16") {
        EXPECT_EQ(Rounds, 17);
      }
      // Only a procedure the memo hands on can have relations to reuse,
      // or steps of its last run to resume.
      if (UseMemo && Rounds > 1) {
        EXPECT_GT(Stats.get("bebop.relations_reused"), 0u);
        EXPECT_GT(Stats.get("bebop.steps_resumed"), 0u);
      } else {
        EXPECT_EQ(Stats.get("bebop.relations_reused"), 0u);
        EXPECT_EQ(Stats.get("bebop.steps_resumed"), 0u);
      }
    }
  }
}

// A new predicate over a callee's local leaves its signature alone, so
// the memo hands its caller to the next round, but the callee's frame
// grows and its return slot moves: the reused caller's call binding must
// be rebuilt for the rebuilt callee. main's frame is the larger, so the
// session keeps its manager.
TEST(Incremental, SessionRebindsAReusedCallerToARebuiltCallee) {
  const char *Source = R"(
    int callee(int x) { int y; int z; y = x; z = 0; return y; }
    void main() {
      int a; int b; int c;
      b = 1; c = 1;
      a = callee(1);
      assert(a == 1);
    }
  )";
  const char *Rounds[] = {
      "callee:\ny == 1\nmain:\na == 1, b == 1, c == 1\n",
      "callee:\ny == 1, z == 0\nmain:\na == 1, b == 1, c == 1\n"};
  logic::LogicContext Ctx;
  DiagnosticEngine Diags;
  auto P = cfront::frontend(Source, Diags);
  ASSERT_TRUE(P) << Diags.str();
  c2bp::AbstractionMemo Memo;
  c2bp::C2bpOptions Opts = baseOptions().C2bp;
  Opts.Memo = &Memo;
  bebop::Session Session;
  for (int I = 0; I != 2; ++I) {
    SCOPED_TRACE(I + 1);
    StatsRegistry Stats;
    auto BP = c2bp::C2bpTool(*P, parsePreds(Ctx, Rounds[I]), Ctx, Opts, &Stats)
                  .run();
    Memo.commit();
    EXPECT_EQ(Stats.get("c2bp.procs_reused"), I == 0 ? 0u : 1u);
    bebop::CheckResult Check, FreshCheck;
    size_t Labels = 0;
    std::string Key;
    {
      bebop::Bebop Checker(*BP, &Stats, &Session);
      Key = sessionKey(Checker, *BP, Check, Labels);
    }
    bebop::Bebop FreshChecker(*BP);
    EXPECT_EQ(Key, sessionKey(FreshChecker, *BP, FreshCheck, Labels));
    // The callee may return false, so the assert may fail.
    EXPECT_TRUE(Check.AssertViolated);
  }
}

// A session serves one checker at a time.
TEST(Incremental, SessionRefusesASecondLiveChecker) {
  DiagnosticEngine Diags;
  auto BP = bp::parseBProgram("void main() begin skip; end", Diags);
  ASSERT_TRUE(BP && bp::verifyBProgram(*BP, Diags)) << Diags.str();
  bebop::Session Session;
  {
    bebop::Bebop First(*BP, nullptr, &Session);
    EXPECT_THROW(bebop::Bebop(*BP, nullptr, &Session), std::logic_error);
  }
  bebop::Bebop Next(*BP, nullptr, &Session);
  EXPECT_FALSE(Next.run("main").AssertViolated);
}

// The memo holds one program's facts, so it refuses a second program, a
// second logic context or different output-affecting options; the
// worker count does not affect output and may differ.
TEST(Incremental, MemoServesOneProgramAndOneSetOfOptions) {
  const char *Source = "int g; void main() { g = 1; }";
  logic::LogicContext Ctx, OtherCtx;
  DiagnosticEngine Diags;
  auto P = cfront::frontend(Source, Diags);
  auto Q = cfront::frontend(Source, Diags);
  ASSERT_TRUE(P && Q) << Diags.str();
  c2bp::PredicateSet Preds = parsePreds(Ctx, "global:\ng == 1\n");
  c2bp::AbstractionMemo Memo;
  c2bp::C2bpOptions Opts = baseOptions().C2bp;
  Opts.Memo = &Memo;
  auto Abstract = [&Preds](const cfront::Program &Prog,
                           logic::LogicContext &C,
                           const c2bp::C2bpOptions &O) {
    c2bp::C2bpTool(Prog, Preds, C, O).run();
  };
  Abstract(*P, Ctx, Opts);
  Memo.commit();

  c2bp::C2bpOptions MoreWorkers = Opts;
  MoreWorkers.NumWorkers = 4;
  EXPECT_NO_THROW(Abstract(*P, Ctx, MoreWorkers));
  EXPECT_THROW(Abstract(*Q, Ctx, Opts), std::invalid_argument);
  EXPECT_THROW(Abstract(*P, OtherCtx, Opts), std::invalid_argument);
  c2bp::C2bpOptions K2 = Opts;
  K2.Cubes.MaxCubeLength = 2;
  c2bp::C2bpOptions NoEnforce = Opts;
  NoEnforce.UseEnforce = false;
  c2bp::C2bpOptions NoAlias = Opts;
  NoAlias.UseAliasAnalysis = false;
  for (const c2bp::C2bpOptions &Bad : {K2, NoEnforce, NoAlias})
    EXPECT_THROW(Abstract(*P, Ctx, Bad), std::invalid_argument);
}
