//===- SoundnessTest.cpp - The Section 4.6 simulation theorem ----------------===//
//
// Checks C2bp's soundness statement dynamically: run the C program
// concretely while evaluating every predicate in each visited state, and
// verify that each emitted boolean transfer function is consistent with
// the observed transition —
//
//   * assignment `b_i := choose(pos, neg)`: if pos evaluates true over
//     the pre-state bits then the predicate must hold in the post-state;
//     if neg evaluates true it must be false (Section 4.3);
//   * a predicate NOT updated by the abstraction (optimization 2 / the
//     "unaffected" analysis) must have an unchanged concrete value;
//   * the assume guarding the taken branch must not evaluate to false
//     over the current bits (G's soundness, Section 4.4);
//   * the enforce invariant must hold in every visited state
//     (Section 5.1).
//
// Exercised on the paper's partition procedure over randomized input
// lists, and on randomly generated scalar programs with randomly chosen
// predicates (parameterized sweep).
//
//===----------------------------------------------------------------------===//

#include "bp/BPAst.h"
#include "c2bp/C2bp.h"
#include "cfront/Interp.h"
#include "cfront/Normalize.h"

#include <gtest/gtest.h>

#include <map>

using namespace slam;
using namespace slam::cfront;

namespace {

/// Kleene three-valued logic for evaluating boolean-program
/// expressions over concretely observed bits (U = the predicate is
/// undefined in this state, e.g. mentions a NULL dereference).
enum class Tri { F, T, U };

Tri triOf(const std::optional<Value> &V) {
  if (!V || V->K != Value::Kind::Int)
    return Tri::U;
  return V->I != 0 ? Tri::T : Tri::F;
}

Tri triNot(Tri A) {
  return A == Tri::U ? Tri::U : (A == Tri::T ? Tri::F : Tri::T);
}

Tri evalB(const bp::BExpr *E, const std::map<std::string, Tri> &Bits) {
  switch (E->Kind) {
  case bp::BExprKind::Const:
    return E->BoolValue ? Tri::T : Tri::F;
  case bp::BExprKind::Star:
    return Tri::U;
  case bp::BExprKind::VarRef: {
    auto It = Bits.find(E->Name);
    return It == Bits.end() ? Tri::U : It->second;
  }
  case bp::BExprKind::Not:
    return triNot(evalB(E->Ops[0], Bits));
  case bp::BExprKind::And: {
    Tri A = evalB(E->Ops[0], Bits), B = evalB(E->Ops[1], Bits);
    if (A == Tri::F || B == Tri::F)
      return Tri::F;
    if (A == Tri::U || B == Tri::U)
      return Tri::U;
    return Tri::T;
  }
  case bp::BExprKind::Or: {
    Tri A = evalB(E->Ops[0], Bits), B = evalB(E->Ops[1], Bits);
    if (A == Tri::T || B == Tri::T)
      return Tri::T;
    if (A == Tri::U || B == Tri::U)
      return Tri::U;
    return Tri::F;
  }
  case bp::BExprKind::Eq:
  case bp::BExprKind::Ne: {
    Tri A = evalB(E->Ops[0], Bits), B = evalB(E->Ops[1], Bits);
    if (A == Tri::U || B == Tri::U)
      return Tri::U;
    bool Same = A == B;
    return (E->Kind == bp::BExprKind::Eq) == Same ? Tri::T : Tri::F;
  }
  case bp::BExprKind::Choose: {
    Tri Pos = evalB(E->Ops[0], Bits);
    if (Pos == Tri::T)
      return Tri::T;
    Tri Neg = evalB(E->Ops[1], Bits);
    if (Pos == Tri::F && Neg == Tri::T)
      return Tri::F;
    return Tri::U;
  }
  }
  return Tri::U;
}

/// The lockstep checker: observes the concrete run and validates each
/// boolean transfer against it.
class SoundnessHook : public StepHook {
public:
  SoundnessHook(const Program &P, const bp::BProgram &BP,
                const c2bp::PredicateSet &Preds, Interpreter &Interp)
      : Prog(P), Preds(Preds), Interp(Interp) {
    indexOwners();
    indexBPStmts(BP);
  }

  int violations() const { return Violations; }
  int checkedTransfers() const { return Checked; }
  std::string firstViolation() const { return First; }

  void onStep(const Stmt &S, bool CondValue) override {
    const FuncDecl *F = Owner.at(&S);
    auto Bits = valuation(F);
    checkEnforce(F, Bits);
    if (S.Kind == CStmtKind::If || S.Kind == CStmtKind::While)
      checkBranchAssume(S, CondValue, Bits);
    if (S.Kind == CStmtKind::Assign)
      PreBits = Bits; // For afterStore.
  }

  void afterStore(const Stmt &S) override {
    if (S.Kind != CStmtKind::Assign)
      return;
    const FuncDecl *F = Owner.at(&S);
    auto Post = valuation(F);
    checkAssignTransfer(S, F, PreBits, Post);
  }

private:
  using Bits = std::map<std::string, Tri>;

  void indexOwners() {
    std::function<void(const Stmt *, const FuncDecl *)> Rec =
        [&](const Stmt *S, const FuncDecl *F) {
          Owner[S] = F;
          for (const Stmt *Sub : {S->Then, S->Else, S->Body, S->Sub})
            if (Sub)
              Rec(Sub, F);
          for (const Stmt *Sub : S->Stmts)
            Rec(Sub, F);
        };
    for (const FuncDecl *F : Prog.Functions)
      if (F->Body)
        Rec(F->Body, F);
  }

  void indexBPStmts(const bp::BProgram &BP) {
    std::function<void(const bp::BStmt *, const bp::BProc *)> Rec =
        [&](const bp::BStmt *S, const bp::BProc *Proc) {
          if (S->OriginId >= 0)
            ByOrigin[{Proc->Name, S->OriginId}].push_back(S);
          for (const bp::BStmt *Sub : {S->Then, S->Else, S->Body, S->Sub})
            if (Sub)
              Rec(Sub, Proc);
          for (const bp::BStmt *Sub : S->Stmts)
            Rec(Sub, Proc);
        };
    for (const bp::BProc *Proc : BP.Procs) {
      Enforce[Proc->Name] = Proc->Enforce;
      if (Proc->Body)
        Rec(Proc->Body, Proc);
    }
  }

  Bits valuation(const FuncDecl *F) const {
    Bits Out;
    for (logic::ExprRef E : Preds.Globals)
      Out[E->str()] = triOf(Interp.evalLogic(E));
    for (logic::ExprRef E : Preds.forProc(F->Name))
      Out[E->str()] = triOf(Interp.evalLogic(E));
    return Out;
  }

  void fail(const std::string &What) {
    ++Violations;
    if (First.empty())
      First = What;
  }

  void checkEnforce(const FuncDecl *F, const Bits &B) {
    auto It = Enforce.find(F->Name);
    if (It == Enforce.end() || !It->second)
      return;
    if (evalB(It->second, B) == Tri::F)
      fail("enforce invariant violated in " + F->Name);
  }

  void checkBranchAssume(const Stmt &S, bool Taken, const Bits &B) {
    auto It = ByOrigin.find({Owner.at(&S)->Name, static_cast<int>(S.Id)});
    if (It == ByOrigin.end())
      return;
    for (const bp::BStmt *BS : It->second) {
      if (BS->Kind != bp::BStmtKind::Assume ||
          BS->BranchTaken != (Taken ? 1 : 0))
        continue;
      ++Checked;
      if (evalB(BS->Cond, B) == Tri::F)
        fail("assume on the taken branch is false at C stmt " +
             std::to_string(S.Id) + " in " + Owner.at(&S)->Name);
    }
  }

  void checkAssignTransfer(const Stmt &S, const FuncDecl *F,
                           const Bits &Pre, const Bits &Post) {
    auto It = ByOrigin.find({F->Name, static_cast<int>(S.Id)});
    std::map<std::string, const bp::BExpr *> Updates;
    if (It != ByOrigin.end()) {
      for (const bp::BStmt *BS : It->second) {
        if (BS->Kind != bp::BStmtKind::Assign)
          continue;
        for (size_t I = 0; I != BS->Targets.size(); ++I)
          Updates[BS->Targets[I]] = BS->Exprs[I];
      }
    }
    for (const auto &[Name, PostVal] : Post) {
      auto PreIt = Pre.find(Name);
      Tri PreVal = PreIt == Pre.end() ? Tri::U : PreIt->second;
      auto U = Updates.find(Name);
      ++Checked;
      if (U == Updates.end()) {
        // Not updated: the abstraction claims the value is unchanged.
        if (PreVal != Tri::U && PostVal != Tri::U && PreVal != PostVal)
          fail("skipped predicate '" + Name + "' changed across C stmt " +
               std::to_string(S.Id) + " in " + F->Name);
        continue;
      }
      Tri Claimed = evalB(U->second, Pre);
      if (Claimed == Tri::T && PostVal == Tri::F)
        fail("transfer claims '" + Name + "' true but it is false after "
             "C stmt " + std::to_string(S.Id) + " in " + F->Name);
      if (Claimed == Tri::F && PostVal == Tri::T)
        fail("transfer claims '" + Name + "' false but it is true after "
             "C stmt " + std::to_string(S.Id) + " in " + F->Name);
    }
  }

  const Program &Prog;
  const c2bp::PredicateSet &Preds;
  Interpreter &Interp;
  std::map<const Stmt *, const FuncDecl *> Owner;
  std::map<std::pair<std::string, int>, std::vector<const bp::BStmt *>>
      ByOrigin;
  std::map<std::string, const bp::BExpr *> Enforce;
  Bits PreBits;
  int Violations = 0;
  int Checked = 0;
  std::string First;
};

//===----------------------------------------------------------------------===//
// Partition over randomized lists
//===----------------------------------------------------------------------===//

class PartitionSoundness : public ::testing::TestWithParam<int> {};

TEST_P(PartitionSoundness, TransfersSimulateConcreteRuns) {
  const char *Source = R"(
typedef struct cell { int val; struct cell* next; } *list;
list partition(list *l, int v) {
  list curr, prev, newl, nextcurr;
  curr = *l;
  prev = NULL;
  newl = NULL;
  while (curr != NULL) {
    nextcurr = curr->next;
    if (curr->val > v) {
      if (prev != NULL)
        prev->next = nextcurr;
      if (curr == *l)
        *l = nextcurr;
      curr->next = newl;
      newl = curr;
    } else {
      prev = curr;
    }
    curr = nextcurr;
  }
  return newl;
}
)";
  const char *PredText = R"(
partition:
  curr == NULL, prev == NULL,
  curr->val > v, prev->val > v
)";
  DiagnosticEngine Diags;
  auto P = frontend(Source, Diags);
  ASSERT_TRUE(P != nullptr) << Diags.str();
  logic::LogicContext Ctx;
  auto Preds = c2bp::parsePredicateFile(Ctx, PredText, Diags);
  ASSERT_TRUE(Preds.has_value());
  auto BP = c2bp::abstractProgram(*P, *Preds, Ctx);
  ASSERT_TRUE(BP != nullptr);

  // A random list per seed.
  int Seed = GetParam();
  Interpreter I(*P, static_cast<uint64_t>(Seed));
  const RecordDecl *Rec = P->Types.findRecord("cell");
  int Head = 0;
  int Length = Seed % 6;
  for (int K = 0; K != Length; ++K) {
    int Node = I.allocStruct(Rec);
    I.setField(Node, "val", Value::makeInt((Seed * (K + 3)) % 17 - 8));
    I.setField(Node, "next",
               Head ? Value::makePtr(Head) : Value::null());
    Head = Node;
  }
  int LCell = I.allocCell(Head ? Value::makePtr(Head) : Value::null());

  SoundnessHook Hook(*P, *BP, *Preds, I);
  auto Out = I.run("partition",
                   {Value::makePtr(LCell), Value::makeInt(Seed % 7 - 3)},
                   &Hook);
  EXPECT_EQ(Out, Interpreter::Outcome::Finished);
  EXPECT_EQ(Hook.violations(), 0) << Hook.firstViolation();
  if (Length > 0) {
    EXPECT_GT(Hook.checkedTransfers(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Lists, PartitionSoundness,
                         ::testing::Range(1, 15));

//===----------------------------------------------------------------------===//
// Random scalar programs with random predicates
//===----------------------------------------------------------------------===//

struct Rng {
  uint64_t State;
  uint32_t next() {
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    return static_cast<uint32_t>(State >> 32);
  }
  uint32_t range(uint32_t N) { return next() % N; }
};

std::string randomScalarProgram(Rng &R, int NumStmts) {
  static const char *Vars[] = {"a", "b", "c"};
  auto Var = [&R] { return std::string(Vars[R.range(3)]); };
  // A statement assigning to anything except \p Avoid (so loop
  // counters are never clobbered into divergence).
  auto Term = [&](const std::string &Pad, std::string &Out,
                  const std::string &Avoid = "") {
    std::string X = Var();
    while (X == Avoid)
      X = Var();
    switch (R.range(4)) {
    case 0:
      Out += Pad + X + " = " + std::to_string(int(R.range(11)) - 5) + ";\n";
      break;
    case 1:
      Out += Pad + X + " = " + Var() + " + " +
             std::to_string(1 + R.range(4)) + ";\n";
      break;
    case 2:
      Out += Pad + X + " = " + Var() + " - " + Var() + ";\n";
      break;
    default:
      Out += Pad + X + " = " + Var() + " * 2;\n";
      break;
    }
  };
  std::string Out = "void f(int a, int b) {\n  int c;\n  c = 0;\n";
  for (int I = 0; I != NumStmts; ++I) {
    switch (R.range(5)) {
    case 0: {
      Out += "  if (" + Var() +
             (R.range(2) ? " > " : " <= ") +
             std::to_string(int(R.range(9)) - 4) + ") {\n";
      Term("    ", Out);
      Out += "  } else {\n";
      Term("    ", Out);
      Out += "  }\n";
      break;
    }
    case 1: {
      // A bounded countdown loop.
      std::string X = Var();
      Out += "  if (" + X + " > 8) { " + X + " = 8; }\n";
      Out += "  while (" + X + " > 0) {\n    " + X + " = " + X +
             " - 1;\n";
      Term("    ", Out, /*Avoid=*/X);
      Out += "  }\n";
      break;
    }
    default:
      Term("  ", Out);
      break;
    }
  }
  Out += "}\n";
  return Out;
}

std::string randomPredicates(Rng &R, int Count) {
  static const char *Vars[] = {"a", "b", "c"};
  static const char *Ops[] = {"==", "<", "<=", ">", ">="};
  std::string Out = "f:\n";
  for (int I = 0; I != Count; ++I) {
    unsigned Op = R.range(5);
    unsigned Lhs = R.range(3);
    Out += std::string("  ") + Vars[Lhs] + " " + Ops[Op] + " ";
    if (R.range(2)) {
      // `a < a` is constant, and predicate files reject constants.
      unsigned Rhs = R.range(3);
      Out += Vars[Rhs == Lhs ? (Rhs + 1) % 3 : Rhs];
    } else {
      Out += std::to_string(int(R.range(9)) - 4);
    }
    Out += "\n";
  }
  return Out;
}

class RandomSoundness : public ::testing::TestWithParam<int> {};

TEST_P(RandomSoundness, TransfersSimulateConcreteRuns) {
  int Seed = GetParam();
  Rng R{static_cast<uint64_t>(Seed) * 0x9e3779b97f4a7c15ULL + 7};
  std::string Source = randomScalarProgram(R, 4 + Seed % 5);
  std::string PredText = randomPredicates(R, 2 + Seed % 4);

  DiagnosticEngine Diags;
  auto P = frontend(Source, Diags);
  ASSERT_TRUE(P != nullptr) << Diags.str() << "\n" << Source;
  logic::LogicContext Ctx;
  auto Preds = c2bp::parsePredicateFile(Ctx, PredText, Diags);
  ASSERT_TRUE(Preds.has_value()) << PredText;
  c2bp::C2bpOptions Options;
  Options.Cubes.MaxCubeLength = 3;
  auto BP = c2bp::abstractProgram(*P, *Preds, Ctx, Options);
  ASSERT_TRUE(BP != nullptr);

  // Three concrete runs per program with different inputs.
  for (int Run = 0; Run != 3; ++Run) {
    Interpreter I(*P, static_cast<uint64_t>(Seed * 31 + Run));
    SoundnessHook Hook(*P, *BP, *Preds, I);
    int64_t A = (Seed * 7 + Run * 13) % 19 - 9;
    int64_t B = (Seed * 3 + Run * 5) % 15 - 7;
    auto Out = I.run("f", {Value::makeInt(A), Value::makeInt(B)}, &Hook);
    EXPECT_EQ(Out, Interpreter::Outcome::Finished) << Source;
    EXPECT_EQ(Hook.violations(), 0)
        << Hook.firstViolation() << "\nprogram:\n"
        << Source << "\npredicates:\n"
        << PredText << "\nabstraction:\n"
        << BP->str();
    EXPECT_GT(Hook.checkedTransfers(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Programs, RandomSoundness,
                         ::testing::Range(1, 31));

} // namespace
