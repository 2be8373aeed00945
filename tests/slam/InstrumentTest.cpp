//===- InstrumentTest.cpp - Safety-automaton weaving -------------------------===//

#include "slam/SafetySpec.h"

#include "cfront/Parser.h"
#include "cfront/Sema.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::slamtool;
using namespace slam::cfront;

namespace {

class InstrumentTest : public ::testing::Test {
protected:
  std::unique_ptr<Program> load(const std::string &Source) {
    DiagnosticEngine Diags;
    auto P = parseProgram(Source, Diags);
    EXPECT_TRUE(P != nullptr) << Diags.str();
    EXPECT_TRUE(analyze(*P, Diags)) << Diags.str();
    return P;
  }

  logic::LogicContext Ctx;
};

TEST_F(InstrumentTest, LockSpecShape) {
  SafetySpec S = SafetySpec::lockDiscipline("AcquireLock", "ReleaseLock");
  EXPECT_EQ(S.NumStates, 2);
  EXPECT_EQ(S.Transitions.size(), 4u);
  int Errors = 0;
  for (const auto &T : S.Transitions)
    Errors += T.To == SafetySpec::Error;
  EXPECT_EQ(Errors, 2);
}

TEST_F(InstrumentTest, WeavesStateMachine) {
  auto P = load(R"(
    void AcquireLock() { }
    void ReleaseLock() { }
    void main() {
      AcquireLock();
      ReleaseLock();
    }
  )");
  DiagnosticEngine Diags;
  ASSERT_TRUE(instrument(
      *P, SafetySpec::lockDiscipline("AcquireLock", "ReleaseLock"),
      "main", Diags))
      << Diags.str();

  // The state global exists.
  ASSERT_TRUE(P->findGlobal("__state") != nullptr);
  // main starts by resetting it.
  const Stmt *First = P->findFunction("main")->Body->Stmts.front();
  EXPECT_EQ(First->Kind, CStmtKind::Assign);
  EXPECT_EQ(First->Lhs->Name, "__state");
  // AcquireLock's body begins with the transition chain.
  const FuncDecl *Acq = P->findFunction("AcquireLock");
  ASSERT_FALSE(Acq->Body->Stmts.empty());
  EXPECT_EQ(Acq->Body->Stmts.front()->Kind, CStmtKind::If);
  // The chain contains an error assert.
  std::string Text = printFunction(*Acq);
  EXPECT_NE(Text.find("assert(0 == 1)"), std::string::npos) << Text;
  EXPECT_NE(Text.find("__state = 1"), std::string::npos) << Text;
}

TEST_F(InstrumentTest, ExternMonitoredFunctionGetsBody) {
  auto P = load(R"(
    void KeAcquireSpinLock();
    void KeReleaseSpinLock();
    void main() { KeAcquireSpinLock(); KeReleaseSpinLock(); }
  )");
  DiagnosticEngine Diags;
  ASSERT_TRUE(instrument(*P,
                         SafetySpec::lockDiscipline("KeAcquireSpinLock",
                                                    "KeReleaseSpinLock"),
                         "main", Diags))
      << Diags.str();
  EXPECT_FALSE(P->findFunction("KeAcquireSpinLock")->isExtern());
}

TEST_F(InstrumentTest, MissingFunctionFails) {
  auto P = load("void main() { }");
  DiagnosticEngine Diags;
  EXPECT_FALSE(instrument(
      *P, SafetySpec::lockDiscipline("AcquireLock", "ReleaseLock"),
      "main", Diags));
  EXPECT_TRUE(Diags.hasErrors());
}

// One function as both events gives two transitions on one event from
// each state; the woven chain would silently take the first.
TEST_F(InstrumentTest, NondeterministicSpecFails) {
  auto P = load(R"(
    void AcquireLock() { }
    void main() { AcquireLock(); }
  )");
  DiagnosticEngine Diags;
  EXPECT_FALSE(instrument(
      *P, SafetySpec::lockDiscipline("AcquireLock", "AcquireLock"), "main",
      Diags));
  EXPECT_NE(Diags.str().find("event 'AcquireLock' has two transitions "
                             "from state 1"),
            std::string::npos)
      << Diags.str();
  // Rejected before weaving: the program is unchanged.
  EXPECT_EQ(P->findGlobal("__state"), nullptr);
  EXPECT_TRUE(P->findFunction("AcquireLock")->Body->Stmts.empty());
}

TEST_F(InstrumentTest, SeedPredicates) {
  c2bp::PredicateSet Preds;
  seedPredicates(Ctx, SafetySpec::irpDiscipline("Complete", "Pend"),
                 Preds);
  ASSERT_EQ(Preds.Globals.size(), 3u);
  EXPECT_EQ(Preds.Globals[0]->str(), "__state == 0");
  EXPECT_EQ(Preds.Globals[2]->str(), "__state == 2");
}

} // namespace
