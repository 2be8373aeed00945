//===- NewtonTest.cpp - Feasibility analysis via the full pipeline -----------===//

#include "slam/Newton.h"

#include "bebop/Bebop.h"
#include "c2bp/C2bp.h"
#include "cfront/Normalize.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::slamtool;
using namespace slam::cfront;

namespace {

/// Drives C2bp + Bebop to obtain a genuine abstract trace, then runs
/// Newton on it — the exact dataflow of the SLAM loop.
class NewtonTest : public ::testing::Test {
protected:
  NewtonResult analyze(const std::string &Source,
                       const std::string &PredText) {
    DiagnosticEngine Diags;
    Prog = frontend(Source, Diags);
    EXPECT_TRUE(Prog != nullptr) << Diags.str();
    auto PS = c2bp::parsePredicateFile(Ctx, PredText, Diags);
    EXPECT_TRUE(PS.has_value()) << Diags.str();
    Preds = *PS;
    auto BP = c2bp::abstractProgram(*Prog, Preds, Ctx);
    EXPECT_TRUE(BP != nullptr);
    bebop::Bebop Checker(*BP);
    auto R = Checker.run("main");
    EXPECT_TRUE(R.AssertViolated) << "test expects an abstract violation";
    prover::Prover P(Ctx);
    return analyzeTrace(*Prog, R.Trace, Ctx, P, Preds);
  }

  logic::LogicContext Ctx;
  std::unique_ptr<Program> Prog;
  c2bp::PredicateSet Preds;
};

TEST_F(NewtonTest, FeasiblePathIsReported) {
  // x starts nondeterministic; the assert genuinely fails.
  auto R = analyze(R"(
    int nondet();
    void main() {
      int x;
      x = nondet();
      assert(x > 0);
    }
  )",
                   "main:\n");
  EXPECT_TRUE(R.Feasible);
}

TEST_F(NewtonTest, InfeasiblePathYieldsPredicates) {
  // With no predicates about x, the abstraction cannot see that the
  // assert holds; the spurious trace teaches Newton about x.
  auto R = analyze(R"(
    void main() {
      int x;
      x = 5;
      assert(x == 5);
    }
  )",
                   "main:\n");
  EXPECT_FALSE(R.Feasible);
  EXPECT_GT(R.NewPreds.totalCount(), 0u);
  bool Found = false;
  for (logic::ExprRef E : R.NewPreds.forProc("main"))
    Found |= E->str() == "x == 5";
  EXPECT_TRUE(Found) << "expected the WP-derived predicate x == 5";
}

TEST_F(NewtonTest, BranchCorrelationPredicates) {
  auto R = analyze(R"(
    int nondet();
    void main() {
      int f;
      int bad;
      f = nondet();
      bad = 0;
      if (f > 0) {
        bad = 1;
      }
      if (f <= 0) {
        assert(bad == 0);
      }
    }
  )",
                   "main:\n bad == 0\n");
  // The abstract trace takes f > 0 then f <= 0: infeasible.
  EXPECT_FALSE(R.Feasible);
  bool Found = false;
  for (logic::ExprRef E : R.NewPreds.forProc("main"))
    Found |= E->str() == "f > 0" || E->str() == "f <= 0";
  EXPECT_TRUE(Found);
}

TEST_F(NewtonTest, ExistingPredicatesNotRediscovered) {
  auto R = analyze(R"(
    void main() {
      int x;
      x = 5;
      assert(x == 5);
    }
  )",
                   "main:\n y == 0\n");
  for (logic::ExprRef E : R.NewPreds.forProc("main"))
    EXPECT_NE(E->str(), "y == 0");
}

} // namespace
