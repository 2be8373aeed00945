//===- AbstractionTest.cpp - C2bp against the paper's figures ---------------===//

#include "c2bp/C2bp.h"

#include "bebop/Bebop.h"
#include "bp/BPParser.h"
#include "cfront/Normalize.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::c2bp;
using namespace slam::cfront;

namespace {

const char *PartitionSource = R"(
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
      L: newl = curr;
    } else {
      prev = curr;
    }
    curr = nextcurr;
  }
  return newl;
}
)";

const char *PartitionPreds = R"(
partition:
  curr == NULL, prev == NULL,
  curr->val > v, prev->val > v
)";

class AbstractionTest : public ::testing::Test {
protected:
  std::unique_ptr<bp::BProgram> abstract(const std::string &Source,
                                         const std::string &PredText,
                                         C2bpOptions Options = {}) {
    DiagnosticEngine Diags;
    Prog = frontend(Source, Diags);
    EXPECT_TRUE(Prog != nullptr) << Diags.str();
    if (!Prog)
      return nullptr;
    auto PS = parsePredicateFile(Ctx, PredText, Diags);
    EXPECT_TRUE(PS.has_value()) << Diags.str();
    if (!PS)
      return nullptr;
    Preds = *PS;
    auto BP = abstractProgram(*Prog, Preds, Ctx, Options, &Stats);
    EXPECT_TRUE(BP != nullptr) << Diags.str();
    // Every abstraction we emit must be a well-formed boolean program.
    if (BP) {
      DiagnosticEngine VDiags;
      EXPECT_TRUE(bp::verifyBProgram(*BP, VDiags)) << VDiags.str() << "\n"
                                                   << BP->str();
    }
    return BP;
  }

  logic::LogicContext Ctx;
  StatsRegistry Stats;
  std::unique_ptr<Program> Prog;
  PredicateSet Preds;
};

TEST_F(AbstractionTest, Figure1PartitionStatements) {
  auto BP = abstract(PartitionSource, PartitionPreds);
  ASSERT_TRUE(BP);
  std::string Text = BP->str();

  // prev = NULL: {prev == NULL} := true and {prev->val > v} := *.
  EXPECT_NE(Text.find("{prev == NULL}, {prev->val > v} := true, *;"),
            std::string::npos)
      << Text;
  // prev = curr: both prev predicates take the curr predicates' values.
  EXPECT_NE(Text.find("{prev == NULL}, {prev->val > v} := "
                      "{curr == NULL}, {curr->val > v};"),
            std::string::npos)
      << Text;
  // newl = NULL affects no predicate: skip.
  EXPECT_NE(Text.find("skip;"), std::string::npos) << Text;
  // The while loop: while (*) with assume(!{curr == NULL}) inside and
  // assume({curr == NULL}) after.
  EXPECT_NE(Text.find("while (*) begin"), std::string::npos) << Text;
  EXPECT_NE(Text.find("assume(!{curr == NULL});"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("assume({curr == NULL});"), std::string::npos)
      << Text;
  // The inner conditional keeps the guard via assumes.
  EXPECT_NE(Text.find("assume({curr->val > v});"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("assume(!{curr->val > v});"), std::string::npos)
      << Text;
  // curr = nextcurr invalidates both curr predicates (no nextcurr info).
  EXPECT_NE(Text.find("{curr == NULL}, {curr->val > v} := *, *;"),
            std::string::npos)
      << Text;
  // Label L survives.
  EXPECT_NE(Text.find("L:"), std::string::npos) << Text;
}

TEST_F(AbstractionTest, Figure1HeapStoresDontTouchPredicates) {
  auto BP = abstract(PartitionSource, PartitionPreds);
  ASSERT_TRUE(BP);
  std::string Text = BP->str();
  // prev->next = nextcurr, *l = nextcurr and curr->next = newl cannot
  // affect any of the four predicates (field disjointness + the
  // locals are not address-taken): each becomes skip. Together with
  // newl = NULL and nextcurr = curr->next that is at least 5 skips.
  size_t Skips = 0, Pos = 0;
  while ((Pos = Text.find("skip;", Pos)) != std::string::npos) {
    ++Skips;
    Pos += 5;
  }
  EXPECT_GE(Skips, 5u) << Text;
}

TEST_F(AbstractionTest, Section22InvariantViaBebop) {
  auto BP = abstract(PartitionSource, PartitionPreds);
  ASSERT_TRUE(BP);
  bebop::Bebop Checker(*BP);
  auto R = Checker.run("partition");
  EXPECT_FALSE(R.AssertViolated);
  ASSERT_TRUE(Checker.labelReachable("partition", "L"));

  // The paper's invariant at L:
  //   (curr != NULL) && (curr->val > v) &&
  //   ((prev->val <= v) || (prev == NULL)).
  auto Cubes = Checker.reachableAtLabel("partition", "L");
  ASSERT_TRUE(Cubes.has_value());
  ASSERT_FALSE(Cubes->empty());
  for (const auto &Cube : *Cubes) {
    auto Get = [&Cube](const std::string &Name) {
      auto It = Cube.find(Name);
      return It == Cube.end() ? std::optional<bool>()
                              : std::optional<bool>(It->second);
    };
    EXPECT_EQ(Get("curr == NULL"), std::optional<bool>(false));
    EXPECT_EQ(Get("curr->val > v"), std::optional<bool>(true));
    // !(prev->val > v) || prev == NULL must hold in each cube.
    auto PrevVal = Get("prev->val > v");
    auto PrevNull = Get("prev == NULL");
    bool Disjunct = (PrevVal && !*PrevVal) || (PrevNull && *PrevNull);
    EXPECT_TRUE(Disjunct) << "cube violates the paper's invariant";
  }
}

TEST_F(AbstractionTest, Figure2AssignmentThroughPointer) {
  const char *Source = R"(
    int bar(int *q, int y) {
      int l1, l2;
      if (*q > y) { *q = y; }
      l1 = y;
      l2 = y - 1;
      return l1;
    }
    void foo(int *p, int x) {
      int r;
      if (*p <= x) {
        *p = x;
      } else {
        *p = *p + x;
      }
      r = bar(p, x);
    }
  )";
  const char *PredText = R"(
bar:
  y >= 0, *q <= y, y == l1, y > l2
foo:
  *p <= 0, x == 0, r == 0
)";
  auto BP = abstract(Source, PredText);
  ASSERT_TRUE(BP);
  std::string Text = BP->str();

  // Section 4.3's worked example: *p = *p + x gives
  //   {*p<=0} := choose({*p<=0} && {x==0}, !{*p<=0} && {x==0}).
  EXPECT_NE(
      Text.find("{*p <= 0} := choose({*p <= 0} && {x == 0}, "
                "!{*p <= 0} && {x == 0});"),
      std::string::npos)
      << Text;

  // Section 4.4: the conditional's assumes mention the implication
  // structure (x == 0 rules out one side).
  EXPECT_NE(Text.find("assume(!(!{*p <= 0} && {x == 0}));"),
            std::string::npos)
      << Text;

  // Section 4.5.3: the call passes choose(...) actuals and receives two
  // return predicates into temps, then rebuilds r == 0 and *p <= 0.
  EXPECT_NE(Text.find(":= call bar("), std::string::npos) << Text;
  EXPECT_NE(Text.find("choose({*p <= 0} && {x == 0}, !{*p <= 0} && "
                      "{x == 0})"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("choose({x == 0}, false)"), std::string::npos)
      << Text;
  // bar' has two return values.
  EXPECT_NE(Text.find("bool<2> bar("), std::string::npos) << Text;
}

TEST_F(AbstractionTest, PaperSection41AssignmentExample) {
  // x = x + 1 over E = {x < 5, x == 2}:
  //   {x<5} := choose({x==2}, !{x<5});  {x==2} := choose(false, ...).
  auto BP = abstract("void f() { int x; x = x + 1; }",
                     "f:\n x < 5, x == 2\n");
  ASSERT_TRUE(BP);
  std::string Text = BP->str();
  EXPECT_NE(Text.find("choose({x == 2}, !{x < 5})"), std::string::npos)
      << Text;
}

TEST_F(AbstractionTest, EnforceGeneratedForExclusivePredicates) {
  auto BP = abstract("void f(int x) { x = 1; }", "f:\n x == 1, x == 2\n");
  ASSERT_TRUE(BP);
  std::string Text = BP->str();
  EXPECT_NE(Text.find("enforce !({x == 1} && {x == 2});"),
            std::string::npos)
      << Text;
  // x = 1 sets the predicates deterministically.
  EXPECT_NE(Text.find("{x == 1}, {x == 2} := true, false;"),
            std::string::npos)
      << Text;

  C2bpOptions NoEnforce;
  NoEnforce.UseEnforce = false;
  auto BP2 = abstract("void f(int x) { x = 1; }",
                      "f:\n x == 1, x == 2\n", NoEnforce);
  EXPECT_EQ(BP2->str().find("enforce"), std::string::npos);
}

TEST_F(AbstractionTest, ExternCallsHavocAffectedPredicates) {
  auto BP = abstract(R"(
    int nondet();
    void f() {
      int y;
      y = 0;
      y = nondet();
    }
  )",
                     "f:\n y == 0\n");
  ASSERT_TRUE(BP);
  std::string Text = BP->str();
  EXPECT_NE(Text.find("{y == 0} := *;"), std::string::npos) << Text;
}

TEST_F(AbstractionTest, AssertBecomesAbstractAssert) {
  auto BP = abstract("void f(int x) { assert(x >= 0); }",
                     "f:\n x >= 0\n");
  ASSERT_TRUE(BP);
  EXPECT_NE(BP->str().find("assert({x >= 0});"), std::string::npos)
      << BP->str();
}

TEST_F(AbstractionTest, GlobalPredicatesDeclaredGlobally) {
  auto BP = abstract(R"(
    int lock;
    void acquire() { lock = 1; }
    void release() { lock = 0; }
  )",
                     "global:\n lock == 1\n");
  ASSERT_TRUE(BP);
  std::string Text = BP->str();
  EXPECT_NE(Text.find("decl {lock == 1};"), std::string::npos) << Text;
  EXPECT_NE(Text.find("{lock == 1} := true;"), std::string::npos) << Text;
  EXPECT_NE(Text.find("{lock == 1} := false;"), std::string::npos)
      << Text;
}

TEST_F(AbstractionTest, BreakLoopUsesRobustForm) {
  auto BP = abstract(R"(
    void f(int x) {
      while (x < 10) {
        if (x == 5)
          break;
        x = x + 1;
      }
    }
  )",
                     "f:\n x < 10, x == 5\n");
  ASSERT_TRUE(BP);
  std::string Text = BP->str();
  EXPECT_NE(Text.find("break;"), std::string::npos) << Text;
  // No trailing assume directly after `end` claiming !(x<10): the exit
  // assume lives inside the loop in the robust form.
  EXPECT_NE(Text.find("assume(!{x < 10});"), std::string::npos) << Text;
}

TEST_F(AbstractionTest, RoundTripsThroughBPParser) {
  auto BP = abstract(PartitionSource, PartitionPreds);
  ASSERT_TRUE(BP);
  DiagnosticEngine Diags;
  auto Re = bp::parseBProgram(BP->str(), Diags);
  ASSERT_TRUE(Re != nullptr) << Diags.str();
  EXPECT_EQ(Re->str(), BP->str());
}

TEST_F(AbstractionTest, OutputIsDeterministic) {
  // Two independent abstractions (fresh contexts, fresh provers) must
  // print byte-identical boolean programs: no pointer-ordering or
  // hash-iteration nondeterminism may leak into results.
  auto Once = [&]() {
    DiagnosticEngine Diags;
    logic::LogicContext LocalCtx;
    auto Prog2 = frontend(PartitionSource, Diags);
    auto PS = parsePredicateFile(LocalCtx, PartitionPreds, Diags);
    auto BP = abstractProgram(*Prog2, *PS, LocalCtx);
    return BP->str();
  };
  EXPECT_EQ(Once(), Once());
}

TEST_F(AbstractionTest, StatsReportProverCalls) {
  abstract(PartitionSource, PartitionPreds);
  EXPECT_GT(Stats.get("prover.calls"), 0u);
  EXPECT_EQ(Stats.get("c2bp.predicates"), 4u);
}

} // namespace
