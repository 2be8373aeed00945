//===- CfgTest.cpp - Boolean-program CFG lowering ---------------------------===//

#include "bp/Cfg.h"

#include "bp/BPParser.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::bp;

namespace {

class CfgTest : public ::testing::Test {
protected:
  std::unique_ptr<BProgram> parse(const std::string &Source) {
    DiagnosticEngine Diags;
    auto P = parseBProgram(Source, Diags);
    EXPECT_TRUE(P != nullptr) << Diags.str();
    EXPECT_TRUE(verifyBProgram(*P, Diags)) << Diags.str();
    return P;
  }

  static int countOp(const ProcCfg &Cfg, NodeOp Op) {
    int N = 0;
    for (int I = 0; I != Cfg.numNodes(); ++I)
      if (Cfg.node(I).Op == Op)
        ++N;
    return N;
  }
};

TEST_F(CfgTest, StraightLine) {
  auto P = parse("void f() begin decl a; a := true; skip; end");
  const ProcCfg &Cfg = P->Procs[0]->cfg();
  EXPECT_EQ(countOp(Cfg, NodeOp::Assign), 1);
  EXPECT_EQ(countOp(Cfg, NodeOp::Entry), 1);
  EXPECT_EQ(countOp(Cfg, NodeOp::Exit), 1);
  // Entry -> assign -> skip -> exit.
  int Cur = Cfg.entry();
  for (int Hops = 0; Hops != 3; ++Hops) {
    ASSERT_EQ(Cfg.node(Cur).Succs.size(), 1u);
    Cur = Cfg.node(Cur).Succs[0];
  }
  EXPECT_EQ(Cur, Cfg.exit());
}

TEST_F(CfgTest, IfForksThroughAssumes) {
  auto P = parse(R"(
    void f() begin
      decl a;
      if (a) begin a := false; end else begin a := true; end
    end
  )");
  const ProcCfg &Cfg = P->Procs[0]->cfg();
  // Two assume nodes, one negated.
  int Assumes = 0, Negated = 0;
  for (int I = 0; I != Cfg.numNodes(); ++I) {
    if (Cfg.node(I).Op == NodeOp::Assume) {
      ++Assumes;
      Negated += Cfg.node(I).NegateCond;
    }
  }
  EXPECT_EQ(Assumes, 2);
  EXPECT_EQ(Negated, 1);
  EXPECT_EQ(Cfg.node(Cfg.entry()).Succs.size(), 2u);
}

TEST_F(CfgTest, WhileHasBackEdge) {
  auto P = parse("void f() begin decl a; while (a) begin a := *; end end");
  const ProcCfg &Cfg = P->Procs[0]->cfg();
  // The assign node's successor chain leads back to the loop header.
  int AssignNode = -1;
  for (int I = 0; I != Cfg.numNodes(); ++I)
    if (Cfg.node(I).Op == NodeOp::Assign)
      AssignNode = I;
  ASSERT_GE(AssignNode, 0);
  int Header = Cfg.node(AssignNode).Succs[0];
  // Header forks into enter/leave assumes.
  EXPECT_EQ(Cfg.node(Header).Succs.size(), 2u);
}

TEST_F(CfgTest, BreakAndContinueTargets) {
  auto P = parse(R"(
    void f() begin
      decl a;
      while (*) begin
        if (a) begin break; end
        if (!a) begin continue; end
        a := *;
      end
      skip;
    end
  )");
  const ProcCfg &Cfg = P->Procs[0]->cfg();
  // All nodes reachable from entry (no dangling break/continue).
  std::vector<bool> Seen(Cfg.numNodes());
  std::vector<int> Stack{Cfg.entry()};
  while (!Stack.empty()) {
    int N = Stack.back();
    Stack.pop_back();
    if (Seen[N])
      continue;
    Seen[N] = true;
    for (int S : Cfg.node(N).Succs)
      Stack.push_back(S);
  }
  EXPECT_TRUE(Seen[Cfg.exit()]);
}

TEST_F(CfgTest, GotoAndLabels) {
  auto P = parse(R"(
    void f() begin
      decl a;
      goto L1, L2;
      L1: a := true;
      L2: a := false;
    end
  )");
  const ProcCfg &Cfg = P->Procs[0]->cfg();
  EXPECT_GE(Cfg.nodeOfLabel("L1"), 0);
  EXPECT_GE(Cfg.nodeOfLabel("L2"), 0);
  EXPECT_EQ(Cfg.nodeOfLabel("nope"), -1);
}

TEST_F(CfgTest, ReturnLinksToExit) {
  auto P = parse("bool<1> f(a) begin return a; end");
  const ProcCfg &Cfg = P->Procs[0]->cfg();
  int Ret = -1;
  for (int I = 0; I != Cfg.numNodes(); ++I)
    if (Cfg.node(I).Op == NodeOp::Return)
      Ret = I;
  ASSERT_GE(Ret, 0);
  ASSERT_EQ(Cfg.node(Ret).Succs.size(), 1u);
  EXPECT_EQ(Cfg.node(Ret).Succs[0], Cfg.exit());
}

TEST_F(CfgTest, PredsAreInverse) {
  auto P = parse("void f() begin decl a; if (*) begin a := true; end end");
  const ProcCfg &Cfg = P->Procs[0]->cfg();
  const auto &Preds = Cfg.preds();
  for (int N = 0; N != Cfg.numNodes(); ++N)
    for (int S : Cfg.node(N).Succs)
      EXPECT_NE(std::find(Preds[S].begin(), Preds[S].end(), N),
                Preds[S].end());
}

} // namespace
