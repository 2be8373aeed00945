//===- ExplicitStateTest.cpp - Bebop vs. explicit enumeration ---------------===//
//
// Property test: random single-procedure boolean programs are checked
// both by Bebop (symbolic, BDD path edges) and by an explicit-state BFS
// over (node, bit-vector) pairs; the "some assert can fail" verdicts
// must coincide. This pins Bebop's transfer semantics — parallel
// assignment, choose/star nondeterminism, assume filtering, branch
// lowering — against an independent, obviously-correct implementation.
//
//===----------------------------------------------------------------------===//

#include "bebop/Bebop.h"
#include "bp/BPParser.h"

#include <gtest/gtest.h>

#include <set>

using namespace slam;
using namespace slam::bebop;
using namespace slam::bp;

namespace {

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

/// Random boolean expression over b0..b{N-1} (may contain `*`).
std::string randomBExpr(Rng &R, int NumVars, int Depth) {
  if (Depth == 0 || R.range(3) == 0) {
    switch (R.range(5)) {
    case 0:
      return "true";
    case 1:
      return "false";
    case 2:
      return "*";
    default:
      return "b" + std::to_string(R.range(NumVars));
    }
  }
  switch (R.range(4)) {
  case 0:
    return "!" + randomBExpr(R, NumVars, Depth - 1);
  case 1:
    return "(" + randomBExpr(R, NumVars, Depth - 1) + " && " +
           randomBExpr(R, NumVars, Depth - 1) + ")";
  case 2:
    return "(" + randomBExpr(R, NumVars, Depth - 1) + " || " +
           randomBExpr(R, NumVars, Depth - 1) + ")";
  default:
    return "choose(" + randomBExpr(R, NumVars, Depth - 1) + ", " +
           randomBExpr(R, NumVars, Depth - 1) + ")";
  }
}

std::string randomBProgram(Rng &R, int NumVars, int NumStmts) {
  std::string Out = "void main() begin\n  decl ";
  for (int I = 0; I != NumVars; ++I)
    Out += (I ? ", b" : "b") + std::to_string(I);
  Out += ";\n";
  std::function<void(int, int)> Emit = [&](int Count, int Indent) {
    std::string Pad(2 * Indent, ' ');
    for (int I = 0; I != Count; ++I) {
      switch (R.range(6)) {
      case 0:
      case 1:
        Out += Pad + "b" + std::to_string(R.range(NumVars)) + " := " +
               randomBExpr(R, NumVars, 2) + ";\n";
        break;
      case 2:
        Out += Pad + "assume(" + randomBExpr(R, NumVars, 1) + ");\n";
        break;
      case 3: {
        Out += Pad + "if (" + randomBExpr(R, NumVars, 1) + ") begin\n";
        Emit(1, Indent + 1);
        Out += Pad + "end else begin\n";
        Emit(1, Indent + 1);
        Out += Pad + "end\n";
        break;
      }
      case 4:
        if (Indent < 3) {
          Out += Pad + "while (*) begin\n";
          Emit(1, Indent + 1);
          Out += Pad + "  " + "b" + std::to_string(R.range(NumVars)) +
                 " := !" + "b" + std::to_string(R.range(NumVars)) +
                 ";\n";
          Out += Pad + "end\n";
          break;
        }
        [[fallthrough]];
      default:
        Out += Pad + "skip;\n";
        break;
      }
    }
  };
  Emit(NumStmts, 1);
  Out += "  assert(" + randomBExpr(R, NumVars, 1) + ");\n";
  Out += "end\n";
  return Out;
}

/// Kleene-free explicit checker: BFS over (cfg node, bits), splitting
/// on every `*`.
class ExplicitChecker {
public:
  explicit ExplicitChecker(const BProc &Proc) : Cfg(Proc.cfg()) {
    for (size_t I = 0; I != Proc.Locals.size(); ++I)
      VarIndex[Proc.Locals[I]] = static_cast<int>(I);
    NumVars = static_cast<int>(Proc.Locals.size());
  }

  bool anyAssertFails() {
    std::set<std::pair<int, unsigned>> Seen;
    std::vector<std::pair<int, unsigned>> Work;
    for (unsigned Bits = 0; Bits != (1u << NumVars); ++Bits)
      Work.push_back({Cfg.entry(), Bits});
    while (!Work.empty()) {
      auto [Node, Bits] = Work.back();
      Work.pop_back();
      if (!Seen.insert({Node, Bits}).second)
        continue;
      const CfgNode &N = Cfg.node(Node);
      std::vector<unsigned> Outs;
      switch (N.Op) {
      case NodeOp::Entry:
      case NodeOp::Exit:
      case NodeOp::Skip:
      case NodeOp::Return:
        Outs.push_back(Bits);
        break;
      case NodeOp::Assume: {
        for (bool V : evalAll(N.Cond, Bits)) {
          bool Pass = N.NegateCond ? !V : V;
          if (Pass)
            Outs.push_back(Bits);
        }
        break;
      }
      case NodeOp::Assert: {
        for (bool V : evalAll(N.Cond, Bits))
          if (!V)
            return true;
        Outs.push_back(Bits);
        break;
      }
      case NodeOp::Assign: {
        // Parallel assignment; each star splits independently, so
        // enumerate value tuples recursively.
        std::vector<unsigned> States{Bits};
        // Evaluate each RHS over the ORIGINAL bits.
        std::vector<std::vector<bool>> Choices;
        for (const BExpr *E : N.Stmt->Exprs)
          Choices.push_back(evalAll(E, Bits));
        std::vector<unsigned> Results;
        std::function<void(size_t, unsigned)> Go = [&](size_t K,
                                                       unsigned Cur) {
          if (K == N.Stmt->Targets.size()) {
            Results.push_back(Cur);
            return;
          }
          int Var = VarIndex.at(N.Stmt->Targets[K]);
          for (bool V : Choices[K]) {
            unsigned Nxt = (Cur & ~(1u << Var)) |
                           (static_cast<unsigned>(V) << Var);
            Go(K + 1, Nxt);
          }
        };
        Go(0, Bits);
        Outs = std::move(Results);
        break;
      }
      case NodeOp::Call:
        ADD_FAILURE() << "no calls in generated programs";
        break;
      }
      for (int Succ : N.Succs)
        for (unsigned O : Outs)
          Work.push_back({Succ, O});
    }
    return false;
  }

private:
  /// All possible values of a boolean expression given the bits (the
  /// set has two elements when the expression consults `*`).
  std::vector<bool> evalAll(const BExpr *E, unsigned Bits) {
    if (!E)
      return {true};
    switch (E->Kind) {
    case BExprKind::Const:
      return {E->BoolValue};
    case BExprKind::Star:
      return {false, true};
    case BExprKind::VarRef:
      return {(Bits >> VarIndex.at(E->Name)) & 1u ? true : false};
    case BExprKind::Not: {
      std::set<bool> Out;
      for (bool V : evalAll(E->Ops[0], Bits))
        Out.insert(!V);
      return {Out.begin(), Out.end()};
    }
    case BExprKind::And:
    case BExprKind::Or:
    case BExprKind::Eq:
    case BExprKind::Ne: {
      std::set<bool> Out;
      for (bool L : evalAll(E->Ops[0], Bits))
        for (bool R : evalAll(E->Ops[1], Bits)) {
          switch (E->Kind) {
          case BExprKind::And:
            Out.insert(L && R);
            break;
          case BExprKind::Or:
            Out.insert(L || R);
            break;
          case BExprKind::Eq:
            Out.insert(L == R);
            break;
          default:
            Out.insert(L != R);
            break;
          }
        }
      return {Out.begin(), Out.end()};
    }
    case BExprKind::Choose: {
      std::set<bool> Out;
      for (bool Pos : evalAll(E->Ops[0], Bits)) {
        if (Pos) {
          Out.insert(true);
          continue;
        }
        for (bool Neg : evalAll(E->Ops[1], Bits)) {
          if (Neg) {
            Out.insert(false);
          } else {
            Out.insert(false);
            Out.insert(true);
          }
        }
      }
      return {Out.begin(), Out.end()};
    }
    }
    return {true};
  }

  const ProcCfg &Cfg;
  std::map<std::string, int> VarIndex;
  int NumVars = 0;
};

class BebopVsExplicit : public ::testing::TestWithParam<int> {};

TEST_P(BebopVsExplicit, VerdictsAgree) {
  Rng R{static_cast<uint64_t>(GetParam()) * 0x2545F4914F6CDD1DULL + 17};
  for (int Trial = 0; Trial != 6; ++Trial) {
    int NumVars = 2 + static_cast<int>(R.range(3));
    std::string Source = randomBProgram(R, NumVars, 3 + R.range(4));
    DiagnosticEngine Diags;
    auto P = parseBProgram(Source, Diags);
    ASSERT_TRUE(P != nullptr) << Diags.str() << "\n" << Source;
    ASSERT_TRUE(verifyBProgram(*P, Diags)) << Diags.str();

    Bebop Symbolic(*P);
    bool SymbolicFails = Symbolic.run("main").AssertViolated;

    ExplicitChecker Explicit(*P->Procs[0]);
    bool ExplicitFails = Explicit.anyAssertFails();

    EXPECT_EQ(SymbolicFails, ExplicitFails)
        << "disagreement on:\n"
        << Source;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, BebopVsExplicit, ::testing::Range(0, 25));

} // namespace
