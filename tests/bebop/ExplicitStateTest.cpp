//===- ExplicitStateTest.cpp - Bebop vs. explicit enumeration ---------------===//
//
// Property test: random boolean programs are checked both by Bebop
// (symbolic, BDD path edges and summaries) and by an explicit-state BFS
// over (call stack, global bits); the "some assert can fail" verdicts
// must coincide. This pins Bebop's transfer semantics — parallel
// assignment, choose/star nondeterminism, assume filtering, branch
// lowering — and, on non-recursive multi-procedure programs, its calls:
// parameters, return values, globals and locals that shadow them —
// against an independent, obviously-correct implementation.
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

/// Random boolean expression over \p Names (may contain `*`).
std::string randomBExpr(Rng &R, const std::vector<std::string> &Names,
                        int Depth) {
  if (Depth == 0 || R.range(3) == 0) {
    switch (R.range(5)) {
    case 0:
      return "true";
    case 1:
      return "false";
    case 2:
      return "*";
    default:
      return Names[R.range(Names.size())];
    }
  }
  switch (R.range(4)) {
  case 0:
    return "!" + randomBExpr(R, Names, Depth - 1);
  case 1:
    return "(" + randomBExpr(R, Names, Depth - 1) + " && " +
           randomBExpr(R, Names, Depth - 1) + ")";
  case 2:
    return "(" + randomBExpr(R, Names, Depth - 1) + " || " +
           randomBExpr(R, Names, Depth - 1) + ")";
  default:
    return "choose(" + randomBExpr(R, Names, Depth - 1) + ", " +
           randomBExpr(R, Names, Depth - 1) + ")";
  }
}

std::string randomBProgram(Rng &R, int NumVars, int NumStmts) {
  std::vector<std::string> Names;
  for (int I = 0; I != NumVars; ++I)
    Names.push_back("b" + std::to_string(I));
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
               randomBExpr(R, Names, 2) + ";\n";
        break;
      case 2:
        Out += Pad + "assume(" + randomBExpr(R, Names, 1) + ");\n";
        break;
      case 3: {
        Out += Pad + "if (" + randomBExpr(R, Names, 1) + ") begin\n";
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
  Out += "  assert(" + randomBExpr(R, Names, 1) + ");\n";
  Out += "end\n";
  return Out;
}

/// \p Prefix followed by 0..N-1, comma-separated: "x0, x1".
std::string nameList(const char *Prefix, int N) {
  std::string Out;
  for (int I = 0; I != N; ++I)
    Out += (I ? ", " : "") + (Prefix + std::to_string(I));
  return Out;
}

/// \p N expressions over \p Names, comma-separated.
std::string exprList(Rng &R, const std::vector<std::string> &Names, int N) {
  std::string Out;
  for (int I = 0; I != N; ++I)
    Out += (I ? ", " : "") + randomBExpr(R, Names, 1);
  return Out;
}

/// Random non-recursive program: main and 1-3 procedures p1..p3 over
/// the globals g0 (and g1). p<I> calls only p<J> with J > I, so the
/// call stack stays bounded. Every procedure declares the locals l0
/// (and l1), so frames reuse names, and p1 also declares a local g0
/// that shadows the global. Callees take 0-2 parameters x0, x1 and
/// return 0-2 values; asserts may sit in any procedure.
std::string randomMultiProcProgram(Rng &R) {
  int NumProcs = 2 + static_cast<int>(R.range(3));
  int NumGlobals = 1 + static_cast<int>(R.range(2));
  std::vector<int> Params(NumProcs, 0), Rets(NumProcs, 0);
  for (int I = 1; I != NumProcs; ++I) {
    Params[I] = static_cast<int>(R.range(3));
    Rets[I] = static_cast<int>(R.range(3));
  }
  auto ProcName = [](int I) {
    return I == 0 ? std::string("main") : "p" + std::to_string(I);
  };
  std::string Out = "decl " + nameList("g", NumGlobals) + ";\n";
  for (int I = 0; I != NumProcs; ++I) {
    std::vector<std::string> Names;
    for (int G = 0; G != NumGlobals; ++G)
      Names.push_back("g" + std::to_string(G));
    for (int Pm = 0; Pm != Params[I]; ++Pm)
      Names.push_back("x" + std::to_string(Pm));
    int NumLocals = 1 + static_cast<int>(R.range(2));
    std::string Locals = nameList("l", NumLocals);
    for (int L = 0; L != NumLocals; ++L)
      Names.push_back("l" + std::to_string(L));
    if (I == 1)
      Locals += ", g0";
    Out += (Rets[I] ? "bool<" + std::to_string(Rets[I]) + ">" : "void") +
           " " + ProcName(I) + "(" + nameList("x", Params[I]) +
           ") begin\n  decl " + Locals + ";\n";
    // N distinct targets.
    auto Targets = [&](int N) {
      std::vector<std::string> Pool = Names;
      std::string T;
      for (int K = 0; K != N; ++K) {
        size_t Pick = R.range(Pool.size());
        T += (K ? ", " : "") + Pool[Pick];
        Pool.erase(Pool.begin() + Pick);
      }
      return T;
    };
    // Over variables only, so that it can hold on every path.
    auto Assertion = [&] {
      return std::string("assert(") + (R.range(2) ? "!" : "") +
             Names[R.range(Names.size())] + " || " +
             Names[R.range(Names.size())] + ");\n";
    };
    auto Call = [&](const std::string &Pad) {
      int J = I + 1 + static_cast<int>(R.range(NumProcs - I - 1));
      std::string Lhs =
          Rets[J] && R.range(3) ? Targets(Rets[J]) + " := " : "";
      Out += Pad + Lhs + "call " + ProcName(J) + "(" +
             exprList(R, Names, Params[J]) + ");\n";
    };
    std::function<void(int, int)> Emit = [&](int Count, int Indent) {
      std::string Pad(2 * Indent, ' ');
      for (int K = 0; K != Count; ++K) {
        switch (R.range(8)) {
        case 0:
        case 1: {
          int N = 1 + static_cast<int>(R.range(2));
          Out += Pad + Targets(N) + " := " + exprList(R, Names, N) + ";\n";
          break;
        }
        case 2:
          Out += Pad + "assume(" + randomBExpr(R, Names, 1) + ");\n";
          break;
        case 3:
          Out += Pad + "if (" + randomBExpr(R, Names, 1) + ") begin\n";
          Emit(1, Indent + 1);
          if (I && R.range(3) == 0)
            Out += Pad + "  return" + (Rets[I] ? " " : "") +
                   exprList(R, Names, Rets[I]) + ";\n";
          Out += Pad + "end else begin\n";
          Emit(1, Indent + 1);
          Out += Pad + "end\n";
          break;
        case 4:
          if (Indent < 2) {
            Out += Pad + "while (*) begin\n";
            Emit(1, Indent + 1);
            Out += Pad + "end\n";
            break;
          }
          [[fallthrough]];
        case 5:
          if (I + 1 != NumProcs)
            Call(Pad);
          break;
        case 6:
          Out += Pad + Assertion();
          break;
        default:
          Out += Pad + "skip;\n";
          break;
        }
      }
    };
    Emit(1 + static_cast<int>(R.range(3)), 1);
    if (I + 1 != NumProcs)
      Call("  ");
    Emit(static_cast<int>(R.range(2)), 1);
    if (I == 0)
      Out += "  " + Assertion();
    if (Rets[I])
      Out += "  return " + exprList(R, Names, Rets[I]) + ";\n";
    Out += "end\n";
  }
  return Out;
}

/// Kleene-free explicit checker: BFS over (call stack of (procedure,
/// cfg node, frame bits), global bits), splitting on every `*`. A
/// frame holds the parameters, the locals and the return values; the
/// locals and return values start arbitrary. A name resolves by the
/// last declaration among the globals, parameters and locals, so
/// locals shadow globals. The program must not recurse.
class ExplicitChecker {
public:
  explicit ExplicitChecker(const BProgram &P) {
    for (size_t I = 0; I != P.Procs.size(); ++I) {
      const BProc &Proc = *P.Procs[I];
      ProcIndex[Proc.Name] = static_cast<int>(I);
      Scope S{&Proc, {}, static_cast<int>(Proc.Params.size()), 0};
      for (size_t G = 0; G != P.Globals.size(); ++G)
        S.Vars[P.Globals[G]] = {true, static_cast<int>(G)};
      int Bit = 0;
      for (const std::string &Name : Proc.Params)
        S.Vars[Name] = {false, Bit++};
      for (const std::string &Name : Proc.Locals)
        S.Vars[Name] = {false, Bit++};
      S.RetBit = Bit;
      Scopes.push_back(std::move(S));
    }
    NumGlobals = static_cast<int>(P.Globals.size());
  }

  bool anyAssertFails(const std::string &Entry = "main") {
    int Main = ProcIndex.at(Entry);
    std::set<std::vector<unsigned>> Seen;
    std::vector<State> Work;
    for (unsigned G = 0; G != (1u << NumGlobals); ++G)
      for (unsigned Bits = 0; Bits != (1u << numBits(Main)); ++Bits)
        Work.push_back({G, {{Main, Scopes[Main].Proc->cfg().entry(), Bits}}});
    while (!Work.empty()) {
      State S = std::move(Work.back());
      Work.pop_back();
      std::vector<unsigned> Key{S.Globals};
      for (const Frame &F : S.Stack)
        Key.insert(Key.end(), {static_cast<unsigned>(F.Proc),
                               static_cast<unsigned>(F.Node), F.Bits});
      if (!Seen.insert(Key).second)
        continue;
      const Scope &Sc = Scopes[S.Stack.back().Proc];
      const ProcCfg &Cfg = Sc.Proc->cfg();
      const CfgNode &N = Cfg.node(S.Stack.back().Node);
      std::vector<State> Outs;
      switch (N.Op) {
      case NodeOp::Entry:
      case NodeOp::Skip:
        Outs.push_back(S);
        break;
      case NodeOp::Exit: {
        if (S.Stack.size() == 1)
          break;
        // Return to the call node: its targets take the return values.
        Frame Callee = S.Stack.back();
        S.Stack.pop_back();
        const Scope &Caller = Scopes[S.Stack.back().Proc];
        const ProcCfg &CallerCfg = Caller.Proc->cfg();
        const CfgNode &CallNode = CallerCfg.node(S.Stack.back().Node);
        std::vector<Loc> Locs;
        std::vector<std::vector<bool>> Values;
        for (size_t K = 0; K != CallNode.Stmt->Targets.size(); ++K) {
          Locs.push_back(Caller.Vars.at(CallNode.Stmt->Targets[K]));
          Values.push_back(
              {((Callee.Bits >> (Scopes[Callee.Proc].RetBit + K)) & 1u) !=
               0});
        }
        for (State &T : assignAll(S, Locs, Values))
          for (int Succ : CallNode.Succs) {
            Work.push_back(T);
            Work.back().Stack.back().Node = Succ;
          }
        continue;
      }
      case NodeOp::Return: {
        std::vector<Loc> Locs;
        std::vector<std::vector<bool>> Values;
        for (size_t K = 0; K != N.Stmt->Exprs.size(); ++K) {
          Locs.push_back({false, Sc.RetBit + static_cast<int>(K)});
          Values.push_back(evalAll(N.Stmt->Exprs[K], S));
        }
        Outs = assignAll(S, Locs, Values);
        break;
      }
      case NodeOp::Assume:
        for (bool V : evalAll(N.Cond, S))
          if (N.NegateCond ? !V : V)
            Outs.push_back(S);
        break;
      case NodeOp::Assert:
        for (bool V : evalAll(N.Cond, S))
          if (!V)
            return true;
        Outs.push_back(S);
        break;
      case NodeOp::Assign: {
        // Parallel assignment: every RHS reads the state before it.
        std::vector<Loc> Locs;
        std::vector<std::vector<bool>> Values;
        for (size_t K = 0; K != N.Stmt->Targets.size(); ++K) {
          Locs.push_back(Sc.Vars.at(N.Stmt->Targets[K]));
          Values.push_back(evalAll(N.Stmt->Exprs[K], S));
        }
        Outs = assignAll(S, Locs, Values);
        break;
      }
      case NodeOp::Call: {
        // Push the callee's frame: arbitrary locals and return values,
        // parameters bound to the arguments.
        int Callee = ProcIndex.at(N.Stmt->Callee);
        std::vector<Loc> Locs;
        std::vector<std::vector<bool>> Values;
        for (size_t K = 0; K != N.Stmt->Exprs.size(); ++K) {
          Locs.push_back({false, static_cast<int>(K)});
          Values.push_back(evalAll(N.Stmt->Exprs[K], S));
        }
        int NumParams = Scopes[Callee].NumParams;
        for (unsigned Free = 0;
             Free != (1u << (numBits(Callee) - NumParams)); ++Free) {
          State T = S;
          T.Stack.push_back({Callee, Scopes[Callee].Proc->cfg().entry(),
                             Free << NumParams});
          for (State &U : assignAll(T, Locs, Values))
            Work.push_back(std::move(U));
        }
        continue;
      }
      }
      for (int Succ : N.Succs)
        for (const State &O : Outs) {
          Work.push_back(O);
          Work.back().Stack.back().Node = Succ;
        }
    }
    return false;
  }

private:
  struct Loc {
    bool Global;
    int Bit;
  };
  struct Scope {
    const BProc *Proc;
    std::map<std::string, Loc> Vars;
    int NumParams;
    int RetBit; ///< The first return value's bit.
  };
  struct Frame {
    int Proc, Node;
    unsigned Bits;
  };
  struct State {
    unsigned Globals;
    std::vector<Frame> Stack;
  };

  int numBits(int Proc) const {
    return Scopes[Proc].RetBit + static_cast<int>(Scopes[Proc].Proc->NumReturns);
  }

  /// Every state reached from \p S by writing one of \p Values[K] to
  /// \p Locs[K], for all K at once, in the top frame.
  static std::vector<State> assignAll(const State &S,
                                      const std::vector<Loc> &Locs,
                                      const std::vector<std::vector<bool>> &Values) {
    std::vector<State> Out{S};
    for (size_t K = 0; K != Locs.size(); ++K) {
      std::vector<State> Next;
      for (const State &T : Out)
        for (bool V : Values[K]) {
          Next.push_back(T);
          unsigned &W = Locs[K].Global ? Next.back().Globals
                                       : Next.back().Stack.back().Bits;
          W = (W & ~(1u << Locs[K].Bit)) |
              (static_cast<unsigned>(V) << Locs[K].Bit);
        }
      Out = std::move(Next);
    }
    return Out;
  }

  /// All possible values of a boolean expression in the top frame of
  /// \p S (two when the expression consults `*`).
  std::vector<bool> evalAll(const BExpr *E, const State &S) {
    if (!E)
      return {true};
    switch (E->Kind) {
    case BExprKind::Const:
      return {E->BoolValue};
    case BExprKind::Star:
      return {false, true};
    case BExprKind::VarRef: {
      Loc L = Scopes[S.Stack.back().Proc].Vars.at(E->Name);
      unsigned W = L.Global ? S.Globals : S.Stack.back().Bits;
      return {((W >> L.Bit) & 1u) != 0};
    }
    case BExprKind::Not: {
      std::set<bool> Out;
      for (bool V : evalAll(E->Ops[0], S))
        Out.insert(!V);
      return {Out.begin(), Out.end()};
    }
    case BExprKind::And:
    case BExprKind::Or:
    case BExprKind::Eq:
    case BExprKind::Ne: {
      std::set<bool> Out;
      for (bool L : evalAll(E->Ops[0], S))
        for (bool R : evalAll(E->Ops[1], S)) {
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
      for (bool Pos : evalAll(E->Ops[0], S)) {
        if (Pos) {
          Out.insert(true);
          continue;
        }
        for (bool Neg : evalAll(E->Ops[1], S)) {
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

  std::vector<Scope> Scopes;
  std::map<std::string, int> ProcIndex;
  int NumGlobals = 0;
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

    ExplicitChecker Explicit(*P);
    bool ExplicitFails = Explicit.anyAssertFails();

    EXPECT_EQ(SymbolicFails, ExplicitFails)
        << "disagreement on:\n"
        << Source;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, BebopVsExplicit, ::testing::Range(0, 25));

// Multi-procedure programs: every procedure's frame starts at the same
// BDD slots, so a callee's locals, parameters and return values reuse
// the slots of its caller's, and the call and summary bindings alone
// keep them apart.
class BebopVsExplicitCalls : public ::testing::TestWithParam<int> {};

TEST_P(BebopVsExplicitCalls, VerdictsAgree) {
  Rng R{static_cast<uint64_t>(GetParam()) * 0x9E3779B97F4A7C15ULL + 7};
  for (int Trial = 0; Trial != 8; ++Trial) {
    std::string Source = randomMultiProcProgram(R);
    DiagnosticEngine Diags;
    auto P = parseBProgram(Source, Diags);
    ASSERT_TRUE(P != nullptr) << Diags.str() << "\n" << Source;
    ASSERT_TRUE(verifyBProgram(*P, Diags)) << Diags.str() << "\n" << Source;

    Bebop Symbolic(*P);
    bool SymbolicFails = Symbolic.run("main").AssertViolated;
    bool ExplicitFails = ExplicitChecker(*P).anyAssertFails();
    EXPECT_EQ(SymbolicFails, ExplicitFails) << "disagreement on:\n"
                                            << Source;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, BebopVsExplicitCalls,
                         ::testing::Range(0, 50));

} // namespace
