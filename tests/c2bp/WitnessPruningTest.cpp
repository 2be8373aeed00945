//===- WitnessPruningTest.cpp - Cube search vs a witness-free oracle ------===//
//
// The cube search answers a check some verified model already refutes
// without asking the prover. These tests compare its F_V and
// contradiction DNFs with a reference enumeration written here: the
// same algorithm without witnesses, which asks a fresh Prover (and so a
// fresh cache) for every single check. The two must agree exactly, on
// the searches of the Table 2 programs and on seeded random EUF + LIA
// formulas.
//
//===----------------------------------------------------------------------===//

#include "c2bp/CubeSearch.h"

#include "alias/Oracle.h"
#include "c2bp/CExprToLogic.h"
#include "c2bp/PredicateSet.h"
#include "cfront/Normalize.h"
#include "logic/ExprUtils.h"
#include "logic/WP.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace slam;
using namespace slam::c2bp;
using logic::ExprRef;
using prover::Satisfiability;
using prover::Validity;

namespace {

/// The cube search of CubeSearch.cpp without witnesses or a shared
/// cache: every implication and vacuity check is a fresh Prover's.
class ReferenceSearch {
public:
  ReferenceSearch(logic::LogicContext &Ctx, const CubeSearch &CS,
                  CubeSearchOptions Options)
      : Ctx(Ctx), CS(CS), Options(Options) {}

  Dnf findF(const std::vector<ExprRef> &V, ExprRef Phi) {
    if (Phi->isTrue())
      return {Cube{}};
    if (Phi->isFalse())
      return {};
    for (size_t I = 0; I != V.size(); ++I) {
      if (V[I] == Phi)
        return {Cube{{static_cast<int>(I), true}}};
      if (Ctx.notE(V[I]) == Phi)
        return {Cube{{static_cast<int>(I), false}}};
    }
    return search(V, Phi);
  }

  Dnf findContradictions(const std::vector<ExprRef> &V) {
    return search(V, Ctx.falseE());
  }

private:
  bool valid(ExprRef A, ExprRef C) {
    prover::Prover Fresh(Ctx);
    return Fresh.implies(A, C) == Validity::Valid;
  }

  bool unsat(ExprRef E) {
    prover::Prover Fresh(Ctx);
    return Fresh.checkSat(E) == Satisfiability::Unsat;
  }

  static bool hasSubsetIn(const std::vector<Cube> &Set, const Cube &C) {
    return std::any_of(Set.begin(), Set.end(), [&](const Cube &S) {
      return std::includes(C.begin(), C.end(), S.begin(), S.end(),
                           [](const CubeLit &A, const CubeLit &B) {
                             return A.Var != B.Var ? A.Var < B.Var
                                                   : A.Positive < B.Positive;
                           });
    });
  }

  Dnf search(const std::vector<ExprRef> &V, ExprRef Phi) {
    std::vector<int> Indices;
    if (Options.ConeOfInfluence && !Phi->isFalse()) {
      Indices = CS.coneOfInfluence(V, Phi);
    } else {
      for (size_t I = 0; I != V.size(); ++I)
        Indices.push_back(static_cast<int>(I));
    }
    if (!Phi->isFalse() && valid(Ctx.trueE(), Phi))
      return {Cube{}};
    int MaxLen = static_cast<int>(Indices.size());
    if (Options.MaxCubeLength >= 0)
      MaxLen = std::min(MaxLen, Options.MaxCubeLength);
    Dnf Result;
    std::vector<Cube> Rejected, Live{Cube{}};
    for (int Len = 1; Len <= MaxLen && !Live.empty(); ++Len) {
      std::vector<Cube> Next;
      for (const Cube &C : Live) {
        for (int Idx : Indices) {
          if (!C.empty() && Idx <= C.back().Var)
            continue;
          for (bool Positive : {true, false}) {
            Cube Ext = C;
            Ext.push_back({Idx, Positive});
            if (Options.PruneSupersets &&
                (hasSubsetIn(Result, Ext) || hasSubsetIn(Rejected, Ext)))
              continue;
            ExprRef EC = CS.concretize(V, Ext);
            if (EC->isFalse()) {
              if (Phi->isFalse())
                Result.push_back(Ext);
              continue;
            }
            if (valid(EC, Phi)) {
              if (!Phi->isFalse() && unsat(EC)) {
                Rejected.push_back(Ext);
                continue;
              }
              Result.push_back(Ext);
              if (!Options.PruneSupersets)
                Next.push_back(Ext);
              continue;
            }
            if (Options.PruneSupersets && !Phi->isFalse() &&
                valid(EC, Ctx.notE(Phi))) {
              Rejected.push_back(Ext);
              continue;
            }
            Next.push_back(Ext);
          }
        }
      }
      Live = std::move(Next);
    }
    return Result;
  }

  logic::LogicContext &Ctx;
  const CubeSearch &CS;
  CubeSearchOptions Options;
};

/// The formulas C2bp searches over in one procedure body: the weakest
/// preconditions of its assignments, its branch conditions both ways
/// and its asserts (calls are left out).
void collectSearches(logic::LogicContext &Ctx, const logic::WPEngine &WP,
                     const std::vector<ExprRef> &V, const cfront::Stmt *S,
                     std::vector<ExprRef> &Out) {
  if (!S)
    return;
  switch (S->Kind) {
  case cfront::CStmtKind::Block:
    for (const cfront::Stmt *Sub : S->Stmts)
      collectSearches(Ctx, WP, V, Sub, Out);
    return;
  case cfront::CStmtKind::Assign: {
    ExprRef Lhs = toLogic(Ctx, *S->Lhs), Rhs = toLogic(Ctx, *S->Rhs);
    for (ExprRef E : V) {
      if (WP.assignment(Lhs, Rhs, E) == E)
        continue;
      for (ExprRef Wp : {WP.assignment(Lhs, Rhs, E),
                         WP.assignment(Lhs, Rhs, Ctx.notE(E))})
        if (!logic::containsNullDeref(Wp))
          Out.push_back(Wp);
    }
    return;
  }
  case cfront::CStmtKind::If:
  case cfront::CStmtKind::While: {
    ExprRef C = conditionToLogic(Ctx, *S->Cond);
    Out.push_back(C);
    Out.push_back(Ctx.notE(C));
    collectSearches(Ctx, WP, V, S->Then, Out);
    collectSearches(Ctx, WP, V, S->Else, Out);
    collectSearches(Ctx, WP, V, S->Body, Out);
    return;
  }
  case cfront::CStmtKind::Assert:
    Out.push_back(conditionToLogic(Ctx, *S->Cond));
    return;
  case cfront::CStmtKind::Label:
    collectSearches(Ctx, WP, V, S->Sub, Out);
    return;
  default:
    return;
  }
}

TEST(WitnessPruning, Table2SearchesMatchAWitnessFreeEnumeration) {
  uint64_t Searches = 0, Hits = 0;
  for (const workloads::Workload *W : workloads::table2Workloads()) {
    SCOPED_TRACE(W->Name);
    DiagnosticEngine Diags;
    logic::LogicContext Ctx;
    auto P = cfront::frontend(W->Source, Diags);
    ASSERT_TRUE(P != nullptr) << Diags.str();
    auto Preds = parsePredicateFile(Ctx, W->Predicates, Diags);
    ASSERT_TRUE(Preds.has_value()) << Diags.str();
    alias::PointsTo PT(*P);
    StatsRegistry Stats;
    prover::Prover Prover(Ctx, &Stats); // One cache for every search.
    CubeSearchOptions Options;
    Options.MaxCubeLength = 3; // The paper's k.
    for (const cfront::FuncDecl *F : P->Functions) {
      if (!F->Body)
        continue;
      SCOPED_TRACE(F->Name);
      std::vector<ExprRef> V = Preds->Globals;
      for (ExprRef E : Preds->forProc(F->Name))
        V.push_back(E);
      alias::ProgramAliasOracle Oracle(PT, *P, F);
      logic::WPEngine WP(Ctx, Oracle);
      CubeSearch CS(Ctx, Prover, Oracle, Options, &Stats);
      ReferenceSearch Ref(Ctx, CS, Options);
      EXPECT_EQ(CS.findContradictions(V), Ref.findContradictions(V));
      std::vector<ExprRef> Phis;
      collectSearches(Ctx, WP, V, F->Body, Phis);
      for (ExprRef Phi : Phis) {
        SCOPED_TRACE(Phi->str());
        EXPECT_EQ(CS.findF(V, Phi), Ref.findF(V, Phi));
      }
      Searches += Phis.size() + 1;
    }
    Hits += Stats.get("c2bp.witness_hits");
  }
  EXPECT_GT(Searches, 200u);
  EXPECT_GT(Hits, 50000u); // Witnesses answer most checks.
}

/// Seeded random predicates over integers, pointers, fields, an array,
/// addresses and NULL, with `*`, `/` and `%`.
class RandomFormulas {
public:
  RandomFormulas(logic::LogicContext &Ctx, unsigned Seed)
      : Ctx(Ctx), Rng(Seed) {}

  std::string term(int Depth) {
    static const char *Leaves[] = {"x", "y", "z", "p", "q", "*p", "*q",
                                   "p->f", "q->f", "a[x]", "&x", "&y",
                                   "NULL", "0", "1", "2"};
    if (Depth == 0 || pick(3) != 0)
      return Leaves[pick(std::size(Leaves))];
    static const char *Ops[] = {" + ", " - ", " * ", " / ", " % "};
    std::string L = term(Depth - 1);
    if (pick(6) == 0)
      return "-(" + L + ")";
    return "(" + L + Ops[pick(std::size(Ops))] + term(Depth - 1) + ")";
  }

  std::string atom() {
    static const char *Cmps[] = {" == ", " != ", " < ", " <= ", " > ",
                                 " >= "};
    return term(2) + Cmps[pick(std::size(Cmps))] + term(2);
  }

  /// A formula whose atoms are often predicates of \p V, so that some
  /// cubes over V imply it.
  std::string formula(int Depth, const std::vector<ExprRef> &V) {
    if (Depth == 0 || pick(2) == 0)
      return pick(2) == 0 ? atom() : "(" + V[pick(V.size())]->str() + ")";
    switch (pick(3)) {
    case 0:
      return "!(" + formula(Depth - 1, V) + ")";
    case 1:
      return "(" + formula(Depth - 1, V) + ") && (" +
             formula(Depth - 1, V) + ")";
    default:
      return "(" + formula(Depth - 1, V) + ") || (" +
             formula(Depth - 1, V) + ")";
    }
  }

  /// A parsed non-constant formula.
  ExprRef parse(const std::string &Text) {
    DiagnosticEngine Diags;
    ExprRef E = parseExpr(Ctx, Text, Diags);
    EXPECT_TRUE(E != nullptr) << Text << ": " << Diags.str();
    return E && !E->isTrue() && !E->isFalse() ? E : nullptr;
  }

  size_t pick(size_t N) {
    return std::uniform_int_distribution<size_t>(0, N - 1)(Rng);
  }

private:
  logic::LogicContext &Ctx;
  std::mt19937 Rng;
};

TEST(WitnessPruning, RandomFormulasMatchAWitnessFreeEnumeration) {
  StatsRegistry Stats;
  logic::ShapeAliasOracle Oracle;
  std::mt19937 Seeds(20011);
  int NonEmpty = 0;
  for (int Case = 0; Case != 150; ++Case) {
    // A context per case keeps expression ids, and with them the cost
    // of each fresh reference Prover, small.
    logic::LogicContext Ctx;
    prover::Prover Prover(Ctx, &Stats); // One cache for the case.
    RandomFormulas Gen(Ctx, Seeds());
    CubeSearchOptions Options;
    Options.PruneSupersets = Case % 5 != 4;
    Options.ConeOfInfluence = Case % 3 != 2;
    std::vector<ExprRef> V;
    while (V.size() != size_t(3 + Case % 3))
      if (ExprRef E = Gen.parse(Gen.atom());
          E && std::find(V.begin(), V.end(), E) == V.end())
        V.push_back(E);
    ExprRef Phi = nullptr;
    while (!Phi)
      Phi = Gen.parse(Gen.formula(2, V));
    SCOPED_TRACE("case " + std::to_string(Case) + ": " + Phi->str());
    CubeSearch CS(Ctx, Prover, Oracle, Options, &Stats);
    ReferenceSearch Ref(Ctx, CS, Options);
    for (ExprRef F : {Phi, Ctx.notE(Phi)}) {
      Dnf D = CS.findF(V, F);
      EXPECT_EQ(D, Ref.findF(V, F));
      NonEmpty += !D.empty();
    }
    EXPECT_EQ(CS.findContradictions(V), Ref.findContradictions(V));
  }
  EXPECT_GT(NonEmpty, 100);
  EXPECT_GT(Stats.get("c2bp.witness_hits"), 5000u);
}

} // namespace
