//===- WitnessPruningTest.cpp - Cube search vs a witness-free oracle ------===//
//
// The cube search answers a check some verified model already refutes
// without asking the prover, and a search may start from the models an
// enforce search was handed (a ModelPool). These tests compare its F_V
// and contradiction DNFs, with and without a pool, with a reference
// enumeration written here: the same algorithm without witnesses, which
// asks a fresh Prover (and so a fresh cache) for every single check.
// They must agree exactly, on the searches of the Table 2 programs, on
// seeded random EUF + LIA formulas and on a cone wider than one word.
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
      ModelPool Pool;
      EXPECT_EQ(CS.findContradictions(V, &Pool), Ref.findContradictions(V));
      std::vector<ExprRef> Phis;
      collectSearches(Ctx, WP, V, F->Body, Phis);
      for (ExprRef Phi : Phis) {
        SCOPED_TRACE(Phi->str());
        Dnf D = CS.findF(V, Phi);
        EXPECT_EQ(D, Ref.findF(V, Phi));
        EXPECT_EQ(CS.findF(V, Phi, &Pool), D);
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

// Each case also seeds findF from the pool of a findContradictions over
// the same V: the DNF and the cubes checked must not change.
TEST(WitnessPruning, RandomFormulasMatchAWitnessFreeEnumeration) {
  StatsRegistry Stats, PooledStats;
  uint64_t UnpooledHits = 0, UnpooledCubes = 0; // CS's findF calls.
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
    CubeSearch Pooled(Ctx, Prover, Oracle, Options, &PooledStats);
    ReferenceSearch Ref(Ctx, CS, Options);
    ModelPool Pool;
    EXPECT_EQ(CS.findContradictions(V, &Pool), Ref.findContradictions(V));
    uint64_t HitsBefore = Stats.get("c2bp.witness_hits");
    uint64_t CubesBefore = Stats.get("c2bp.cubes_checked");
    for (ExprRef F : {Phi, Ctx.notE(Phi)}) {
      Dnf D = CS.findF(V, F);
      EXPECT_EQ(D, Ref.findF(V, F));
      EXPECT_EQ(Pooled.findF(V, F, &Pool), D);
      NonEmpty += !D.empty();
    }
    UnpooledHits += Stats.get("c2bp.witness_hits") - HitsBefore;
    UnpooledCubes += Stats.get("c2bp.cubes_checked") - CubesBefore;
  }
  EXPECT_GT(NonEmpty, 100);
  EXPECT_GT(Stats.get("c2bp.witness_hits"), 5000u);
  // The pooled searches answer more checks from witnesses.
  EXPECT_GT(PooledStats.get("c2bp.witness_hits"), UnpooledHits);
  EXPECT_EQ(PooledStats.get("c2bp.cubes_checked"), UnpooledCubes);
}

/// Parses each of \p Texts.
std::vector<ExprRef> parseAll(logic::LogicContext &Ctx,
                              const std::vector<std::string> &Texts) {
  std::vector<ExprRef> Out;
  DiagnosticEngine Diags;
  for (const std::string &T : Texts) {
    Out.push_back(parseExpr(Ctx, T, Diags));
    EXPECT_TRUE(Out.back() != nullptr) << T << ": " << Diags.str();
  }
  return Out;
}

// 70 predicates in one cone: a witness row and each half of a packed
// cube take two words, and implicants join positions of both.
TEST(WitnessPruning, ConeWiderThanAWordMatchesAWitnessFreeEnumeration) {
  logic::LogicContext Ctx;
  StatsRegistry Stats;
  prover::Prover Prover(Ctx, &Stats);
  logic::ShapeAliasOracle Oracle;
  CubeSearchOptions Options;
  Options.MaxCubeLength = 2;
  std::vector<std::string> Texts;
  for (int I = 0; I != 35; ++I) {
    Texts.push_back("x == " + std::to_string(I));
    Texts.push_back("y == " + std::to_string(I));
  }
  std::vector<ExprRef> V = parseAll(Ctx, Texts);
  CubeSearch CS(Ctx, Prover, Oracle, Options, &Stats);
  ReferenceSearch Ref(Ctx, CS, Options);
  ModelPool Pool;
  EXPECT_EQ(CS.findContradictions(V, &Pool), Ref.findContradictions(V));
  EXPECT_GT(Pool.size(), 0u);
  for (ExprRef Phi : parseAll(Ctx, {"x + y == 40", "x > 31 || y < 2"})) {
    SCOPED_TRACE(Phi->str());
    EXPECT_EQ(CS.coneOfInfluence(V, Phi).size(), V.size());
    Dnf D = CS.findF(V, Phi);
    EXPECT_EQ(D, Ref.findF(V, Phi));
    EXPECT_EQ(CS.findF(V, Phi, &Pool), D);
    // Some implicant uses a predicate past the first word.
    EXPECT_TRUE(std::any_of(D.begin(), D.end(), [](const Cube &C) {
      return C.back().Var >= 63;
    }));
  }
}

// A cube whose literals fold to false (a predicate and its negation,
// both in V) is a contradiction that prunes its supersets without a
// query, so they are neither checked nor reported.
TEST(WitnessPruning, SyntacticContradictionsPruneTheirSupersets) {
  logic::LogicContext Ctx;
  StatsRegistry Stats;
  prover::Prover Prover(Ctx, &Stats);
  logic::ShapeAliasOracle Oracle;
  CubeSearchOptions Options;
  std::vector<ExprRef> V =
      parseAll(Ctx, {"x < 5", "y == 1", "!(x < 5)", "!(y == 1)"});
  ASSERT_TRUE(Ctx.andE(V[0], V[2])->isFalse());
  CubeSearch CS(Ctx, Prover, Oracle, Options, &Stats);
  ReferenceSearch Ref(Ctx, CS, Options);
  Dnf D = CS.findContradictions(V);
  EXPECT_EQ(D, Ref.findContradictions(V));
  // {x < 5, !(x < 5)} in the two polarities that fold to false,
  // likewise for y == 1, and no superset of them.
  EXPECT_EQ(D.size(), 4u);
  for (const Cube &C : D)
    EXPECT_EQ(C.size(), 2u);
}

// A pool is only read by a search over the very predicates it was
// built over: over a permutation of them it is ignored, and the search
// does exactly the work of one without a pool.
TEST(WitnessPruning, APoolOverOtherPredicatesIsIgnored) {
  logic::LogicContext Ctx;
  logic::ShapeAliasOracle Oracle;
  CubeSearchOptions Options;
  std::vector<ExprRef> V =
      parseAll(Ctx, {"x == 0", "x == 1", "y > 2", "y < 5", "x < y"});
  std::vector<ExprRef> Permuted(V.rbegin(), V.rend());
  ExprRef Phi = parseAll(Ctx, {"x + y > 3"})[0];
  auto Build = [&](const std::vector<ExprRef> &Over) {
    prover::Prover Prover(Ctx);
    CubeSearch CS(Ctx, Prover, Oracle, Options);
    ModelPool Pool;
    CS.findContradictions(Over, &Pool);
    return Pool;
  };
  ModelPool OverV = Build(V), OverPermuted = Build(Permuted);
  ASSERT_GT(OverV.size(), 0u);
  struct Run {
    Dnf D;
    uint64_t Hits, Calls;
  };
  auto Search = [&](const ModelPool *Pool) {
    StatsRegistry Stats;
    prover::Prover Prover(Ctx, &Stats);
    CubeSearch CS(Ctx, Prover, Oracle, Options, &Stats);
    Dnf D = CS.findF(Permuted, Phi, Pool);
    return Run{D, Stats.get("c2bp.witness_hits"), Stats.get("prover.calls")};
  };
  Run Alone = Search(nullptr), Foreign = Search(&OverV),
      Own = Search(&OverPermuted);
  EXPECT_FALSE(Alone.D.empty());
  EXPECT_EQ(Foreign.D, Alone.D);
  EXPECT_EQ(Foreign.Hits, Alone.Hits);
  EXPECT_EQ(Foreign.Calls, Alone.Calls);
  // The pool built over the same predicates does answer checks.
  EXPECT_EQ(Own.D, Alone.D);
  EXPECT_GT(Own.Hits, Alone.Hits);
  EXPECT_LT(Own.Calls, Alone.Calls);
}

} // namespace
