//===- SignatureTest.cpp - Section 4.5.2 signatures -------------------------===//

#include "c2bp/Signatures.h"

#include "c2bp/CExprToLogic.h"
#include "cfront/Normalize.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::c2bp;
using namespace slam::cfront;
using logic::ExprRef;

namespace {

/// Figure 2's bar, completed with a body consistent with its predicates.
const char *BarSource = R"(
int bar(int *q, int y) {
  int l1, l2;
  if (*q > y) {
    *q = y;
  }
  l1 = y;
  l2 = y - 1;
  return l1;
}
)";

class SignatureTest : public ::testing::Test {
protected:
  void load(const std::string &Source) {
    DiagnosticEngine Diags;
    P = frontend(Source, Diags);
    ASSERT_TRUE(P != nullptr) << Diags.str();
    PT = std::make_unique<alias::PointsTo>(*P);
    MR = std::make_unique<alias::ModRef>(*P, *PT);
  }

  std::vector<ExprRef> preds(const std::vector<std::string> &Texts) {
    std::vector<ExprRef> Out;
    for (const std::string &T : Texts) {
      DiagnosticEngine Diags;
      ExprRef E = c2bp::parseExpr(Ctx, T, Diags);
      EXPECT_TRUE(E != nullptr) << Diags.str();
      Out.push_back(E);
    }
    return Out;
  }

  static std::vector<std::string> strs(const std::vector<ExprRef> &V) {
    std::vector<std::string> Out;
    for (ExprRef E : V)
      Out.push_back(E->str());
    return Out;
  }

  logic::LogicContext Ctx;
  std::unique_ptr<Program> P;
  std::unique_ptr<alias::PointsTo> PT;
  std::unique_ptr<alias::ModRef> MR;
};

TEST_F(SignatureTest, Figure2BarSignature) {
  load(BarSource);
  const FuncDecl *Bar = P->findFunction("bar");
  auto ER = preds({"y >= 0", "*q <= y", "y == l1", "y > l2"});
  ProcSignature Sig = computeSignature(*P, *Bar, ER, *PT, *MR);

  ASSERT_TRUE(Sig.RetVar != nullptr);
  EXPECT_EQ(Sig.RetVar->Name, "l1");
  // E_f = { *q <= y, y >= 0 }: the predicates free of locals.
  EXPECT_EQ(strs(Sig.Formals),
            (std::vector<std::string>{"y >= 0", "*q <= y"}));
  // E_r = { *q <= y (derefs a formal), y == l1 (about the return var) }.
  EXPECT_EQ(strs(Sig.Returns),
            (std::vector<std::string>{"*q <= y", "y == l1"}));
}

TEST_F(SignatureTest, GlobalsMakeReturnPredicates) {
  load(R"(
    int g;
    int f(int x) {
      int r;
      g = x;
      r = x;
      return r;
    }
  )");
  auto ER = preds({"g == x", "x >= 0", "r == x"});
  ProcSignature Sig =
      computeSignature(*P, *P->findFunction("f"), ER, *PT, *MR);
  // g == x references a global: formal predicate AND return predicate.
  EXPECT_EQ(strs(Sig.Formals),
            (std::vector<std::string>{"g == x", "x >= 0"}));
  EXPECT_EQ(strs(Sig.Returns),
            (std::vector<std::string>{"g == x", "r == x"}));
}

TEST_F(SignatureTest, Footnote4DropsModifiedFormals) {
  load(R"(
    int f(int x) {
      int r;
      x = x + 1;
      r = x;
      return r;
    }
  )");
  // r == x mentions the formal x, which f modifies: the caller cannot
  // interpret x as the actual at return, so it leaves E_r.
  auto ER = preds({"r == x"});
  ProcSignature Sig =
      computeSignature(*P, *P->findFunction("f"), ER, *PT, *MR);
  EXPECT_TRUE(Sig.Returns.empty());
  // But r == 0 (no formals) stays.
  auto ER2 = preds({"r == 0"});
  ProcSignature Sig2 =
      computeSignature(*P, *P->findFunction("f"), ER2, *PT, *MR);
  EXPECT_EQ(strs(Sig2.Returns), (std::vector<std::string>{"r == 0"}));
}

TEST_F(SignatureTest, VoidProcedure) {
  load("int g; void f() { g = 1; }");
  auto ER = preds({"g == 1"});
  ProcSignature Sig =
      computeSignature(*P, *P->findFunction("f"), ER, *PT, *MR);
  EXPECT_EQ(Sig.RetVar, nullptr);
  EXPECT_EQ(strs(Sig.Formals), (std::vector<std::string>{"g == 1"}));
  // Mentions a global: reported back to callers.
  EXPECT_EQ(strs(Sig.Returns), (std::vector<std::string>{"g == 1"}));
}

TEST_F(SignatureTest, PurelyLocalPredicatesStayPrivate) {
  load("int f(int x) { int a; a = x; return a; }");
  auto ER = preds({"a > 0"});
  ProcSignature Sig =
      computeSignature(*P, *P->findFunction("f"), ER, *PT, *MR);
  EXPECT_TRUE(Sig.Formals.empty());
  // `a` is the return variable: a > 0 is a return predicate.
  EXPECT_EQ(strs(Sig.Returns), (std::vector<std::string>{"a > 0"}));
}

} // namespace
