//===- SemaTest.cpp - Name resolution and type checking --------------------===//

#include "cfront/Sema.h"

#include "cfront/Parser.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::cfront;

namespace {

class SemaTest : public ::testing::Test {
protected:
  std::unique_ptr<Program> check(const std::string &Source) {
    DiagnosticEngine Diags;
    auto P = parseProgram(Source, Diags);
    EXPECT_TRUE(P != nullptr) << Diags.str();
    EXPECT_TRUE(analyze(*P, Diags)) << Diags.str();
    return P;
  }

  void expectError(const std::string &Source, const std::string &Needle) {
    DiagnosticEngine Diags;
    auto P = parseProgram(Source, Diags);
    ASSERT_TRUE(P != nullptr) << Diags.str();
    EXPECT_FALSE(analyze(*P, Diags));
    EXPECT_NE(Diags.str().find(Needle), std::string::npos) << Diags.str();
  }
};

TEST_F(SemaTest, ResolvesLocalsParamsGlobals) {
  auto P = check(R"(
    int g;
    void f(int a) {
      int x;
      x = a + g;
    }
  )");
  Stmt *S = P->Functions[0]->Body->Stmts[0];
  EXPECT_EQ(S->Lhs->Var->Sc, VarDecl::Scope::Local);
  EXPECT_EQ(S->Rhs->Ops[0]->Var->Sc, VarDecl::Scope::Param);
  EXPECT_EQ(S->Rhs->Ops[1]->Var->Sc, VarDecl::Scope::Global);
  EXPECT_EQ(S->Rhs->Ty->str(), "int");
}

TEST_F(SemaTest, TypesPointerChains) {
  auto P = check(R"(
    struct cell { int val; struct cell *next; };
    void f(struct cell *p) {
      int v;
      v = p->next->val;
      p->next = p;
    }
  )");
  Stmt *S = P->Functions[0]->Body->Stmts[0];
  EXPECT_EQ(S->Rhs->Ty->str(), "int");
  Stmt *S2 = P->Functions[0]->Body->Stmts[1];
  EXPECT_EQ(S2->Lhs->Ty->str(), "struct cell*");
}

TEST_F(SemaTest, AssignsDenseStatementIds) {
  auto P = check("void f() { int x; x = 1; x = 2; if (x > 0) x = 3; }");
  ASSERT_GT(P->StmtById.size(), 4u);
  for (unsigned Id = 0; Id != P->StmtById.size(); ++Id) {
    EXPECT_EQ(P->stmtById(static_cast<int>(Id))->Id, Id);
    EXPECT_EQ(P->ProcOfStmt[Id], P->Functions[0]);
  }
  EXPECT_EQ(P->stmtById(-1), nullptr);
  EXPECT_EQ(P->stmtById(static_cast<int>(P->StmtById.size())), nullptr);
}

TEST_F(SemaTest, NullAssignableToAnyPointer) {
  check(R"(
    struct a { int x; };
    void f(struct a *p, int *q) {
      p = NULL;
      q = NULL;
      if (p == NULL && q != NULL) p = NULL;
    }
  )");
}

TEST_F(SemaTest, PointerComparedToZeroLiteral) {
  // Figure 3 writes `while (prev != 0)` over a pointer.
  check(R"(
    struct node { int mark; struct node *next; };
    void f(struct node *prev) {
      while (prev != 0)
        prev = prev->next;
    }
  )");
}

TEST_F(SemaTest, UndefinedVariable) {
  expectError("void f() { x = 1; }", "undeclared variable 'x'");
}

TEST_F(SemaTest, UndefinedFunction) {
  expectError("void f() { g(); }", "undefined function 'g'");
}

TEST_F(SemaTest, UndefinedLabel) {
  expectError("void f() { goto nowhere; }", "undefined label");
}

TEST_F(SemaTest, TypeMismatches) {
  expectError("void f(int *p) { int x; x = p; }", "cannot assign");
  expectError("struct a { int x; }; struct b { int x; };"
              "void f(struct a *p, struct b *q) { p = q; }",
              "cannot assign");
  expectError("void f(int x) { x = x->val; }", "-> requires");
  expectError("void f(int *p) { int x; x = p + p; }", "arithmetic");
  expectError("void f(int x) { return x; }", "void function returns");
  expectError("int f() { return; }", "must return a value");
}

TEST_F(SemaTest, MismatchedCallArity) {
  expectError("int g(int a) { return a; } void f() { int x; x = g(); }",
              "wrong number of arguments");
}

TEST_F(SemaTest, BreakOutsideLoop) {
  expectError("void f() { break; }", "outside of a loop");
}

TEST_F(SemaTest, DuplicateDeclarations) {
  expectError("int x; int x;", "duplicate global");
  expectError("void f(int a, int a) { }", "duplicate parameter");
  expectError("void f() { int x; int x; }", "duplicate local");
  expectError("void f() { l: ; l: ; }", "duplicate label");
}

TEST_F(SemaTest, ShadowingWarns) {
  DiagnosticEngine Diags;
  auto P = parseProgram("int x; void f() { int x; x = 1; }", Diags);
  ASSERT_TRUE(P != nullptr);
  EXPECT_TRUE(analyze(*P, Diags));
  EXPECT_NE(Diags.str().find("shadows"), std::string::npos);
}

TEST_F(SemaTest, AddressOfRequiresLocation) {
  expectError("void f(int x) { int *p; p = &(x + 1); }",
              "address of a non-location");
  check("void f(int x) { int *p; p = &x; }");
}

} // namespace
