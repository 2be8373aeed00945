//===- ParserTest.cpp - SIL-C parsing --------------------------------------===//

#include "cfront/Parser.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::cfront;

namespace {

/// The list partition procedure of Figure 1(a), verbatim modulo layout.
const char *PartitionSource = R"(
typedef struct cell {
  int val;
  struct cell* next;
} *list;

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

class ParserTest : public ::testing::Test {
protected:
  std::unique_ptr<Program> parse(const std::string &Source) {
    DiagnosticEngine Diags;
    auto P = parseProgram(Source, Diags);
    EXPECT_TRUE(P != nullptr) << Diags.str();
    return P;
  }

  void expectError(const std::string &Source, const std::string &Needle) {
    DiagnosticEngine Diags;
    auto P = parseProgram(Source, Diags);
    EXPECT_EQ(P, nullptr);
    EXPECT_NE(Diags.str().find(Needle), std::string::npos) << Diags.str();
  }
};

TEST_F(ParserTest, ParsesPartitionFigure1) {
  auto P = parse(PartitionSource);
  ASSERT_EQ(P->Functions.size(), 1u);
  FuncDecl *F = P->Functions[0];
  EXPECT_EQ(F->Name, "partition");
  ASSERT_EQ(F->Params.size(), 2u);
  EXPECT_EQ(F->Params[0]->Name, "l");
  EXPECT_EQ(F->Params[0]->Ty->str(), "struct cell**");
  EXPECT_EQ(F->Params[1]->Ty->str(), "int");
  EXPECT_EQ(F->Locals.size(), 4u);
  EXPECT_EQ(F->ReturnTy->str(), "struct cell*");
}

TEST_F(ParserTest, TypedefToPointer) {
  auto P = parse("typedef struct n { int v; } *np;\nnp g;\n");
  ASSERT_EQ(P->Globals.size(), 1u);
  EXPECT_EQ(P->Globals[0]->Ty->str(), "struct n*");
}

TEST_F(ParserTest, GlobalsAndArrays) {
  auto P = parse("int x, y;\nint a[10];\nint *p;\n");
  ASSERT_EQ(P->Globals.size(), 4u);
  EXPECT_EQ(P->Globals[2]->Ty->str(), "int[10]");
  EXPECT_EQ(P->Globals[3]->Ty->str(), "int*");
}

TEST_F(ParserTest, ExternFunctionDeclaration) {
  auto P = parse("int nondet();\nvoid f(void) { }\n");
  ASSERT_EQ(P->Functions.size(), 2u);
  EXPECT_TRUE(P->Functions[0]->isExtern());
  EXPECT_FALSE(P->Functions[1]->isExtern());
  EXPECT_TRUE(P->Functions[1]->Params.empty());
}

TEST_F(ParserTest, StatementForms) {
  auto P = parse(R"(
    void f(int x) {
      int y;
      y = 0;
      if (x > 0) y = 1; else y = 2;
      while (y < 10) { y = y + 1; if (y == 5) break; else continue; }
      top: y = y - 1;
      if (y > 0) goto top;
      assert(y <= 0);
      ;
      return;
    }
  )");
  FuncDecl *F = P->Functions[0];
  ASSERT_TRUE(F->Body);
  EXPECT_GE(F->Body->Stmts.size(), 8u);
}

TEST_F(ParserTest, CallsAndInitializers) {
  auto P = parse(R"(
    int g(int a, int b) { return a; }
    void f() {
      int x = 3;
      int y;
      y = g(x, 4);
      g(y, y);
    }
  )");
  FuncDecl *F = P->Functions[1];
  // Initializer becomes an assignment statement.
  ASSERT_GE(F->Body->Stmts.size(), 3u);
  EXPECT_EQ(F->Body->Stmts[0]->Kind, CStmtKind::Assign);
  EXPECT_EQ(F->Body->Stmts[1]->Kind, CStmtKind::CallStmt);
  EXPECT_TRUE(F->Body->Stmts[1]->Lhs != nullptr);
  EXPECT_EQ(F->Body->Stmts[2]->Kind, CStmtKind::CallStmt);
  EXPECT_TRUE(F->Body->Stmts[2]->Lhs == nullptr);
}

TEST_F(ParserTest, ExpressionShapes) {
  auto P = parse(R"(
    struct s { int f; struct s *n; };
    void f(struct s *p, int i) {
      int a[5];
      int x;
      x = p->n->f + a[i + 1] * 2;
      x = -x + (i % 3);
      p->f = 0;
    }
  )");
  Stmt *S = P->Functions[0]->Body->Stmts[0];
  EXPECT_EQ(S->Rhs->str(), "p->n->f + (a[i + 1] * 2)");
}

TEST_F(ParserTest, LabelVsDeclarationDisambiguation) {
  // `list:` must parse as a label even though `list` is a typedef name.
  auto P = parse(R"(
    typedef struct c { int v; } *list;
    void f() {
      int x;
      x = 0;
      list: x = 1;
      if (x < 2) goto list;
    }
  )");
  EXPECT_EQ(P->Functions[0]->Body->Stmts[1]->Kind, CStmtKind::Label);
}

TEST_F(ParserTest, SyntaxErrors) {
  expectError("int f( {", "expected");
  expectError("void f() { x + 1; }", "must be a call");
  expectError("void f() { if x } ", "expected '(' after if");
  expectError("void f() { goto; }", "expected label");
  expectError("int a[x];", "expected array size");
  expectError("unknown g;", "expected a type");
}

TEST_F(ParserTest, OutOfRangeIntegerLiteralInProgramIsADiagnostic) {
  expectError("void f() { int x; x = 99999999999999999999; }",
              "integer literal out of range");
  expectError("int a[99999999999999999999];", "integer literal out of range");
  EXPECT_NE(parse("void f() { int x; x = 9223372036854775807; }"), nullptr);
}

TEST_F(ParserTest, RecordsSourceLines) {
  auto P = parse("int x;\nint y;\n");
  EXPECT_EQ(P->SourceLines, 2u);
}

} // namespace
