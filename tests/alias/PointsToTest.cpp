//===- PointsToTest.cpp - May-point-to analysis -----------------------------===//

#include "alias/PointsTo.h"

#include "cfront/Normalize.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::alias;
using namespace slam::cfront;

namespace {

class PointsToTest : public ::testing::Test {
protected:
  std::unique_ptr<Program> load(const std::string &Source) {
    DiagnosticEngine Diags;
    auto P = frontend(Source, Diags);
    EXPECT_TRUE(P != nullptr) << Diags.str();
    return P;
  }

  static const VarDecl *var(const Program &P, const std::string &Func,
                            const std::string &Name) {
    if (const FuncDecl *F = P.findFunction(Func))
      if (VarDecl *V = F->findLocalOrParam(Name))
        return V;
    return P.findGlobal(Name);
  }
};

TEST_F(PointsToTest, AddressOfSeedsPointsTo) {
  auto P = load("void f() { int x; int *p; p = &x; }");
  PointsTo PT(*P);
  const VarDecl *X = var(*P, "f", "x");
  const VarDecl *Pp = var(*P, "f", "p");
  EXPECT_TRUE(PT.pointsToSet(*Pp).count(PT.varCell(X)));
  EXPECT_TRUE(PT.isAddressTaken(*X));
  EXPECT_FALSE(PT.isAddressTaken(*Pp));
}

TEST_F(PointsToTest, CopyPropagates) {
  auto P = load("void f() { int x; int *p; int *q; p = &x; q = p; }");
  PointsTo PT(*P);
  const VarDecl *X = var(*P, "f", "x");
  const VarDecl *Q = var(*P, "f", "q");
  EXPECT_TRUE(PT.pointsToSet(*Q).count(PT.varCell(X)));
}

TEST_F(PointsToTest, TopLevelCopyIsDirectional) {
  // q = p must not make p point to q's other targets.
  const char *Src =
      "void f() { int x; int y; int *p; int *q; p = &x; q = &y; q = p; }";
  auto P = load(Src);
  PointsTo PT(*P);
  const VarDecl *Y = var(*P, "f", "y");
  const VarDecl *Pp = var(*P, "f", "p");
  EXPECT_FALSE(PT.pointsToSet(*Pp).count(PT.varCell(Y)));
}

TEST_F(PointsToTest, LoadThroughDoublePointer) {
  auto P = load(R"(
    void f() {
      int x; int *p; int **pp; int *q;
      p = &x;
      pp = &p;
      q = *pp;
    }
  )");
  PointsTo PT(*P);
  const VarDecl *X = var(*P, "f", "x");
  const VarDecl *Q = var(*P, "f", "q");
  EXPECT_TRUE(PT.pointsToSet(*Q).count(PT.varCell(X)));
}

TEST_F(PointsToTest, StoreThroughPointer) {
  auto P = load(R"(
    void f() {
      int x; int *p; int *q; int **pp;
      pp = &p;
      *pp = &x;
      q = p;
    }
  )");
  PointsTo PT(*P);
  const VarDecl *X = var(*P, "f", "x");
  const VarDecl *Q = var(*P, "f", "q");
  EXPECT_TRUE(PT.pointsToSet(*Q).count(PT.varCell(X)));
}

TEST_F(PointsToTest, FieldsAreFieldBased) {
  auto P = load(R"(
    struct cell { int val; struct cell *next; };
    void f(struct cell *a, struct cell *b) {
      struct cell *t;
      a->next = b;
      t = a->next;
    }
  )");
  PointsTo PT(*P);
  const VarDecl *T = var(*P, "f", "t");
  const VarDecl *B = var(*P, "f", "b");
  // t = a->next reads what was stored: t may point where b points.
  for (int C : PT.pointsToSet(*B))
    EXPECT_TRUE(PT.pointsToSet(*T).count(C));
}

TEST_F(PointsToTest, PartitionPointersNotAddressTaken) {
  // Section 2.1: none of {curr, prev, nextcurr, newl} has its address
  // taken, so none can be aliased by any other expression.
  auto P = load(R"(
    typedef struct cell { int val; struct cell* next; } *list;
    list partition(list *l, int v) {
      list curr, prev, newl, nextcurr;
      curr = *l; prev = NULL; newl = NULL;
      while (curr != NULL) {
        nextcurr = curr->next;
        if (curr->val > v) {
          if (prev != NULL) prev->next = nextcurr;
          if (curr == *l) *l = nextcurr;
          curr->next = newl;
          newl = curr;
        } else { prev = curr; }
        curr = nextcurr;
      }
      return newl;
    }
  )");
  PointsTo PT(*P);
  for (const char *Name : {"curr", "prev", "newl", "nextcurr"})
    EXPECT_FALSE(PT.isAddressTaken(*var(*P, "partition", Name))) << Name;
}

TEST_F(PointsToTest, ParameterHasAnonymousTarget) {
  // Open-program soundness: *l must denote something even with no
  // callers in sight.
  auto P = load(R"(
    void f(int *p) {
      int x;
      x = *p;
    }
  )");
  PointsTo PT(*P);
  const VarDecl *Pp = var(*P, "f", "p");
  EXPECT_FALSE(PT.pointsToSet(*Pp).empty());
}

TEST_F(PointsToTest, CallBindsActualsToFormals) {
  auto P = load(R"(
    int *g(int *q) { return q; }
    void f() {
      int x; int *p; int *r;
      p = &x;
      r = g(p);
    }
  )");
  PointsTo PT(*P);
  const VarDecl *X = var(*P, "f", "x");
  const VarDecl *Q = var(*P, "g", "q");
  const VarDecl *R = var(*P, "f", "r");
  EXPECT_TRUE(PT.pointsToSet(*Q).count(PT.varCell(X)));
  EXPECT_TRUE(PT.pointsToSet(*R).count(PT.varCell(X)));
}

TEST_F(PointsToTest, ArrayElementsSummarized) {
  auto P = load(R"(
    void f() {
      int a[4];
      int *p;
      p = &a[0];
    }
  )");
  PointsTo PT(*P);
  const VarDecl *A = var(*P, "f", "a");
  const VarDecl *Pp = var(*P, "f", "p");
  EXPECT_TRUE(PT.pointsToSet(*Pp).count(PT.elemCell(A)));
}

TEST_F(PointsToTest, SourcesOfOneTargetStayApart) {
  const char *Src = R"(
    void f() {
      int x; int y;
      int *p; int *q; int *r;
      p = &x;
      q = &y;
      r = p;
      r = q;
    }
  )";
  auto P = load(Src);
  PointsTo PT(*P);
  // r points to x and y; p keeps only x (a unification-based analysis
  // would merge p and q through r).
  const VarDecl *Pp = var(*P, "f", "p");
  const VarDecl *R = var(*P, "f", "r");
  const VarDecl *X = var(*P, "f", "x");
  const VarDecl *Y = var(*P, "f", "y");
  EXPECT_TRUE(PT.pointsToSet(*R).count(PT.varCell(X)));
  EXPECT_TRUE(PT.pointsToSet(*R).count(PT.varCell(Y)));
  EXPECT_FALSE(PT.pointsToSet(*Pp).count(PT.varCell(Y)));
}

} // namespace
