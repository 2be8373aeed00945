//===- BPParserTest.cpp - Round-trips and verification ---------------------===//

#include "bp/BPParser.h"

#include <gtest/gtest.h>

using namespace slam;
using namespace slam::bp;

namespace {

const char *ExampleBP = R"(
decl g, {x == 0};

bool<2> bar(prm1, prm2) begin
  decl l1;
  l1 := choose(prm1, !prm1);
  return l1, prm2;
end

void main() begin
  decl {curr == NULL}, t1, t2;
  {curr == NULL} := *;
  while (*) begin
    assume(!{curr == NULL});
    if (*) begin
      L: skip;
    end else begin
      {curr == NULL} := choose(g, !g);
      break;
    end
  end
  t1, t2 := call bar(g, {x == 0});
  call bar(true, false);
  assume({curr == NULL});
  assert(!t1 || t2);
  goto L2, L3;
  L2: skip;
  L3: return;
end
)";

class BPParserTest : public ::testing::Test {
protected:
  std::unique_ptr<BProgram> parse(const std::string &Source) {
    DiagnosticEngine Diags;
    auto P = parseBProgram(Source, Diags);
    EXPECT_TRUE(P != nullptr) << Diags.str();
    return P;
  }

  void expectInvalid(const std::string &Source, const std::string &Needle) {
    DiagnosticEngine Diags;
    auto P = parseBProgram(Source, Diags);
    if (P) {
      EXPECT_FALSE(verifyBProgram(*P, Diags));
    }
    EXPECT_NE(Diags.str().find(Needle), std::string::npos) << Diags.str();
  }
};

TEST_F(BPParserTest, ParsesExample) {
  auto P = parse(ExampleBP);
  ASSERT_EQ(P->Procs.size(), 2u);
  EXPECT_EQ(P->Procs[0]->Name, "bar");
  EXPECT_EQ(P->Procs[0]->NumReturns, 2u);
  EXPECT_EQ(P->Procs[1]->NumReturns, 0u);
  ASSERT_EQ(P->Globals.size(), 2u);
  EXPECT_EQ(P->Globals[1], "x == 0");
  DiagnosticEngine Diags;
  EXPECT_TRUE(verifyBProgram(*P, Diags)) << Diags.str();
}

TEST_F(BPParserTest, RoundTripThroughPrinter) {
  auto P = parse(ExampleBP);
  std::string Once = P->str();
  auto P2 = parse(Once);
  EXPECT_EQ(Once, P2->str());
}

TEST_F(BPParserTest, ParsesEnforce) {
  auto P = parse(R"(
    void f() begin
      decl {x == 1}, {x == 2};
      enforce !({x == 1} && {x == 2});
      skip;
    end
  )");
  ASSERT_TRUE(P->Procs[0]->Enforce != nullptr);
  EXPECT_EQ(P->Procs[0]->Enforce->str(), "!({x == 1} && {x == 2})");
}

TEST_F(BPParserTest, VerifyCatchesErrors) {
  expectInvalid("void f() begin nope := true; end", "undeclared");
  expectInvalid("void f() begin goto missing; end", "undefined label");
  expectInvalid("void f() begin return true; end", "return arity");
  expectInvalid("void f() begin break; end", "outside of a loop");
  expectInvalid("void f() begin call g(); end", "unknown procedure");
  expectInvalid(R"(
    bool<1> g(a) begin return a; end
    void f() begin decl t; t := call g(); end
  )",
                "wrong number of arguments");
  expectInvalid("void f() begin decl a; a, a := true; end",
                "arity mismatch");
  expectInvalid("void f() begin decl a; a, a := true, false; end",
                "in f: variable 'a' is assigned twice in one statement");
  expectInvalid(R"(
    bool<2> g() begin return true, false; end
    void f() begin decl a; a, a := call g(); end
  )",
                "in f: variable 'a' is assigned twice in one statement");
}

TEST_F(BPParserTest, SyntaxErrors) {
  DiagnosticEngine Diags;
  EXPECT_EQ(parseBProgram("void f() begin skip end", Diags), nullptr);
  Diags.clear();
  EXPECT_EQ(parseBProgram("bool f() begin end", Diags), nullptr);
  Diags.clear();
  EXPECT_EQ(parseBProgram("void f() begin x := ; end", Diags), nullptr);
  // Arities that would wrap to 1 and to 3,000,000,000 as an unsigned.
  for (const char *Arity : {"4294967297", "3000000000"}) {
    Diags.clear();
    EXPECT_EQ(parseBProgram(std::string("bool<") + Arity +
                                "> f() begin return true; end",
                            Diags),
              nullptr)
        << Arity;
    EXPECT_NE(Diags.str().find("return arity out of range"), std::string::npos)
        << Diags.str();
  }
}

TEST_F(BPParserTest, OutOfRangeIntegerLiteralIsADiagnostic) {
  DiagnosticEngine Diags;
  EXPECT_EQ(parseBProgram("void main() begin\n  decl a;\n"
                          "  a := 99999999999999999999;\nend\n",
                          Diags),
            nullptr);
  EXPECT_NE(Diags.str().find("3:8: error: integer literal out of range"),
            std::string::npos)
      << Diags.str();
}

} // namespace
