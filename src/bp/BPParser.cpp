//===- BPParser.cpp - Parse and verify boolean programs --------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "bp/BPParser.h"

#include <cctype>
#include <charconv>
#include <map>
#include <set>

using namespace slam;
using namespace slam::bp;

namespace {

enum class Tok {
  End,
  Ident, // Plain or {...} variable name (Text holds the name).
  Int,
  KwDecl,
  KwVoid,
  KwBool,
  KwBegin,
  KwEnd,
  KwSkip,
  KwGoto,
  KwReturn,
  KwAssume,
  KwAssert,
  KwEnforce,
  KwIf,
  KwElse,
  KwWhile,
  KwBreak,
  KwContinue,
  KwCall,
  KwTrue,
  KwFalse,
  LParen,
  RParen,
  Lt,
  Gt,
  Comma,
  Semi,
  Colon,
  ColonEq,
  Star,
  Bang,
  AmpAmp,
  PipePipe,
  EqEq,
  BangEq,
  KwChoose,
  Error,
};

struct Token {
  Tok Kind = Tok::End;
  std::string Text;
  int64_t IntValue = 0;
  SourceLoc Loc;
};

std::vector<Token> lex(std::string_view Source) {
  static const std::map<std::string, Tok> Keywords = {
      {"decl", Tok::KwDecl},     {"void", Tok::KwVoid},
      {"bool", Tok::KwBool},     {"begin", Tok::KwBegin},
      {"end", Tok::KwEnd},       {"skip", Tok::KwSkip},
      {"goto", Tok::KwGoto},     {"return", Tok::KwReturn},
      {"assume", Tok::KwAssume}, {"assert", Tok::KwAssert},
      {"enforce", Tok::KwEnforce}, {"if", Tok::KwIf},
      {"else", Tok::KwElse},     {"while", Tok::KwWhile},
      {"break", Tok::KwBreak},   {"continue", Tok::KwContinue},
      {"call", Tok::KwCall},     {"true", Tok::KwTrue},
      {"false", Tok::KwFalse},   {"choose", Tok::KwChoose},
  };

  std::vector<Token> Out;
  size_t Pos = 0;
  unsigned Line = 1, Col = 1;
  auto Advance = [&](size_t N = 1) {
    for (size_t I = 0; I != N && Pos < Source.size(); ++I) {
      if (Source[Pos] == '\n') {
        ++Line;
        Col = 1;
      } else {
        ++Col;
      }
      ++Pos;
    }
  };
  auto Peek = [&](size_t Off = 0) -> char {
    return Pos + Off < Source.size() ? Source[Pos + Off] : '\0';
  };

  while (Pos < Source.size()) {
    char C = Peek();
    if (std::isspace(static_cast<unsigned char>(C))) {
      Advance();
      continue;
    }
    if (C == '/' && Peek(1) == '/') {
      while (Pos < Source.size() && Peek() != '\n')
        Advance();
      continue;
    }
    Token T;
    T.Loc = SourceLoc(Line, Col);
    if (C == '{') {
      // A {…} predicate-variable name; braces may not nest.
      Advance();
      std::string Name;
      while (Pos < Source.size() && Peek() != '}') {
        Name += Peek();
        Advance();
      }
      Advance(); // '}'.
      // Trim surrounding blanks inside the braces.
      size_t B = Name.find_first_not_of(" \t");
      size_t E = Name.find_last_not_of(" \t");
      T.Kind = Tok::Ident;
      T.Text = B == std::string::npos ? "" : Name.substr(B, E - B + 1);
      Out.push_back(std::move(T));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(C))) {
      std::string Text;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) {
        Text += Peek();
        Advance();
      }
      T.Kind = Tok::Int;
      if (std::from_chars(Text.data(), Text.data() + Text.size(), T.IntValue)
              .ec != std::errc())
        T.Kind = Tok::Error; // Out of the int64 range.
      T.Text = std::move(Text);
      Out.push_back(std::move(T));
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      std::string Text;
      while (std::isalnum(static_cast<unsigned char>(Peek())) ||
             Peek() == '_') {
        Text += Peek();
        Advance();
      }
      auto It = Keywords.find(Text);
      T.Kind = It == Keywords.end() ? Tok::Ident : It->second;
      T.Text = std::move(Text);
      Out.push_back(std::move(T));
      continue;
    }
    auto Two = [&](char Next) { return Peek(1) == Next; };
    size_t Len = 1;
    switch (C) {
    case '(': T.Kind = Tok::LParen; break;
    case ')': T.Kind = Tok::RParen; break;
    case '<': T.Kind = Tok::Lt; break;
    case '>': T.Kind = Tok::Gt; break;
    case ',': T.Kind = Tok::Comma; break;
    case ';': T.Kind = Tok::Semi; break;
    case '*': T.Kind = Tok::Star; break;
    case ':':
      if (Two('=')) { T.Kind = Tok::ColonEq; Len = 2; }
      else T.Kind = Tok::Colon;
      break;
    case '!':
      if (Two('=')) { T.Kind = Tok::BangEq; Len = 2; }
      else T.Kind = Tok::Bang;
      break;
    case '&':
      if (Two('&')) { T.Kind = Tok::AmpAmp; Len = 2; }
      else T.Kind = Tok::Error;
      break;
    case '|':
      if (Two('|')) { T.Kind = Tok::PipePipe; Len = 2; }
      else T.Kind = Tok::Error;
      break;
    case '=':
      if (Two('=')) { T.Kind = Tok::EqEq; Len = 2; }
      else T.Kind = Tok::Error;
      break;
    default:
      T.Kind = Tok::Error;
      break;
    }
    T.Text = std::string(Source.substr(Pos, Len));
    Advance(Len);
    Out.push_back(std::move(T));
  }
  Token End;
  End.Loc = SourceLoc(Line, Col);
  Out.push_back(std::move(End));
  return Out;
}

class BPParserImpl {
public:
  BPParserImpl(std::string_view Source, DiagnosticEngine &Diags)
      : Tokens(lex(Source)), Diags(Diags) {
    P = std::make_unique<BProgram>();
  }

  std::unique_ptr<BProgram> run() {
    while (!at(Tok::End)) {
      if (at(Tok::KwDecl)) {
        advance();
        if (!parseNameList(P->Globals) || !expect(Tok::Semi, "';'"))
          return nullptr;
        continue;
      }
      if (!parseProc())
        return nullptr;
    }
    return std::move(P);
  }

private:
  std::vector<Token> Tokens;
  DiagnosticEngine &Diags;
  std::unique_ptr<BProgram> P;
  size_t Pos = 0;

  const Token &cur() const { return Tokens[Pos]; }
  const Token &peek(size_t Off = 1) const {
    size_t I = Pos + Off;
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }
  bool at(Tok Kind) const { return cur().Kind == Kind; }
  void advance() {
    if (!at(Tok::End))
      ++Pos;
  }
  bool accept(Tok Kind) {
    if (!at(Kind))
      return false;
    advance();
    return true;
  }
  bool expect(Tok Kind, const char *What) {
    if (accept(Kind))
      return true;
    error(std::string("expected ") + What);
    return false;
  }
  void error(const std::string &Message) {
    // The lexer leaves an out-of-range integer literal as an Error token.
    bool BadInt = at(Tok::Error) &&
                  std::isdigit(static_cast<unsigned char>(cur().Text[0]));
    Diags.error(cur().Loc, BadInt ? "integer literal out of range"
                                  : Message + " (found '" + cur().Text + "')");
  }

  bool parseNameList(std::vector<std::string> &Out) {
    do {
      if (!at(Tok::Ident)) {
        error("expected variable name");
        return false;
      }
      Out.push_back(cur().Text);
      advance();
    } while (accept(Tok::Comma));
    return true;
  }

  bool parseProc() {
    unsigned NumReturns = 0;
    if (accept(Tok::KwVoid)) {
      NumReturns = 0;
    } else if (accept(Tok::KwBool)) {
      if (!expect(Tok::Lt, "'<'"))
        return false;
      if (!at(Tok::Int)) {
        error("expected return arity");
        return false;
      }
      // C2bp emits a procedure's return predicates, a handful; the cap
      // keeps a huge arity from wrapping or exhausting memory.
      if (cur().IntValue > 65535) {
        error("return arity out of range");
        return false;
      }
      NumReturns = static_cast<unsigned>(cur().IntValue);
      advance();
      if (!expect(Tok::Gt, "'>'"))
        return false;
    } else {
      error("expected 'void' or 'bool<n>' procedure header");
      return false;
    }
    if (!at(Tok::Ident)) {
      error("expected procedure name");
      return false;
    }
    BProc *Proc = P->makeProc();
    Proc->Name = cur().Text;
    Proc->NumReturns = NumReturns;
    advance();
    if (!expect(Tok::LParen, "'('"))
      return false;
    if (!at(Tok::RParen) && !parseNameList(Proc->Params))
      return false;
    if (!expect(Tok::RParen, "')'") || !expect(Tok::KwBegin, "'begin'"))
      return false;
    while (at(Tok::KwDecl)) {
      advance();
      if (!parseNameList(Proc->Locals) || !expect(Tok::Semi, "';'"))
        return false;
    }
    if (accept(Tok::KwEnforce)) {
      Proc->Enforce = parseExpr();
      if (!Proc->Enforce || !expect(Tok::Semi, "';'"))
        return false;
    }
    BStmt *Body = P->makeStmt(BStmtKind::Block);
    while (!accept(Tok::KwEnd)) {
      if (at(Tok::End)) {
        error("unterminated procedure");
        return false;
      }
      BStmt *S = parseStmt();
      if (!S)
        return false;
      Body->Stmts.push_back(S);
    }
    Proc->Body = Body;
    P->Procs.push_back(Proc);
    return true;
  }

  BStmt *parseBlockUntil(std::initializer_list<Tok> Stops) {
    BStmt *Block = P->makeStmt(BStmtKind::Block);
    for (;;) {
      for (Tok Stop : Stops)
        if (at(Stop))
          return Block;
      if (at(Tok::End)) {
        error("unterminated block");
        return nullptr;
      }
      BStmt *S = parseStmt();
      if (!S)
        return nullptr;
      Block->Stmts.push_back(S);
    }
  }

  BStmt *parseStmt() {
    switch (cur().Kind) {
    case Tok::KwSkip: {
      advance();
      if (!expect(Tok::Semi, "';'"))
        return nullptr;
      return P->makeStmt(BStmtKind::Skip);
    }
    case Tok::KwGoto: {
      advance();
      BStmt *S = P->makeStmt(BStmtKind::Goto);
      do {
        if (!at(Tok::Ident)) {
          error("expected label");
          return nullptr;
        }
        S->Labels.push_back(cur().Text);
        advance();
      } while (accept(Tok::Comma));
      if (!expect(Tok::Semi, "';'"))
        return nullptr;
      return S;
    }
    case Tok::KwReturn: {
      advance();
      BStmt *S = P->makeStmt(BStmtKind::Return);
      if (!at(Tok::Semi)) {
        do {
          const BExpr *E = parseExpr();
          if (!E)
            return nullptr;
          S->Exprs.push_back(E);
        } while (accept(Tok::Comma));
      }
      if (!expect(Tok::Semi, "';'"))
        return nullptr;
      return S;
    }
    case Tok::KwAssume:
    case Tok::KwAssert: {
      bool IsAssume = at(Tok::KwAssume);
      advance();
      if (!expect(Tok::LParen, "'('"))
        return nullptr;
      const BExpr *E = parseExpr();
      if (!E || !expect(Tok::RParen, "')'") || !expect(Tok::Semi, "';'"))
        return nullptr;
      BStmt *S =
          P->makeStmt(IsAssume ? BStmtKind::Assume : BStmtKind::Assert);
      S->Cond = E;
      return S;
    }
    case Tok::KwIf: {
      advance();
      if (!expect(Tok::LParen, "'('"))
        return nullptr;
      const BExpr *Cond = parseExpr();
      if (!Cond || !expect(Tok::RParen, "')'") ||
          !expect(Tok::KwBegin, "'begin'"))
        return nullptr;
      BStmt *Then = parseBlockUntil({Tok::KwEnd});
      if (!Then || !expect(Tok::KwEnd, "'end'"))
        return nullptr;
      BStmt *S = P->makeStmt(BStmtKind::If);
      S->Cond = Cond;
      S->Then = Then;
      if (accept(Tok::KwElse)) {
        if (!expect(Tok::KwBegin, "'begin'"))
          return nullptr;
        S->Else = parseBlockUntil({Tok::KwEnd});
        if (!S->Else || !expect(Tok::KwEnd, "'end'"))
          return nullptr;
      }
      return S;
    }
    case Tok::KwWhile: {
      advance();
      if (!expect(Tok::LParen, "'('"))
        return nullptr;
      const BExpr *Cond = parseExpr();
      if (!Cond || !expect(Tok::RParen, "')'") ||
          !expect(Tok::KwBegin, "'begin'"))
        return nullptr;
      BStmt *Body = parseBlockUntil({Tok::KwEnd});
      if (!Body || !expect(Tok::KwEnd, "'end'"))
        return nullptr;
      BStmt *S = P->makeStmt(BStmtKind::While);
      S->Cond = Cond;
      S->Body = Body;
      return S;
    }
    case Tok::KwBreak:
      advance();
      if (!expect(Tok::Semi, "';'"))
        return nullptr;
      return P->makeStmt(BStmtKind::Break);
    case Tok::KwContinue:
      advance();
      if (!expect(Tok::Semi, "';'"))
        return nullptr;
      return P->makeStmt(BStmtKind::Continue);
    case Tok::KwCall: {
      BStmt *S = P->makeStmt(BStmtKind::Call);
      if (!parseCallRest(S))
        return nullptr;
      return S;
    }
    case Tok::Ident: {
      // Label, assignment, or call with returns.
      if (peek().Kind == Tok::Colon) {
        BStmt *S = P->makeStmt(BStmtKind::Label);
        S->LabelName = cur().Text;
        advance();
        advance();
        S->Sub = parseStmt();
        return S->Sub ? S : nullptr;
      }
      BStmt *S = P->makeStmt(BStmtKind::Assign);
      if (!parseNameList(S->Targets) || !expect(Tok::ColonEq, "':='"))
        return nullptr;
      if (at(Tok::KwCall)) {
        S->Kind = BStmtKind::Call;
        if (!parseCallRest(S))
          return nullptr;
        return S;
      }
      do {
        const BExpr *E = parseExpr();
        if (!E)
          return nullptr;
        S->Exprs.push_back(E);
      } while (accept(Tok::Comma));
      if (!expect(Tok::Semi, "';'"))
        return nullptr;
      return S;
    }
    default:
      error("expected a statement");
      return nullptr;
    }
  }

  bool parseCallRest(BStmt *S) {
    if (!expect(Tok::KwCall, "'call'"))
      return false;
    if (!at(Tok::Ident)) {
      error("expected procedure name");
      return false;
    }
    S->Callee = cur().Text;
    advance();
    if (!expect(Tok::LParen, "'('"))
      return false;
    if (!at(Tok::RParen)) {
      do {
        const BExpr *E = parseExpr();
        if (!E)
          return false;
        S->Exprs.push_back(E);
      } while (accept(Tok::Comma));
    }
    return expect(Tok::RParen, "')'") && expect(Tok::Semi, "';'");
  }

  // Expressions.
  const BExpr *parseExpr() { return parseOr(); }

  const BExpr *parseOr() {
    const BExpr *L = parseAnd();
    if (!L)
      return nullptr;
    while (accept(Tok::PipePipe)) {
      const BExpr *R = parseAnd();
      if (!R)
        return nullptr;
      L = P->orE(L, R);
    }
    return L;
  }

  const BExpr *parseAnd() {
    const BExpr *L = parseEq();
    if (!L)
      return nullptr;
    while (accept(Tok::AmpAmp)) {
      const BExpr *R = parseEq();
      if (!R)
        return nullptr;
      L = P->andE(L, R);
    }
    return L;
  }

  const BExpr *parseEq() {
    const BExpr *L = parseUnary();
    if (!L)
      return nullptr;
    while (at(Tok::EqEq) || at(Tok::BangEq)) {
      bool IsEq = at(Tok::EqEq);
      advance();
      const BExpr *R = parseUnary();
      if (!R)
        return nullptr;
      BExpr *E = P->makeExpr(IsEq ? BExprKind::Eq : BExprKind::Ne);
      E->Ops.push_back(L);
      E->Ops.push_back(R);
      L = E;
    }
    return L;
  }

  const BExpr *parseUnary() {
    if (accept(Tok::Bang)) {
      const BExpr *E = parseUnary();
      return E ? P->notE(E) : nullptr;
    }
    return parsePrimary();
  }

  const BExpr *parsePrimary() {
    switch (cur().Kind) {
    case Tok::KwTrue:
      advance();
      return P->constant(true);
    case Tok::KwFalse:
      advance();
      return P->constant(false);
    case Tok::Star:
      advance();
      return P->star();
    case Tok::KwChoose: {
      advance();
      if (!expect(Tok::LParen, "'('"))
        return nullptr;
      const BExpr *Pos = parseExpr();
      if (!Pos || !expect(Tok::Comma, "','"))
        return nullptr;
      const BExpr *Neg = parseExpr();
      if (!Neg || !expect(Tok::RParen, "')'"))
        return nullptr;
      return P->choose(Pos, Neg);
    }
    case Tok::Ident: {
      const BExpr *E = P->varRef(cur().Text);
      advance();
      return E;
    }
    case Tok::LParen: {
      advance();
      const BExpr *E = parseExpr();
      if (!E || !expect(Tok::RParen, "')'"))
        return nullptr;
      return E;
    }
    default:
      error("expected a boolean expression");
      return nullptr;
    }
  }
};

//===----------------------------------------------------------------------===//
// Verification
//===----------------------------------------------------------------------===//

class Verifier {
public:
  Verifier(const BProgram &P, DiagnosticEngine &Diags)
      : P(P), Diags(Diags) {}

  bool run() {
    for (const BProc *Proc : P.Procs)
      verifyProc(*Proc);
    return !Diags.hasErrors();
  }

private:
  const BProgram &P;
  DiagnosticEngine &Diags;
  const BProc *Cur = nullptr;
  std::set<std::string> Labels;
  unsigned LoopDepth = 0;

  void error(const std::string &Message) {
    Diags.error(SourceLoc(),
                (Cur ? "in " + Cur->Name + ": " : "") + Message);
  }

  bool isDeclared(const std::string &Name) const {
    if (Cur && Cur->hasLocal(Name))
      return true;
    for (const std::string &G : P.Globals)
      if (G == Name)
        return true;
    return false;
  }

  void collectLabels(const BStmt &S) {
    if (S.Kind == BStmtKind::Label) {
      if (!Labels.insert(S.LabelName).second)
        error("duplicate label '" + S.LabelName + "'");
      collectLabels(*S.Sub);
      return;
    }
    for (const BStmt *Sub : {S.Then, S.Else, S.Body, S.Sub})
      if (Sub)
        collectLabels(*Sub);
    for (const BStmt *Sub : S.Stmts)
      collectLabels(*Sub);
  }

  void verifyProc(const BProc &Proc) {
    Cur = &Proc;
    Labels.clear();
    LoopDepth = 0;
    std::set<std::string> Seen;
    for (const std::string &Name : Proc.Params)
      if (!Seen.insert(Name).second)
        error("duplicate parameter '" + Name + "'");
    for (const std::string &Name : Proc.Locals)
      if (!Seen.insert(Name).second)
        error("duplicate local '" + Name + "'");
    if (Proc.Enforce)
      verifyExpr(*Proc.Enforce);
    if (Proc.Body) {
      collectLabels(*Proc.Body);
      verifyStmt(*Proc.Body);
    }
    Cur = nullptr;
  }

  void verifyExpr(const BExpr &E) {
    if (E.Kind == BExprKind::VarRef && !isDeclared(E.Name))
      error("use of undeclared variable '" + E.Name + "'");
    for (const BExpr *Op : E.Ops)
      verifyExpr(*Op);
  }

  /// Every target of an assignment or call is declared, and none is
  /// named twice: two values for one variable in one step would block
  /// the path.
  void verifyTargets(const BStmt &S) {
    std::set<std::string> Seen;
    for (const std::string &T : S.Targets) {
      if (!isDeclared(T))
        error("assignment to undeclared variable '" + T + "'");
      else if (!Seen.insert(T).second)
        error("variable '" + T + "' is assigned twice in one statement");
    }
  }

  void verifyStmt(const BStmt &S) {
    switch (S.Kind) {
    case BStmtKind::Assign:
      if (S.Targets.size() != S.Exprs.size())
        error("parallel assignment arity mismatch");
      verifyTargets(S);
      break;
    case BStmtKind::Call: {
      const BProc *Callee = P.findProc(S.Callee);
      if (!Callee) {
        error("call to unknown procedure '" + S.Callee + "'");
        break;
      }
      if (S.Exprs.size() != Callee->Params.size())
        error("wrong number of arguments to '" + S.Callee + "'");
      if (!S.Targets.empty() && S.Targets.size() != Callee->NumReturns)
        error("wrong number of return targets for '" + S.Callee + "'");
      verifyTargets(S);
      break;
    }
    case BStmtKind::Return:
      if (S.Exprs.size() != Cur->NumReturns)
        error("return arity mismatch in '" + Cur->Name + "'");
      break;
    case BStmtKind::Goto:
      for (const std::string &L : S.Labels)
        if (!Labels.count(L))
          error("goto to undefined label '" + L + "'");
      break;
    case BStmtKind::Break:
    case BStmtKind::Continue:
      if (LoopDepth == 0)
        error("break/continue outside of a loop");
      break;
    default:
      break;
    }
    if (S.Cond)
      verifyExpr(*S.Cond);
    for (const BExpr *E : S.Exprs)
      verifyExpr(*E);
    if (S.Kind == BStmtKind::While) {
      ++LoopDepth;
      verifyStmt(*S.Body);
      --LoopDepth;
      return;
    }
    for (const BStmt *Sub : {S.Then, S.Else, S.Body, S.Sub})
      if (Sub)
        verifyStmt(*Sub);
    for (const BStmt *Sub : S.Stmts)
      verifyStmt(*Sub);
  }
};

} // namespace

std::unique_ptr<BProgram> bp::parseBProgram(std::string_view Source,
                                            DiagnosticEngine &Diags) {
  BPParserImpl Parser(Source, Diags);
  std::unique_ptr<BProgram> P = Parser.run();
  if (Diags.hasErrors())
    return nullptr;
  return P;
}

bool bp::verifyBProgram(const BProgram &P, DiagnosticEngine &Diags) {
  Verifier V(P, Diags);
  return V.run();
}
