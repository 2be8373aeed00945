//===- Parser.cpp - Recursive descent for SIL-C ----------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "cfront/Parser.h"

#include "cfront/Lexer.h"

#include <cctype>
#include <map>

using namespace slam;
using namespace slam::cfront;

namespace {

class ParserImpl {
public:
  ParserImpl(std::string_view Source, DiagnosticEngine &Diags)
      : Tokens(tokenize(Source)), Diags(Diags) {
    P = std::make_unique<Program>();
    P->SourceLines = countLines(Source);
  }

  std::unique_ptr<Program> run() {
    while (!at(TokKind::End)) {
      if (!parseTopLevel())
        return nullptr;
    }
    return std::move(P);
  }

  /// One expression and nothing after it; sets \p Out on success.
  std::unique_ptr<Program> runExpression(Expr *&Out) {
    Out = parseExpr();
    if (Out && !at(TokKind::End)) {
      error("unexpected trailing input");
      Out = nullptr;
    }
    return Out ? std::move(P) : nullptr;
  }

private:
  std::vector<Token> Tokens;
  DiagnosticEngine &Diags;
  std::unique_ptr<Program> P;
  size_t Pos = 0;
  std::map<std::string, const Type *> Typedefs;
  FuncDecl *CurFunc = nullptr;

  // -- Token helpers ------------------------------------------------------
  const Token &cur() const { return Tokens[Pos]; }
  const Token &peek(size_t Off = 1) const {
    size_t I = Pos + Off;
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }
  bool at(TokKind Kind) const { return cur().Kind == Kind; }
  void advance() {
    if (!at(TokKind::End))
      ++Pos;
  }
  bool accept(TokKind Kind) {
    if (!at(Kind))
      return false;
    advance();
    return true;
  }
  bool expect(TokKind Kind, const char *What) {
    if (accept(Kind))
      return true;
    error(std::string("expected ") + What);
    return false;
  }
  void error(const std::string &Message) {
    // The lexer leaves an out-of-range integer literal as an Error token.
    bool BadInt = at(TokKind::Error) &&
                  std::isdigit(static_cast<unsigned char>(cur().Text[0]));
    Diags.error(cur().Loc, BadInt ? "integer literal out of range"
                                  : Message + " (found '" + cur().Text + "')");
  }

  // -- Types ----------------------------------------------------------------
  /// True if the current token starts a type specifier.
  bool atTypeSpec() const {
    switch (cur().Kind) {
    case TokKind::KwInt:
    case TokKind::KwVoid:
    case TokKind::KwStruct:
      return true;
    case TokKind::Ident:
      return Typedefs.count(cur().Text) != 0;
    default:
      return false;
    }
  }

  /// typespec := int | void | struct Ident [{ fields }] | TypedefName
  const Type *parseTypeSpec() {
    if (accept(TokKind::KwInt))
      return P->Types.intType();
    if (accept(TokKind::KwVoid))
      return P->Types.voidType();
    if (accept(TokKind::KwStruct)) {
      if (!at(TokKind::Ident)) {
        error("expected struct name");
        return nullptr;
      }
      std::string Name = cur().Text;
      advance();
      RecordDecl *Rec = P->Types.getOrCreateRecord(Name);
      if (at(TokKind::LBrace) && !parseRecordBody(Rec))
        return nullptr;
      return P->Types.recordType(Rec);
    }
    if (at(TokKind::Ident)) {
      auto It = Typedefs.find(cur().Text);
      if (It != Typedefs.end()) {
        advance();
        return It->second;
      }
    }
    error("expected a type");
    return nullptr;
  }

  bool parseRecordBody(RecordDecl *Rec) {
    if (!expect(TokKind::LBrace, "'{'"))
      return false;
    if (!Rec->Fields.empty()) {
      error("struct '" + Rec->Name + "' is already defined");
      return false;
    }
    while (!accept(TokKind::RBrace)) {
      const Type *Base = parseTypeSpec();
      if (!Base)
        return false;
      do {
        auto [Ty, Name] = parseDeclarator(Base);
        if (Name.empty())
          return false;
        if (Rec->findField(Name)) {
          error("duplicate field '" + Name + "'");
          return false;
        }
        Rec->Fields.push_back({Name, Ty});
      } while (accept(TokKind::Comma));
      if (!expect(TokKind::Semi, "';' after field"))
        return false;
    }
    return true;
  }

  /// declarator := '*'* Ident ('[' IntLit ']')?
  std::pair<const Type *, std::string> parseDeclarator(const Type *Base) {
    const Type *Ty = Base;
    while (accept(TokKind::Star))
      Ty = P->Types.pointerTo(Ty);
    if (!at(TokKind::Ident)) {
      error("expected identifier in declarator");
      return {nullptr, ""};
    }
    std::string Name = cur().Text;
    advance();
    if (accept(TokKind::LBracket)) {
      if (!at(TokKind::IntLit)) {
        error("expected array size");
        return {nullptr, ""};
      }
      int64_t Size = cur().IntValue;
      advance();
      if (!expect(TokKind::RBracket, "']'"))
        return {nullptr, ""};
      Ty = P->Types.arrayOf(Ty, Size);
    }
    return {Ty, Name};
  }

  // -- Top level ------------------------------------------------------------
  bool parseTopLevel() {
    if (accept(TokKind::KwTypedef)) {
      const Type *Base = parseTypeSpec();
      if (!Base)
        return false;
      auto [Ty, Name] = parseDeclarator(Base);
      if (Name.empty())
        return false;
      Typedefs[Name] = Ty;
      return expect(TokKind::Semi, "';' after typedef");
    }
    // `struct S { ... };` as a standalone definition.
    if (at(TokKind::KwStruct) && peek().Kind == TokKind::Ident &&
        peek(2).Kind == TokKind::LBrace) {
      advance();
      RecordDecl *Rec = P->Types.getOrCreateRecord(cur().Text);
      advance();
      if (!parseRecordBody(Rec))
        return false;
      return expect(TokKind::Semi, "';' after struct definition");
    }

    SourceLoc Loc = cur().Loc;
    const Type *Base = parseTypeSpec();
    if (!Base)
      return false;
    auto [Ty, Name] = parseDeclarator(Base);
    if (Name.empty())
      return false;

    if (at(TokKind::LParen))
      return parseFunctionRest(Ty, Name, Loc);

    // Global variable(s).
    P->Globals.push_back(P->makeVar(Name, Ty, VarDecl::Scope::Global, Loc));
    while (accept(TokKind::Comma)) {
      auto [Ty2, Name2] = parseDeclarator(Base);
      if (Name2.empty())
        return false;
      P->Globals.push_back(
          P->makeVar(Name2, Ty2, VarDecl::Scope::Global, Loc));
    }
    return expect(TokKind::Semi, "';' after global declaration");
  }

  bool parseFunctionRest(const Type *RetTy, const std::string &Name,
                         SourceLoc Loc) {
    FuncDecl *F = P->makeFunc(Name, Loc);
    F->ReturnTy = RetTy;
    CurFunc = F;
    expect(TokKind::LParen, "'('");
    if (!at(TokKind::RParen)) {
      if (at(TokKind::KwVoid) && peek().Kind == TokKind::RParen) {
        advance(); // `f(void)`.
      } else {
        do {
          const Type *Base = parseTypeSpec();
          if (!Base)
            return false;
          auto [Ty, PName] = parseDeclarator(Base);
          if (PName.empty())
            return false;
          F->Params.push_back(
              P->makeVar(PName, Ty, VarDecl::Scope::Param, Loc));
        } while (accept(TokKind::Comma));
      }
    }
    if (!expect(TokKind::RParen, "')'"))
      return false;
    if (accept(TokKind::Semi)) {
      P->Functions.push_back(F); // Extern declaration.
      CurFunc = nullptr;
      return true;
    }
    Stmt *Body = parseBlock();
    if (!Body)
      return false;
    F->Body = Body;
    P->Functions.push_back(F);
    CurFunc = nullptr;
    return true;
  }

  // -- Statements -------------------------------------------------------------
  Stmt *parseBlock() {
    SourceLoc Loc = cur().Loc;
    if (!expect(TokKind::LBrace, "'{'"))
      return nullptr;
    Stmt *Block = P->makeStmt(CStmtKind::Block, Loc);
    while (!accept(TokKind::RBrace)) {
      if (at(TokKind::End)) {
        error("unterminated block");
        return nullptr;
      }
      if (atTypeSpec() && !atLabel()) {
        if (!parseLocalDecl(Block))
          return nullptr;
        continue;
      }
      Stmt *S = parseStmt();
      if (!S)
        return nullptr;
      Block->Stmts.push_back(S);
    }
    return Block;
  }

  /// A typedef name followed by ':' is a label, not a declaration.
  bool atLabel() const {
    return at(TokKind::Ident) && peek().Kind == TokKind::Colon;
  }

  bool parseLocalDecl(Stmt *Block) {
    SourceLoc Loc = cur().Loc;
    const Type *Base = parseTypeSpec();
    if (!Base)
      return false;
    do {
      auto [Ty, Name] = parseDeclarator(Base);
      if (Name.empty())
        return false;
      VarDecl *V = P->makeVar(Name, Ty, VarDecl::Scope::Local, Loc);
      CurFunc->Locals.push_back(V);
      if (accept(TokKind::Assign)) {
        Expr *Init = parseExpr();
        if (!Init)
          return false;
        Stmt *S = P->makeStmt(CStmtKind::Assign, Loc);
        Expr *Ref = P->makeExpr(CExprKind::VarRef, Loc);
        Ref->Name = Name;
        S->Lhs = Ref;
        S->Rhs = Init;
        Block->Stmts.push_back(S);
      }
    } while (accept(TokKind::Comma));
    return expect(TokKind::Semi, "';' after declaration");
  }

  Stmt *parseStmt() {
    SourceLoc Loc = cur().Loc;
    switch (cur().Kind) {
    case TokKind::LBrace:
      return parseBlock();
    case TokKind::Semi:
      advance();
      return P->makeStmt(CStmtKind::Skip, Loc);
    case TokKind::KwIf: {
      advance();
      if (!expect(TokKind::LParen, "'(' after if"))
        return nullptr;
      Expr *Cond = parseExpr();
      if (!Cond || !expect(TokKind::RParen, "')'"))
        return nullptr;
      Stmt *Then = parseStmt();
      if (!Then)
        return nullptr;
      Stmt *Else = nullptr;
      if (accept(TokKind::KwElse)) {
        Else = parseStmt();
        if (!Else)
          return nullptr;
      }
      Stmt *S = P->makeStmt(CStmtKind::If, Loc);
      S->Cond = Cond;
      S->Then = Then;
      S->Else = Else;
      return S;
    }
    case TokKind::KwWhile: {
      advance();
      if (!expect(TokKind::LParen, "'(' after while"))
        return nullptr;
      Expr *Cond = parseExpr();
      if (!Cond || !expect(TokKind::RParen, "')'"))
        return nullptr;
      Stmt *Body = parseStmt();
      if (!Body)
        return nullptr;
      Stmt *S = P->makeStmt(CStmtKind::While, Loc);
      S->Cond = Cond;
      S->Body = Body;
      return S;
    }
    case TokKind::KwGoto: {
      advance();
      if (!at(TokKind::Ident)) {
        error("expected label after goto");
        return nullptr;
      }
      Stmt *S = P->makeStmt(CStmtKind::Goto, Loc);
      S->LabelName = cur().Text;
      advance();
      if (!expect(TokKind::Semi, "';'"))
        return nullptr;
      return S;
    }
    case TokKind::KwReturn: {
      advance();
      Stmt *S = P->makeStmt(CStmtKind::Return, Loc);
      if (!at(TokKind::Semi)) {
        S->Rhs = parseExpr();
        if (!S->Rhs)
          return nullptr;
      }
      if (!expect(TokKind::Semi, "';'"))
        return nullptr;
      return S;
    }
    case TokKind::KwAssert: {
      advance();
      if (!expect(TokKind::LParen, "'('"))
        return nullptr;
      Expr *Cond = parseExpr();
      if (!Cond || !expect(TokKind::RParen, "')'") ||
          !expect(TokKind::Semi, "';'"))
        return nullptr;
      Stmt *S = P->makeStmt(CStmtKind::Assert, Loc);
      S->Cond = Cond;
      return S;
    }
    case TokKind::KwBreak:
      advance();
      if (!expect(TokKind::Semi, "';'"))
        return nullptr;
      return P->makeStmt(CStmtKind::Break, Loc);
    case TokKind::KwContinue:
      advance();
      if (!expect(TokKind::Semi, "';'"))
        return nullptr;
      return P->makeStmt(CStmtKind::Continue, Loc);
    default:
      break;
    }

    // Label.
    if (atLabel()) {
      Stmt *S = P->makeStmt(CStmtKind::Label, Loc);
      S->LabelName = cur().Text;
      advance();
      advance(); // ':'.
      S->Sub = parseStmt();
      return S->Sub ? S : nullptr;
    }

    // Assignment or call statement.
    Expr *First = parseExpr();
    if (!First)
      return nullptr;
    if (accept(TokKind::Assign)) {
      Expr *Rhs = parseExpr();
      if (!Rhs || !expect(TokKind::Semi, "';'"))
        return nullptr;
      if (Rhs->Kind == CExprKind::Call) {
        Stmt *S = P->makeStmt(CStmtKind::CallStmt, Loc);
        S->Lhs = First;
        S->CallE = Rhs;
        return S;
      }
      Stmt *S = P->makeStmt(CStmtKind::Assign, Loc);
      S->Lhs = First;
      S->Rhs = Rhs;
      return S;
    }
    if (!expect(TokKind::Semi, "';'"))
      return nullptr;
    if (First->Kind != CExprKind::Call) {
      Diags.error(Loc, "expression statement must be a call");
      return nullptr;
    }
    Stmt *S = P->makeStmt(CStmtKind::CallStmt, Loc);
    S->CallE = First;
    return S;
  }

  // -- Expressions -------------------------------------------------------------
  Expr *parseExpr() { return parseOr(); }

  Expr *parseOr() {
    Expr *L = parseAnd();
    if (!L)
      return nullptr;
    while (at(TokKind::PipePipe)) {
      SourceLoc Loc = cur().Loc;
      advance();
      Expr *R = parseAnd();
      if (!R)
        return nullptr;
      L = makeBinary(BinaryOp::LOr, L, R, Loc);
    }
    return L;
  }

  Expr *parseAnd() {
    Expr *L = parseCmp();
    if (!L)
      return nullptr;
    while (at(TokKind::AmpAmp)) {
      SourceLoc Loc = cur().Loc;
      advance();
      Expr *R = parseCmp();
      if (!R)
        return nullptr;
      L = makeBinary(BinaryOp::LAnd, L, R, Loc);
    }
    return L;
  }

  Expr *parseCmp() {
    Expr *L = parseAdd();
    if (!L)
      return nullptr;
    BinaryOp Op;
    switch (cur().Kind) {
    case TokKind::EqEq:
      Op = BinaryOp::Eq;
      break;
    case TokKind::BangEq:
      Op = BinaryOp::Ne;
      break;
    case TokKind::Lt:
      Op = BinaryOp::Lt;
      break;
    case TokKind::Le:
      Op = BinaryOp::Le;
      break;
    case TokKind::Gt:
      Op = BinaryOp::Gt;
      break;
    case TokKind::Ge:
      Op = BinaryOp::Ge;
      break;
    default:
      return L;
    }
    SourceLoc Loc = cur().Loc;
    advance();
    Expr *R = parseAdd();
    if (!R)
      return nullptr;
    return makeBinary(Op, L, R, Loc);
  }

  Expr *parseAdd() {
    Expr *L = parseMul();
    if (!L)
      return nullptr;
    while (at(TokKind::Plus) || at(TokKind::Minus)) {
      BinaryOp Op = at(TokKind::Plus) ? BinaryOp::Add : BinaryOp::Sub;
      SourceLoc Loc = cur().Loc;
      advance();
      Expr *R = parseMul();
      if (!R)
        return nullptr;
      L = makeBinary(Op, L, R, Loc);
    }
    return L;
  }

  Expr *parseMul() {
    Expr *L = parseUnary();
    if (!L)
      return nullptr;
    while (at(TokKind::Star) || at(TokKind::Slash) || at(TokKind::Percent)) {
      BinaryOp Op = at(TokKind::Star)    ? BinaryOp::Mul
                    : at(TokKind::Slash) ? BinaryOp::Div
                                         : BinaryOp::Mod;
      SourceLoc Loc = cur().Loc;
      advance();
      Expr *R = parseUnary();
      if (!R)
        return nullptr;
      L = makeBinary(Op, L, R, Loc);
    }
    return L;
  }

  Expr *parseUnary() {
    SourceLoc Loc = cur().Loc;
    UnaryOp Op;
    if (accept(TokKind::Star))
      Op = UnaryOp::Deref;
    else if (accept(TokKind::Amp))
      Op = UnaryOp::AddrOf;
    else if (accept(TokKind::Minus))
      Op = UnaryOp::Neg;
    else if (accept(TokKind::Bang))
      Op = UnaryOp::Not;
    else
      return parsePostfix();
    Expr *Sub = parseUnary();
    if (!Sub)
      return nullptr;
    Expr *E = P->makeExpr(CExprKind::Unary, Loc);
    E->UOp = Op;
    E->Ops.push_back(Sub);
    return E;
  }

  Expr *parsePostfix() {
    Expr *E = parsePrimary();
    if (!E)
      return nullptr;
    for (;;) {
      SourceLoc Loc = cur().Loc;
      if (accept(TokKind::Arrow) || (at(TokKind::Dot) && (advance(), true))) {
        bool Arrow = Tokens[Pos - 1].Kind == TokKind::Arrow;
        if (!at(TokKind::Ident)) {
          error("expected field name");
          return nullptr;
        }
        Expr *M = P->makeExpr(CExprKind::Member, Loc);
        M->Ops.push_back(E);
        M->FieldName = cur().Text;
        M->IsArrow = Arrow;
        advance();
        E = M;
        continue;
      }
      if (accept(TokKind::LBracket)) {
        Expr *Idx = parseExpr();
        if (!Idx || !expect(TokKind::RBracket, "']'"))
          return nullptr;
        Expr *I = P->makeExpr(CExprKind::Index, Loc);
        I->Ops.push_back(E);
        I->Ops.push_back(Idx);
        E = I;
        continue;
      }
      return E;
    }
  }

  Expr *parsePrimary() {
    SourceLoc Loc = cur().Loc;
    switch (cur().Kind) {
    case TokKind::IntLit: {
      Expr *E = P->makeExpr(CExprKind::IntLit, Loc);
      E->IntValue = cur().IntValue;
      advance();
      return E;
    }
    case TokKind::KwNull:
      advance();
      return P->makeExpr(CExprKind::NullLit, Loc);
    case TokKind::Ident: {
      std::string Name = cur().Text;
      advance();
      if (accept(TokKind::LParen)) {
        Expr *Call = P->makeExpr(CExprKind::Call, Loc);
        Call->Name = Name;
        if (!at(TokKind::RParen)) {
          do {
            Expr *Arg = parseExpr();
            if (!Arg)
              return nullptr;
            Call->Ops.push_back(Arg);
          } while (accept(TokKind::Comma));
        }
        if (!expect(TokKind::RParen, "')'"))
          return nullptr;
        return Call;
      }
      Expr *E = P->makeExpr(CExprKind::VarRef, Loc);
      E->Name = Name;
      return E;
    }
    case TokKind::LParen: {
      advance();
      Expr *E = parseExpr();
      if (!E || !expect(TokKind::RParen, "')'"))
        return nullptr;
      return E;
    }
    default:
      error("expected an expression");
      return nullptr;
    }
  }

  Expr *makeBinary(BinaryOp Op, Expr *L, Expr *R, SourceLoc Loc) {
    Expr *E = P->makeExpr(CExprKind::Binary, Loc);
    E->BOp = Op;
    E->Ops.push_back(L);
    E->Ops.push_back(R);
    return E;
  }
};

} // namespace

std::unique_ptr<Program> cfront::parseProgram(std::string_view Source,
                                              DiagnosticEngine &Diags) {
  ParserImpl Parser(Source, Diags);
  std::unique_ptr<Program> P = Parser.run();
  if (Diags.hasErrors())
    return nullptr;
  return P;
}

std::unique_ptr<Program> cfront::parseExpression(std::string_view Text,
                                                 Expr *&Out,
                                                 DiagnosticEngine &Diags) {
  return ParserImpl(Text, Diags).runExpression(Out);
}
