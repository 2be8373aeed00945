//===- Parser.cpp - Recursive-descent predicate parser --------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "logic/Parser.h"

#include <cctype>
#include <charconv>

using namespace slam;
using namespace slam::logic;

namespace {

enum class Tok {
  End,
  Int,
  Ident,
  Null,
  True,
  False,
  LParen,
  RParen,
  LBracket,
  RBracket,
  Arrow,
  Dot,
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  Bang,
  Amp,
  AmpAmp,
  PipePipe,
  EqEq,
  BangEq,
  Lt,
  Le,
  Gt,
  Ge,
  Error,
};

/// Single-expression lexer + precedence-climbing parser.
class PredParser {
public:
  PredParser(LogicContext &Ctx, std::string_view Text,
             DiagnosticEngine &Diags)
      : Ctx(Ctx), Text(Text), Diags(Diags) {
    advance();
  }

  ExprRef run() {
    ExprRef E = parseOr();
    if (!E)
      return nullptr;
    if (Cur != Tok::End) {
      error("unexpected trailing input in predicate");
      return nullptr;
    }
    return E;
  }

private:
  LogicContext &Ctx;
  std::string_view Text;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  Tok Cur = Tok::End;
  std::string CurText;
  int64_t CurInt = 0;

  void error(const std::string &Message) {
    bool BadInt = Cur == Tok::Error &&
                  std::isdigit(static_cast<unsigned char>(CurText[0]));
    Diags.error(SourceLoc(1, static_cast<unsigned>(Pos + 1)),
                BadInt ? "integer literal out of range" : Message);
  }

  void advance() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    if (Pos >= Text.size()) {
      Cur = Tok::End;
      return;
    }
    char C = Text[Pos];
    auto Two = [&](char Next) {
      return Pos + 1 < Text.size() && Text[Pos + 1] == Next;
    };
    if (std::isdigit(static_cast<unsigned char>(C))) {
      size_t Start = Pos;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
      Cur = Tok::Int;
      if (std::from_chars(Text.data() + Start, Text.data() + Pos, CurInt).ec !=
          std::errc()) {
        Cur = Tok::Error; // Out of the int64 range; see error().
        CurText = std::string(Text.substr(Start, Pos - Start));
      }
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = Pos;
      while (Pos < Text.size() &&
             (std::isalnum(static_cast<unsigned char>(Text[Pos])) ||
              Text[Pos] == '_'))
        ++Pos;
      CurText = std::string(Text.substr(Start, Pos - Start));
      if (CurText == "NULL")
        Cur = Tok::Null;
      else if (CurText == "true")
        Cur = Tok::True;
      else if (CurText == "false")
        Cur = Tok::False;
      else
        Cur = Tok::Ident;
      return;
    }
    switch (C) {
    case '(':
      Cur = Tok::LParen;
      break;
    case ')':
      Cur = Tok::RParen;
      break;
    case '[':
      Cur = Tok::LBracket;
      break;
    case ']':
      Cur = Tok::RBracket;
      break;
    case '+':
      Cur = Tok::Plus;
      break;
    case '-':
      if (Two('>')) {
        Cur = Tok::Arrow;
        ++Pos;
      } else {
        Cur = Tok::Minus;
      }
      break;
    case '.':
      Cur = Tok::Dot;
      break;
    case '*':
      Cur = Tok::Star;
      break;
    case '/':
      Cur = Tok::Slash;
      break;
    case '%':
      Cur = Tok::Percent;
      break;
    case '!':
      if (Two('=')) {
        Cur = Tok::BangEq;
        ++Pos;
      } else {
        Cur = Tok::Bang;
      }
      break;
    case '&':
      if (Two('&')) {
        Cur = Tok::AmpAmp;
        ++Pos;
      } else {
        Cur = Tok::Amp;
      }
      break;
    case '|':
      if (Two('|')) {
        Cur = Tok::PipePipe;
        ++Pos;
      } else {
        Cur = Tok::Error;
      }
      break;
    case '=':
      if (Two('=')) {
        Cur = Tok::EqEq;
        ++Pos;
      } else {
        Cur = Tok::Error;
      }
      break;
    case '<':
      if (Two('=')) {
        Cur = Tok::Le;
        ++Pos;
      } else {
        Cur = Tok::Lt;
      }
      break;
    case '>':
      if (Two('=')) {
        Cur = Tok::Ge;
        ++Pos;
      } else {
        Cur = Tok::Gt;
      }
      break;
    default:
      Cur = Tok::Error;
      break;
    }
    ++Pos;
  }

  bool accept(Tok T) {
    if (Cur != T)
      return false;
    advance();
    return true;
  }

  ExprRef parseOr() {
    ExprRef L = parseAnd();
    if (!L)
      return nullptr;
    while (accept(Tok::PipePipe)) {
      ExprRef R = parseAnd();
      if (!R)
        return nullptr;
      L = Ctx.orE(L, R);
    }
    return L;
  }

  ExprRef parseAnd() {
    ExprRef L = parseCmp();
    if (!L)
      return nullptr;
    while (accept(Tok::AmpAmp)) {
      ExprRef R = parseCmp();
      if (!R)
        return nullptr;
      L = Ctx.andE(L, R);
    }
    return L;
  }

  ExprRef parseCmp() {
    ExprRef L = parseAdd();
    if (!L)
      return nullptr;
    ExprKind Kind;
    switch (Cur) {
    case Tok::EqEq:
      Kind = ExprKind::Eq;
      break;
    case Tok::BangEq:
      Kind = ExprKind::Ne;
      break;
    case Tok::Lt:
      Kind = ExprKind::Lt;
      break;
    case Tok::Le:
      Kind = ExprKind::Le;
      break;
    case Tok::Gt:
      Kind = ExprKind::Gt;
      break;
    case Tok::Ge:
      Kind = ExprKind::Ge;
      break;
    default:
      return L;
    }
    advance();
    ExprRef R = parseAdd();
    if (!R)
      return nullptr;
    return Ctx.cmp(Kind, L, R);
  }

  ExprRef parseAdd() {
    ExprRef L = parseMul();
    if (!L)
      return nullptr;
    while (Cur == Tok::Plus || Cur == Tok::Minus) {
      bool IsAdd = Cur == Tok::Plus;
      advance();
      ExprRef R = parseMul();
      if (!R)
        return nullptr;
      L = IsAdd ? Ctx.add(L, R) : Ctx.sub(L, R);
    }
    return L;
  }

  ExprRef parseMul() {
    ExprRef L = parseUnary();
    if (!L)
      return nullptr;
    while (Cur == Tok::Star || Cur == Tok::Slash || Cur == Tok::Percent) {
      Tok Op = Cur;
      advance();
      ExprRef R = parseUnary();
      if (!R)
        return nullptr;
      if (Op == Tok::Star)
        L = Ctx.mul(L, R);
      else if (Op == Tok::Slash)
        L = Ctx.div(L, R);
      else
        L = Ctx.mod(L, R);
    }
    return L;
  }

  ExprRef parseUnary() {
    if (accept(Tok::Bang)) {
      ExprRef E = parseUnary();
      if (!E)
        return nullptr;
      if (!E->isFormula()) {
        // C-style !e over an integer term means e == 0.
        return Ctx.eq(E, Ctx.intLit(0));
      }
      return Ctx.notE(E);
    }
    if (accept(Tok::Minus)) {
      ExprRef E = parseUnary();
      return E ? Ctx.neg(E) : nullptr;
    }
    if (accept(Tok::Star)) {
      ExprRef E = parseUnary();
      return E ? Ctx.deref(E) : nullptr;
    }
    if (accept(Tok::Amp)) {
      ExprRef E = parseUnary();
      if (!E)
        return nullptr;
      if (!E->isLocation()) {
        error("operand of & must be a location");
        return nullptr;
      }
      return Ctx.addrOf(E);
    }
    return parsePostfix();
  }

  ExprRef parsePostfix() {
    ExprRef E = parsePrimary();
    if (!E)
      return nullptr;
    for (;;) {
      if (accept(Tok::Arrow)) {
        if (Cur != Tok::Ident) {
          error("expected field name after '->'");
          return nullptr;
        }
        E = Ctx.field(Ctx.deref(E), CurText);
        advance();
        continue;
      }
      if (accept(Tok::Dot)) {
        if (Cur != Tok::Ident) {
          error("expected field name after '.'");
          return nullptr;
        }
        E = Ctx.field(E, CurText);
        advance();
        continue;
      }
      if (accept(Tok::LBracket)) {
        ExprRef Idx = parseOr();
        if (!Idx)
          return nullptr;
        if (!accept(Tok::RBracket)) {
          error("expected ']'");
          return nullptr;
        }
        E = Ctx.index(E, Idx);
        continue;
      }
      return E;
    }
  }

  ExprRef parsePrimary() {
    switch (Cur) {
    case Tok::Int: {
      int64_t V = CurInt;
      advance();
      return Ctx.intLit(V);
    }
    case Tok::Null:
      advance();
      return Ctx.nullLit();
    case Tok::True:
      advance();
      return Ctx.trueE();
    case Tok::False:
      advance();
      return Ctx.falseE();
    case Tok::Ident: {
      std::string Name = CurText;
      advance();
      return Ctx.var(Name);
    }
    case Tok::LParen: {
      advance();
      ExprRef E = parseOr();
      if (!E)
        return nullptr;
      if (!accept(Tok::RParen)) {
        error("expected ')'");
        return nullptr;
      }
      return E;
    }
    default:
      error("expected an expression");
      return nullptr;
    }
  }
};

} // namespace

ExprRef logic::parseExpr(LogicContext &Ctx, std::string_view Text,
                         DiagnosticEngine &Diags) {
  return PredParser(Ctx, Text, Diags).run();
}
