//===- Lexer.cpp ----------------------------------------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "cfront/Lexer.h"

#include <cctype>
#include <charconv>
#include <map>

using namespace slam;
using namespace slam::cfront;

unsigned cfront::countLines(std::string_view Source) {
  unsigned Lines = 0;
  bool NonEmpty = false;
  for (char C : Source) {
    NonEmpty = true;
    if (C == '\n')
      ++Lines;
  }
  if (NonEmpty && Source.back() != '\n')
    ++Lines;
  return Lines;
}

std::vector<Token> cfront::tokenize(std::string_view Source) {
  static const std::map<std::string, TokKind> Keywords = {
      {"int", TokKind::KwInt},         {"void", TokKind::KwVoid},
      {"struct", TokKind::KwStruct},   {"typedef", TokKind::KwTypedef},
      {"if", TokKind::KwIf},           {"else", TokKind::KwElse},
      {"while", TokKind::KwWhile},     {"goto", TokKind::KwGoto},
      {"return", TokKind::KwReturn},   {"break", TokKind::KwBreak},
      {"continue", TokKind::KwContinue}, {"assert", TokKind::KwAssert},
      {"NULL", TokKind::KwNull},
  };

  std::vector<Token> Tokens;
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
  auto Push = [&](TokKind Kind, std::string Text, SourceLoc Loc) {
    Token T;
    T.Kind = Kind;
    T.Text = std::move(Text);
    T.Loc = Loc;
    Tokens.push_back(std::move(T));
  };

  while (Pos < Source.size()) {
    char C = Peek();
    if (std::isspace(static_cast<unsigned char>(C))) {
      Advance();
      continue;
    }
    // Comments.
    if (C == '/' && Peek(1) == '/') {
      while (Pos < Source.size() && Peek() != '\n')
        Advance();
      continue;
    }
    if (C == '/' && Peek(1) == '*') {
      Advance(2);
      while (Pos < Source.size() && !(Peek() == '*' && Peek(1) == '/'))
        Advance();
      Advance(2);
      continue;
    }

    SourceLoc Loc(Line, Col);
    if (std::isdigit(static_cast<unsigned char>(C))) {
      std::string Text;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) {
        Text += Peek();
        Advance();
      }
      Token T;
      T.Kind = TokKind::IntLit;
      if (std::from_chars(Text.data(), Text.data() + Text.size(), T.IntValue)
              .ec != std::errc())
        T.Kind = TokKind::Error; // The literal is out of the int64 range.
      T.Text = std::move(Text);
      T.Loc = Loc;
      Tokens.push_back(std::move(T));
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
      Push(It == Keywords.end() ? TokKind::Ident : It->second,
           std::move(Text), Loc);
      continue;
    }

    auto Two = [&](char Next) { return Peek(1) == Next; };
    TokKind Kind = TokKind::Error;
    size_t Len = 1;
    switch (C) {
    case '(':
      Kind = TokKind::LParen;
      break;
    case ')':
      Kind = TokKind::RParen;
      break;
    case '{':
      Kind = TokKind::LBrace;
      break;
    case '}':
      Kind = TokKind::RBrace;
      break;
    case '[':
      Kind = TokKind::LBracket;
      break;
    case ']':
      Kind = TokKind::RBracket;
      break;
    case ';':
      Kind = TokKind::Semi;
      break;
    case ',':
      Kind = TokKind::Comma;
      break;
    case ':':
      Kind = TokKind::Colon;
      break;
    case '+':
      Kind = TokKind::Plus;
      break;
    case '.':
      Kind = TokKind::Dot;
      break;
    case '%':
      Kind = TokKind::Percent;
      break;
    case '/':
      Kind = TokKind::Slash;
      break;
    case '*':
      Kind = TokKind::Star;
      break;
    case '-':
      if (Two('>')) {
        Kind = TokKind::Arrow;
        Len = 2;
      } else {
        Kind = TokKind::Minus;
      }
      break;
    case '=':
      if (Two('=')) {
        Kind = TokKind::EqEq;
        Len = 2;
      } else {
        Kind = TokKind::Assign;
      }
      break;
    case '!':
      if (Two('=')) {
        Kind = TokKind::BangEq;
        Len = 2;
      } else {
        Kind = TokKind::Bang;
      }
      break;
    case '&':
      if (Two('&')) {
        Kind = TokKind::AmpAmp;
        Len = 2;
      } else {
        Kind = TokKind::Amp;
      }
      break;
    case '|':
      if (Two('|')) {
        Kind = TokKind::PipePipe;
        Len = 2;
      }
      break;
    case '<':
      if (Two('=')) {
        Kind = TokKind::Le;
        Len = 2;
      } else {
        Kind = TokKind::Lt;
      }
      break;
    case '>':
      if (Two('=')) {
        Kind = TokKind::Ge;
        Len = 2;
      } else {
        Kind = TokKind::Gt;
      }
      break;
    default:
      break;
    }
    Push(Kind, std::string(Source.substr(Pos, Len)), Loc);
    Advance(Len);
  }

  Token End;
  End.Kind = TokKind::End;
  End.Loc = SourceLoc(Line, Col);
  Tokens.push_back(std::move(End));
  return Tokens;
}
