//===- Lexer.h - SIL-C tokenizer --------------------------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#ifndef CFRONT_LEXER_H
#define CFRONT_LEXER_H

#include "support/SourceLoc.h"

#include <string>
#include <string_view>
#include <vector>

namespace slam {
namespace cfront {

enum class TokKind {
  End,
  Ident,
  IntLit,
  // Keywords.
  KwInt,
  KwVoid,
  KwStruct,
  KwTypedef,
  KwIf,
  KwElse,
  KwWhile,
  KwGoto,
  KwReturn,
  KwBreak,
  KwContinue,
  KwAssert,
  KwNull,
  // Punctuation.
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Semi,
  Comma,
  Colon,
  Assign, // =
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  Amp,
  AmpAmp,
  PipePipe,
  Bang,
  Arrow,
  Dot,
  EqEq,
  BangEq,
  Lt,
  Le,
  Gt,
  Ge,
  Error,
};

struct Token {
  TokKind Kind = TokKind::End;
  std::string Text;
  int64_t IntValue = 0;
  SourceLoc Loc;
};

/// Tokenizes a whole buffer; comments (// and /* */) are skipped. A
/// TokKind::Error token carries the offending character or literal in Text.
std::vector<Token> tokenize(std::string_view Source);

/// Counts the newline-terminated lines of \p Source (the "lines" column
/// of the paper's tables).
unsigned countLines(std::string_view Source);

} // namespace cfront
} // namespace slam

#endif // CFRONT_LEXER_H
