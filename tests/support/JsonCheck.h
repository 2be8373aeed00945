//===- JsonCheck.h - JSON syntax checker for tests --------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// json::isValid, for tests that assert that emitted JSON (support/Json.h)
/// actually parses, without shelling out to an external validator.
///
//===----------------------------------------------------------------------===//

#ifndef TESTS_SUPPORT_JSONCHECK_H
#define TESTS_SUPPORT_JSONCHECK_H

#include <cctype>
#include <cstring>
#include <string_view>

namespace slam {
namespace json {

namespace detail {

/// Recursive-descent syntax check. Depth-capped: our emitted documents
/// are a handful of levels deep, and the cap keeps adversarial inputs
/// from overflowing the stack.
class Checker {
public:
  explicit Checker(std::string_view S) : S(S) {}

  bool run() {
    skipWs();
    if (!parseValue(0))
      return false;
    skipWs();
    return Pos == S.size();
  }

private:
  static constexpr int MaxDepth = 256;

  bool parseValue(int Depth) {
    if (Depth > MaxDepth || Pos >= S.size())
      return false;
    switch (S[Pos]) {
    case '{':
      return parseObject(Depth);
    case '[':
      return parseArray(Depth);
    case '"':
      return parseString();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return parseNumber();
    }
  }

  bool parseObject(int Depth) {
    ++Pos; // '{'
    skipWs();
    if (peek() == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (!parseString())
        return false;
      skipWs();
      if (peek() != ':')
        return false;
      ++Pos;
      skipWs();
      if (!parseValue(Depth + 1))
        return false;
      skipWs();
      char C = peek();
      if (C == ',') {
        ++Pos;
        continue;
      }
      if (C == '}') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool parseArray(int Depth) {
    ++Pos; // '['
    skipWs();
    if (peek() == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (!parseValue(Depth + 1))
        return false;
      skipWs();
      char C = peek();
      if (C == ',') {
        ++Pos;
        continue;
      }
      if (C == ']') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool parseString() {
    if (peek() != '"')
      return false;
    ++Pos;
    while (Pos < S.size()) {
      unsigned char C = static_cast<unsigned char>(S[Pos]);
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C < 0x20)
        return false; // Unescaped control character.
      if (C == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return false;
        char E = S[Pos];
        if (E == 'u') {
          for (int I = 0; I != 4; ++I) {
            ++Pos;
            if (Pos >= S.size() || !std::isxdigit(
                                       static_cast<unsigned char>(S[Pos])))
              return false;
          }
        } else if (!std::strchr("\"\\/bfnrt", E)) {
          return false;
        }
      }
      ++Pos;
    }
    return false;
  }

  bool parseNumber() {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    if (!std::isdigit(static_cast<unsigned char>(peek())))
      return false;
    if (S[Pos] == '0')
      ++Pos;
    else
      while (std::isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    if (peek() == '.') {
      ++Pos;
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        return false;
      while (std::isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++Pos;
      if (peek() == '+' || peek() == '-')
        ++Pos;
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        return false;
      while (std::isdigit(static_cast<unsigned char>(peek())))
        ++Pos;
    }
    return Pos > Start;
  }

  bool literal(const char *L) {
    size_t N = std::strlen(L);
    if (S.substr(Pos, N) != L)
      return false;
    Pos += N;
    return true;
  }

  void skipWs() {
    while (Pos < S.size() &&
           (S[Pos] == ' ' || S[Pos] == '\t' || S[Pos] == '\n' ||
            S[Pos] == '\r'))
      ++Pos;
  }

  char peek() const { return Pos < S.size() ? S[Pos] : '\0'; }

  std::string_view S;
  size_t Pos = 0;
};

} // namespace detail

/// Is \p S one syntactically valid JSON document?
inline bool isValid(std::string_view S) { return detail::Checker(S).run(); }

} // namespace json
} // namespace slam

#endif // TESTS_SUPPORT_JSONCHECK_H
