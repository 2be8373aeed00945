//===- Json.h - Minimal correct JSON emission -------------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small JSON writer shared by the trace emitter, the statistics
/// export, and the benchmark harnesses (which used to hand-roll their
/// JSON and got string escaping subtly wrong). The writer tracks
/// object/array nesting and comma placement so call sites only state
/// structure; escaping handles quotes, backslashes, and control
/// characters (non-ASCII bytes pass through — JSON is UTF-8).
///
/// The tests check what it emits with json::isValid
/// (tests/support/JsonCheck.h).
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_JSON_H
#define SUPPORT_JSON_H

#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace slam {
namespace json {

/// Escapes the *contents* of a JSON string (no surrounding quotes).
inline std::string escape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  return Out;
}

/// Streaming writer appending to a caller-owned string. Structure is
/// expressed with begin/end calls; the writer inserts commas and
/// asserts (in debug builds) that keys and values alternate correctly.
class Writer {
public:
  explicit Writer(std::string &Out) : Out(Out) {}

  void beginObject() {
    prefix();
    Out += '{';
    Stack.push_back(Frame::Object);
    First = true;
  }
  void endObject() {
    assert(!Stack.empty() && Stack.back() == Frame::Object);
    Stack.pop_back();
    Out += '}';
    First = false;
  }
  void beginArray() {
    prefix();
    Out += '[';
    Stack.push_back(Frame::Array);
    First = true;
  }
  void endArray() {
    assert(!Stack.empty() && Stack.back() == Frame::Array);
    Stack.pop_back();
    Out += ']';
    First = false;
  }

  void key(std::string_view K) {
    assert(!Stack.empty() && Stack.back() == Frame::Object &&
           "key outside an object");
    assert(!AfterKey && "two keys in a row");
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    Out += escape(K);
    Out += "\":";
    AfterKey = true;
  }

  void value(std::string_view V) {
    prefix();
    Out += '"';
    Out += escape(V);
    Out += '"';
  }
  void value(const char *V) { value(std::string_view(V)); }
  void value(bool B) {
    prefix();
    Out += B ? "true" : "false";
  }
  void value(uint64_t V) {
    prefix();
    Out += std::to_string(V);
  }
  void value(int64_t V) {
    prefix();
    Out += std::to_string(V);
  }
  void value(int V) { value(static_cast<int64_t>(V)); }
  void value(unsigned V) { value(static_cast<uint64_t>(V)); }
  void value(double V) {
    prefix();
    if (!std::isfinite(V)) { // JSON has no NaN/Inf literal.
      Out += "null";
      return;
    }
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.9g", V);
    Out += Buf;
  }
  void null() {
    prefix();
    Out += "null";
  }

  template <typename T> void kv(std::string_view K, T V) {
    key(K);
    value(V);
  }

  /// True once every begin has been matched by its end.
  bool complete() const { return Stack.empty(); }

private:
  enum class Frame { Object, Array };

  /// Comma/position bookkeeping before any value or container opener.
  void prefix() {
    if (AfterKey) {
      AfterKey = false;
      return; // The key already emitted its separator.
    }
    assert((Stack.empty() || Stack.back() == Frame::Array) &&
           "object member needs a key first");
    if (!Stack.empty() && !First)
      Out += ',';
    First = false;
  }

  std::string &Out;
  std::vector<Frame> Stack;
  bool First = true;
  bool AfterKey = false;
};

} // namespace json
} // namespace slam

#endif // SUPPORT_JSON_H
