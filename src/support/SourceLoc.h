//===- SourceLoc.h - Source positions for diagnostics ----------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight source locations shared by the C-subset frontend (which
/// also parses predicates) and the boolean-program parser.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_SOURCELOC_H
#define SUPPORT_SOURCELOC_H

#include <string>

namespace slam {

/// A (line, column) position within one input buffer. Line and column are
/// 1-based; a default-constructed location is "unknown" (line 0).
struct SourceLoc {
  unsigned Line = 0;
  unsigned Col = 0;

  SourceLoc() = default;
  SourceLoc(unsigned Line, unsigned Col) : Line(Line), Col(Col) {}

  bool isValid() const { return Line != 0; }

  bool operator==(const SourceLoc &O) const {
    return Line == O.Line && Col == O.Col;
  }

  /// Renders the location as "line:col", or "<unknown>" if invalid.
  std::string str() const {
    if (!isValid())
      return "<unknown>";
    return std::to_string(Line) + ":" + std::to_string(Col);
  }
};

} // namespace slam

#endif // SUPPORT_SOURCELOC_H
