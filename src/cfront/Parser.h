//===- Parser.h - SIL-C parser ----------------------------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the analyzed C subset: struct
/// definitions, typedefs, globals, and functions with the statement forms
/// of Figure 1 / Figure 3 (assignments, calls, if/else, while, goto and
/// labels, return, break/continue, assert). Produces an unresolved AST;
/// Sema performs name resolution and type checking. The expression
/// grammar also reads predicates (pure C boolean expressions, Section 4).
///
//===----------------------------------------------------------------------===//

#ifndef CFRONT_PARSER_H
#define CFRONT_PARSER_H

#include "cfront/AST.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string_view>

namespace slam {
namespace cfront {

/// Parses \p Source into a Program. Returns nullptr if any syntax error
/// was reported to \p Diags.
std::unique_ptr<Program> parseProgram(std::string_view Source,
                                      DiagnosticEngine &Diags);

/// Parses \p Text as one expression, with no trailing input, into \p Out.
/// Returns the Program whose arena owns the (unresolved) AST, or nullptr
/// after reporting a syntax error to \p Diags.
std::unique_ptr<Program> parseExpression(std::string_view Text, Expr *&Out,
                                         DiagnosticEngine &Diags);

} // namespace cfront
} // namespace slam

#endif // CFRONT_PARSER_H
