//===- CExprToLogic.h - Bridge C expressions into the logic -----*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Converts (normalized, side-effect-free) C expressions into the
/// predicate logic so the WP engine, the prover and Newton's path replay
/// can reason about them, and parses predicates through the same C
/// expression grammar.
///
//===----------------------------------------------------------------------===//

#ifndef C2BP_CEXPRTOLOGIC_H
#define C2BP_CEXPRTOLOGIC_H

#include "cfront/AST.h"
#include "logic/Expr.h"
#include "support/Diagnostics.h"

#include <string_view>

namespace slam {
namespace c2bp {

/// Reads the locations a translation names. A translated variable,
/// dereference, field or array element is a location, and its value is
/// what the reader reads there. The base class reads every location as
/// itself, which gives the program form: the formula over program
/// variables that predicates are written in. Newton's symbolic executor
/// is another reader, one that reads each location from its stores.
class LocationReader {
public:
  virtual ~LocationReader() = default;

  /// The location variable reference \p Ref names: by default its name.
  virtual logic::ExprRef varLocation(logic::LogicContext &Ctx,
                                     const cfront::Expr &Ref) {
    return Ctx.var(Ref.Name);
  }

  /// The value held at \p Loc: by default \p Loc itself.
  virtual logic::ExprRef read(logic::ExprRef Loc) { return Loc; }
};

/// The reader of the program form.
LocationReader &programForm();

/// Translates the value of \p E. The expression must be call-free
/// (guaranteed after normalization for every context C2bp visits).
/// Operands are translated left to right.
logic::ExprRef toLogic(logic::LogicContext &Ctx, const cfront::Expr &E,
                       LocationReader &Reader = programForm());

/// Translates the location the lvalue \p E names (`x`, `*p`, `p->f`,
/// `a[i]`) without reading it.
logic::ExprRef locationToLogic(logic::LogicContext &Ctx,
                               const cfront::Expr &E,
                               LocationReader &Reader = programForm());

/// Translates a C condition into a formula. Only the boolean operators
/// (and a predicate's `true` and `false`) are formulas; any other
/// expression e stands for `e != 0`, whatever value a reader gives it.
logic::ExprRef conditionToLogic(logic::LogicContext &Ctx,
                                const cfront::Expr &E,
                                LocationReader &Reader = programForm());

/// Parses one predicate: a pure C boolean expression with no function
/// calls (Section 4), such as `curr->val > v` in Figure 1. `true` and
/// `false` are its boolean literals. Returns nullptr after reporting to
/// \p Diags when the text is malformed, has trailing input, calls a
/// function or takes the address of a non-location.
logic::ExprRef parseExpr(logic::LogicContext &Ctx, std::string_view Text,
                         DiagnosticEngine &Diags);

} // namespace c2bp
} // namespace slam

#endif // C2BP_CEXPRTOLOGIC_H
