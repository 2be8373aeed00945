//===- CExprToLogic.h - Bridge C expressions into the logic -----*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Converts (normalized, side-effect-free) C expressions into the
/// predicate logic so the WP engine and prover can reason about them,
/// and parses predicates through the same C expression grammar.
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

/// Translates \p E. The expression must be call-free (guaranteed after
/// normalization for every context C2bp visits).
logic::ExprRef toLogic(logic::LogicContext &Ctx, const cfront::Expr &E);

/// Translates a C condition, producing a formula (scalar conditions have
/// already been turned into comparisons by the normalizer).
logic::ExprRef conditionToLogic(logic::LogicContext &Ctx,
                                const cfront::Expr &E);

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
