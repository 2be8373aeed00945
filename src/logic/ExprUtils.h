//===- ExprUtils.h - Queries and substitution over expressions --*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural queries the abstraction algorithm needs: the variables
/// referenced by an expression (vars(e)), the variables dereferenced by it
/// (drfs(e)), the set of locations mentioned (Section 4.2), and capture-free
/// structural substitution phi[e/x].
///
//===----------------------------------------------------------------------===//

#ifndef LOGIC_EXPRUTILS_H
#define LOGIC_EXPRUTILS_H

#include "logic/Expr.h"

#include <set>
#include <string>
#include <vector>

namespace slam {
namespace logic {

/// Names of all variables referenced anywhere in \p E (the paper's
/// vars(e)).
std::set<std::string> collectVars(ExprRef E);

/// Names of variables that are dereferenced in \p E — i.e. appear as the
/// pointer operand of a Deref or as the base of an Index (the paper's
/// drfs(e)).
std::set<std::string> collectDerefedVars(ExprRef E);

/// All location subterms of \p E (variables, derefs, fields, indices),
/// in first-occurrence order, each listed once. Includes nested
/// locations: `p->val > v` yields {p->val, p, v}.
std::vector<ExprRef> collectLocations(ExprRef E);

/// True if location \p Loc occurs as a subterm of \p E.
bool mentions(ExprRef E, ExprRef Loc);

/// True if \p E dereferences the NULL constant anywhere (*NULL,
/// NULL->f, NULL[i]). Such terms are undefined in C; the abstraction
/// invalidates predicates whose weakest precondition contains one
/// (Section 2.1's "invalidated by unknown()").
bool containsNullDeref(ExprRef E);

/// Structural parallel substitution: every occurrence of a subterm
/// `From` of a pair in \p E is replaced by its `To` (all pairs replaced
/// simultaneously, outermost match wins), rebuilding through the smart
/// constructors (so folding applies). All terms are pure, so this is
/// semantics-preserving capture-free substitution. Used to translate
/// predicates between caller and callee scopes (Section 4.5).
ExprRef substituteAll(LogicContext &Ctx, ExprRef E,
                      const std::vector<std::pair<ExprRef, ExprRef>> &Map);

} // namespace logic
} // namespace slam

#endif // LOGIC_EXPRUTILS_H
