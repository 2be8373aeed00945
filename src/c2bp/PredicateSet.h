//===- PredicateSet.h - Predicate input files -------------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The predicate input file of Section 2.1: each predicate is a pure C
/// boolean expression annotated as global or local to one procedure.
/// Concrete syntax:
///
///   # comment
///   global:
///     lock == 1
///   partition:
///     curr == NULL, prev == NULL,
///     curr->val > v, prev->val > v
///
/// A scope header is `<name>:` (or `global:`) on its own; predicates are
/// separated by commas or newlines.
///
//===----------------------------------------------------------------------===//

#ifndef C2BP_PREDICATESET_H
#define C2BP_PREDICATESET_H

#include "logic/Expr.h"
#include "support/Diagnostics.h"

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace slam {
namespace c2bp {

/// The scoped predicate collection E of the paper.
struct PredicateSet {
  std::vector<logic::ExprRef> Globals;
  std::map<std::string, std::vector<logic::ExprRef>> PerProc;

  const std::vector<logic::ExprRef> &forProc(const std::string &Name) const {
    static const std::vector<logic::ExprRef> Empty;
    auto It = PerProc.find(Name);
    return It == PerProc.end() ? Empty : It->second;
  }

  /// Adds a predicate if not already present in its scope. Returns
  /// true if the set changed (used by the CEGAR refinement loop).
  bool addGlobal(logic::ExprRef E);
  bool addLocal(const std::string &Proc, logic::ExprRef E);

  size_t totalCount() const {
    size_t N = Globals.size();
    for (const auto &[_, V] : PerProc)
      N += V.size();
    return N;
  }
};

/// Where a predicate file put its scopes and predicates, for
/// diagnostics; kept apart from the PredicateSet, which the CEGAR loop
/// copies every round.
struct PredicateLines {
  /// The line of each scope's first header, "global" included.
  std::map<std::string, unsigned> Scopes;
  /// The line of each predicate, parallel to PredicateSet::Globals and
  /// PredicateSet::PerProc.
  std::vector<unsigned> Globals;
  std::map<std::string, std::vector<unsigned>> PerProc;
};

/// Parses a predicate file; nullopt on error. With \p Lines, also
/// records where each scope and predicate is.
std::optional<PredicateSet> parsePredicateFile(logic::LogicContext &Ctx,
                                               std::string_view Text,
                                               DiagnosticEngine &Diags,
                                               PredicateLines *Lines = nullptr);

} // namespace c2bp
} // namespace slam

#endif // C2BP_PREDICATESET_H
