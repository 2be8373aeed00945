//===- ModRef.h - Modification side-effect summaries ------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-procedure summaries of the abstract cells a call may modify — the
/// "standard modification side-effect analysis [24]" the paper relies on
/// when abstracting procedure calls (Section 4.5.3): after a call, the
/// caller must conservatively update every local predicate that mentions
/// a location the callee may have written.
///
//===----------------------------------------------------------------------===//

#ifndef ALIAS_MODREF_H
#define ALIAS_MODREF_H

#include "alias/PointsTo.h"

namespace slam {
namespace alias {

/// Transitive may-modify cell sets, one per function.
class ModRef {
public:
  ModRef(const cfront::Program &P, const PointsTo &PT);

  /// Cells that a call to \p F may modify (excluding F's own locals,
  /// which are invisible to callers, but including globals, fields,
  /// array elements and anonymous heap cells).
  const std::set<int> &mod(const cfront::FuncDecl *F) const;

  /// The procedures \p F calls directly, externs included.
  const std::set<const cfront::FuncDecl *> &
  callees(const cfront::FuncDecl *F) const {
    return Callees.at(F);
  }

private:
  void collectDirect(const cfront::FuncDecl *F, const cfront::Stmt &S,
                     std::set<int> &Out) const;

  const PointsTo &PT;
  std::map<const cfront::FuncDecl *, std::set<int>> Mods;
  std::map<const cfront::FuncDecl *, std::set<const cfront::FuncDecl *>>
      Callees;
  std::set<int> Empty;
};

} // namespace alias
} // namespace slam

#endif // ALIAS_MODREF_H
