//===- Signatures.h - Procedure signatures (Section 4.5.2) ------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The modular abstraction interface of a procedure: its formal
/// parameter predicates E_f (predicates of E_R free of locals) and its
/// return predicates E_r (predicates about the return variable, plus
/// formal predicates that reference globals or dereference formals).
/// Each signature is computable from the procedure and E_R alone, which
/// is what lets C2bp abstract procedures one at a time.
///
//===----------------------------------------------------------------------===//

#ifndef C2BP_SIGNATURES_H
#define C2BP_SIGNATURES_H

#include "alias/ModRef.h"
#include "cfront/AST.h"
#include "logic/Expr.h"

#include <vector>

namespace slam {
namespace c2bp {

/// Signature (F_R, r, E_f, E_r) of one procedure.
struct ProcSignature {
  const cfront::FuncDecl *Func = nullptr;
  /// The single return variable r (Section 4.5.1's normal form), or
  /// nullptr for void procedures.
  const cfront::VarDecl *RetVar = nullptr;
  std::vector<logic::ExprRef> Formals; // E_f.
  std::vector<logic::ExprRef> Returns; // E_r.
};

/// Finds the return variable of a normalized procedure (the variable of
/// its single trailing `return v;`), or nullptr.
const cfront::VarDecl *findReturnVar(const cfront::FuncDecl &F);

/// Computes the signature. \p ModSet is the may-modify summary used for
/// footnote 4: predicates mentioning a formal that the procedure may
/// modify are excluded from E_r (the formal no longer mirrors its
/// actual at return).
ProcSignature computeSignature(const cfront::Program &P,
                               const cfront::FuncDecl &F,
                               const std::vector<logic::ExprRef> &ER,
                               const alias::PointsTo &PT,
                               const alias::ModRef &MR);

} // namespace c2bp
} // namespace slam

#endif // C2BP_SIGNATURES_H
