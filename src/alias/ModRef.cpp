//===- ModRef.cpp -----------------------------------------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "alias/ModRef.h"

#include "support/Trace.h"

using namespace slam;
using namespace slam::alias;
using namespace slam::cfront;

void ModRef::collectDirect(const FuncDecl *F, const Stmt &S,
                           std::set<int> &Out) const {
  if (S.Kind == CStmtKind::Assign || (S.Kind == CStmtKind::CallStmt && S.Lhs)) {
    for (int C : PT.locationCells(*S.Lhs))
      Out.insert(C);
  }
  for (const Stmt *Sub : {S.Then, S.Else, S.Body, S.Sub})
    if (Sub)
      collectDirect(F, *Sub, Out);
  for (const Stmt *Sub : S.Stmts)
    collectDirect(F, *Sub, Out);
}

ModRef::ModRef(const Program &P, const PointsTo &PT) : PT(PT) {
  TraceSpan Span("alias.modref", "alias");
  // Direct modifications per function; externs may write anything
  // reachable from their pointer parameters.
  for (const FuncDecl *F : P.Functions) {
    std::set<int> Direct;
    if (F->Body) {
      collectDirect(F, *F->Body, Direct);
    } else {
      for (const VarDecl *Param : F->Params) {
        if (!Param->Ty->isPointer())
          continue;
        // Everything reachable from the parameter.
        std::set<int> Frontier = PT.pointsToSet(*Param);
        std::set<int> Seen;
        while (!Frontier.empty()) {
          int C = *Frontier.begin();
          Frontier.erase(Frontier.begin());
          if (!Seen.insert(C).second)
            continue;
          Direct.insert(C);
          for (int T : PT.pts(C))
            Frontier.insert(T);
          // Fields of a record cell: conservatively include all field
          // cells of its record type.
          const Cell &Cl = PT.cell(C);
          if (Cl.Ty && Cl.Ty->isRecord())
            for (const auto &Fld : Cl.Ty->record()->Fields) {
              int FC = PT.fieldCell(Cl.Ty->record(), Fld.Name);
              if (FC >= 0)
                Frontier.insert(FC);
            }
        }
      }
    }
    Mods.emplace(F, std::move(Direct));
  }

  // Add callee effects transitively (the call graph may be cyclic).
  auto CollectCalls = [](auto &&Self, const Stmt &S,
                         std::set<const FuncDecl *> &Out) -> void {
    if (S.Kind == CStmtKind::CallStmt)
      Out.insert(S.CallE->Callee);
    for (const Stmt *Sub : {S.Then, S.Else, S.Body, S.Sub})
      if (Sub)
        Self(Self, *Sub, Out);
    for (const Stmt *Sub : S.Stmts)
      Self(Self, *Sub, Out);
  };

  for (const FuncDecl *F : P.Functions) {
    std::set<const FuncDecl *> Out;
    if (F->Body)
      CollectCalls(CollectCalls, *F->Body, Out);
    Callees.emplace(F, std::move(Out));
  }

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const FuncDecl *F : P.Functions) {
      std::set<int> &M = Mods[F];
      size_t Before = M.size();
      for (const FuncDecl *Callee : Callees[F])
        M.insert(Mods[Callee].begin(), Mods[Callee].end());
      Changed |= M.size() != Before;
    }
  }

  // Keep variable cells even when they name some function's locals: a
  // caller's own local can genuinely be written by a callee through an
  // escaped address, and distinct declarations have distinct cells, so
  // callee-local cells never collide with caller predicates. Only the
  // analysis-internal temporaries are dropped.
  for (const FuncDecl *F : P.Functions) {
    std::set<int> Filtered;
    for (int C : Mods[F])
      if (PT.cell(C).K != Cell::Kind::Temp)
        Filtered.insert(C);
    Mods[F] = std::move(Filtered);
  }
}

const std::set<int> &ModRef::mod(const FuncDecl *F) const {
  auto It = Mods.find(F);
  return It == Mods.end() ? Empty : It->second;
}
