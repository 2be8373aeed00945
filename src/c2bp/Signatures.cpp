//===- Signatures.cpp --------------------------------------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "c2bp/Signatures.h"

#include "logic/ExprUtils.h"

using namespace slam;
using namespace slam::c2bp;
using namespace slam::cfront;
using logic::ExprRef;

const VarDecl *c2bp::findReturnVar(const FuncDecl &F) {
  if (F.ReturnTy->isVoid() || !F.Body)
    return nullptr;
  // Normalization guarantees a single `return v;` as the last
  // statement (possibly under the synthetic __exit label).
  const Stmt *Last =
      F.Body->Stmts.empty() ? nullptr : F.Body->Stmts.back();
  while (Last && Last->Kind == CStmtKind::Label)
    Last = Last->Sub;
  if (Last && Last->Kind == CStmtKind::Return && Last->Rhs &&
      Last->Rhs->Kind == CExprKind::VarRef)
    return Last->Rhs->Var;
  return nullptr;
}

ProcSignature c2bp::computeSignature(const Program &P, const FuncDecl &F,
                                     const std::vector<ExprRef> &ER,
                                     const alias::PointsTo &PT,
                                     const alias::ModRef &MR) {
  ProcSignature Sig;
  Sig.Func = &F;
  Sig.RetVar = findReturnVar(F);

  std::set<std::string> LocalNames, ParamNames;
  for (const VarDecl *V : F.Locals)
    LocalNames.insert(V->Name);
  for (const VarDecl *V : F.Params)
    ParamNames.insert(V->Name);
  std::set<std::string> GlobalNames;
  for (const VarDecl *V : P.Globals)
    GlobalNames.insert(V->Name);

  const std::string RetName = Sig.RetVar ? Sig.RetVar->Name : "";

  auto MentionsModifiedFormal = [&](ExprRef E) {
    // Footnote 4: formals that the procedure may modify no longer equal
    // their actuals at return; predicates over them leave E_r.
    const std::set<int> &Mod = MR.mod(&F);
    for (const std::string &Name : logic::collectVars(E)) {
      if (Name == RetName || !ParamNames.count(Name))
        continue;
      const VarDecl *V = F.findLocalOrParam(Name);
      if (V && Mod.count(PT.varCell(V)))
        return true;
    }
    return false;
  };

  for (ExprRef E : ER) {
    std::set<std::string> Vars = logic::collectVars(E);
    bool TouchesLocal = false;
    for (const std::string &Name : Vars)
      if (LocalNames.count(Name))
        TouchesLocal = true;

    bool IsFormalPred = !TouchesLocal;
    if (IsFormalPred)
      Sig.Formals.push_back(E);

    // Clause 1 of E_r: mentions r and no other local.
    bool AboutReturn = false;
    if (!RetName.empty() && Vars.count(RetName)) {
      AboutReturn = true;
      for (const std::string &Name : Vars)
        if (Name != RetName && LocalNames.count(Name))
          AboutReturn = false;
    }
    // Clause 2 of E_r: a formal predicate that reads a global or
    // dereferences a formal (so it reports side-effects to the caller).
    bool ReportsEffects = false;
    if (IsFormalPred) {
      for (const std::string &Name : Vars)
        if (GlobalNames.count(Name) && !ParamNames.count(Name))
          ReportsEffects = true;
      for (const std::string &Name : logic::collectDerefedVars(E))
        if (ParamNames.count(Name))
          ReportsEffects = true;
    }

    if ((AboutReturn || ReportsEffects) && !MentionsModifiedFormal(E))
      Sig.Returns.push_back(E);
  }
  return Sig;
}
