//===- Sema.cpp - Name resolution and type checking ------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "cfront/Sema.h"

#include <set>

using namespace slam;
using namespace slam::cfront;

namespace {

class SemaImpl {
public:
  SemaImpl(Program &P, DiagnosticEngine &Diags) : P(P), Diags(Diags) {}

  bool run() {
    checkUniqueTopLevelNames();
    P.StmtById.clear();
    P.ProcOfStmt.clear();
    for (FuncDecl *F : P.Functions)
      analyzeFunction(*F);
    return !Diags.hasErrors();
  }

private:
  Program &P;
  DiagnosticEngine &Diags;
  FuncDecl *CurFunc = nullptr;
  std::set<std::string> Labels;
  std::vector<std::pair<std::string, SourceLoc>> GotoTargets;
  unsigned LoopDepth = 0;

  void error(SourceLoc Loc, const std::string &Message) {
    Diags.error(Loc, Message);
  }

  void checkUniqueTopLevelNames() {
    std::set<std::string> Seen;
    for (VarDecl *G : P.Globals)
      if (!Seen.insert(G->Name).second)
        error(G->Loc, "duplicate global '" + G->Name + "'");
    std::set<std::string> Funcs;
    for (FuncDecl *F : P.Functions) {
      if (!Funcs.insert(F->Name).second)
        error(F->Loc, "duplicate function '" + F->Name + "'");
      if (Seen.count(F->Name))
        error(F->Loc, "'" + F->Name + "' is both a global and a function");
    }
  }

  void analyzeFunction(FuncDecl &F) {
    CurFunc = &F;
    Labels.clear();
    GotoTargets.clear();
    LoopDepth = 0;

    // C2bp and Bebop name a variable by its spelling, so a local or
    // parameter that shadows a global would be taken for it.
    std::set<std::string> Names;
    for (VarDecl *V : F.Params) {
      if (!Names.insert(V->Name).second)
        error(V->Loc, "duplicate parameter '" + V->Name + "'");
      if (P.findGlobal(V->Name))
        error(V->Loc, "parameter '" + V->Name + "' shadows a global");
    }
    for (VarDecl *V : F.Locals) {
      if (!Names.insert(V->Name).second)
        error(V->Loc, "duplicate local '" + V->Name + "'");
      if (P.findGlobal(V->Name))
        error(V->Loc, "local '" + V->Name + "' shadows a global");
    }

    if (!F.Body)
      return; // Extern.
    collectLabels(*F.Body);
    analyzeStmt(*F.Body);
    for (const auto &[Name, Loc] : GotoTargets)
      if (!Labels.count(Name))
        error(Loc, "goto to undefined label '" + Name + "'");
    CurFunc = nullptr;
  }

  void collectLabels(Stmt &S) {
    if (S.Kind == CStmtKind::Label) {
      if (!Labels.insert(S.LabelName).second)
        error(S.Loc, "duplicate label '" + S.LabelName + "'");
      collectLabels(*S.Sub);
      return;
    }
    for (Stmt *Sub : {S.Then, S.Else, S.Body, S.Sub})
      if (Sub)
        collectLabels(*Sub);
    for (Stmt *Sub : S.Stmts)
      collectLabels(*Sub);
  }

  // -- Statements -----------------------------------------------------------
  void analyzeStmt(Stmt &S) {
    S.Id = static_cast<unsigned>(P.StmtById.size());
    P.StmtById.push_back(&S);
    P.ProcOfStmt.push_back(CurFunc);
    switch (S.Kind) {
    case CStmtKind::Block:
      for (Stmt *Sub : S.Stmts)
        analyzeStmt(*Sub);
      break;
    case CStmtKind::Assign: {
      const Type *LTy = analyzeExpr(*S.Lhs);
      const Type *RTy = analyzeExpr(*S.Rhs);
      if (!LTy || !RTy)
        break;
      if (!S.Lhs->isLocation()) {
        error(S.Lhs->Loc, "assignment target is not a location");
        break;
      }
      if (!LTy->isScalar())
        error(S.Lhs->Loc, "SIL-C assigns only scalars (int or pointer)");
      else if (!assignable(LTy, RTy, S.Rhs))
        error(S.Loc, "cannot assign '" + RTy->str() + "' to '" +
                         LTy->str() + "'");
      break;
    }
    case CStmtKind::CallStmt: {
      const Type *RetTy = analyzeCall(*S.CallE);
      if (S.Lhs) {
        const Type *LTy = analyzeExpr(*S.Lhs);
        if (LTy && RetTy) {
          if (!S.Lhs->isLocation())
            error(S.Lhs->Loc, "assignment target is not a location");
          else if (RetTy->isVoid())
            error(S.Loc, "void function used as a value");
          else if (!assignable(LTy, RetTy, nullptr))
            error(S.Loc, "cannot assign '" + RetTy->str() + "' to '" +
                             LTy->str() + "'");
        }
      }
      break;
    }
    case CStmtKind::If:
      checkCondition(*S.Cond);
      analyzeStmt(*S.Then);
      if (S.Else)
        analyzeStmt(*S.Else);
      break;
    case CStmtKind::While:
      checkCondition(*S.Cond);
      ++LoopDepth;
      analyzeStmt(*S.Body);
      --LoopDepth;
      break;
    case CStmtKind::Goto:
      GotoTargets.emplace_back(S.LabelName, S.Loc);
      break;
    case CStmtKind::Label:
      analyzeStmt(*S.Sub);
      break;
    case CStmtKind::Return: {
      const Type *Want = CurFunc->ReturnTy;
      if (S.Rhs) {
        const Type *Got = analyzeExpr(*S.Rhs);
        if (Want->isVoid())
          error(S.Loc, "void function returns a value");
        else if (Got && !assignable(Want, Got, S.Rhs))
          error(S.Loc, "return type mismatch");
      } else if (!Want->isVoid()) {
        error(S.Loc, "non-void function must return a value");
      }
      break;
    }
    case CStmtKind::Assert:
      checkCondition(*S.Cond);
      break;
    case CStmtKind::Break:
    case CStmtKind::Continue:
      if (LoopDepth == 0)
        error(S.Loc, "break/continue outside of a loop");
      break;
    case CStmtKind::Skip:
      break;
    }
  }

  void checkCondition(Expr &Cond) {
    const Type *Ty = analyzeExpr(Cond);
    if (Ty && !Ty->isScalar())
      error(Cond.Loc, "condition must be int or pointer");
  }

  // -- Expressions ------------------------------------------------------------
  /// Null literals type as int* and are assignable to every pointer.
  const Type *nullType() { return P.Types.pointerTo(P.Types.voidType()); }

  bool isNullConstant(const Expr *E) const {
    if (!E)
      return false;
    return E->Kind == CExprKind::NullLit ||
           (E->Kind == CExprKind::IntLit && E->IntValue == 0);
  }

  bool assignable(const Type *To, const Type *From, const Expr *FromE) {
    if (To == From)
      return true;
    if (To->isPointer() && isNullConstant(FromE))
      return true;
    return false;
  }

  const Type *analyzeCall(Expr &Call) {
    FuncDecl *Callee = P.findFunction(Call.Name);
    if (!Callee) {
      error(Call.Loc, "call to undefined function '" + Call.Name + "'");
      return nullptr;
    }
    Call.Callee = Callee;
    Call.Ty = Callee->ReturnTy;
    if (Call.Ops.size() != Callee->Params.size()) {
      error(Call.Loc, "wrong number of arguments to '" + Call.Name + "'");
      return Call.Ty;
    }
    for (size_t I = 0; I != Call.Ops.size(); ++I) {
      const Type *ArgTy = analyzeExpr(*Call.Ops[I]);
      if (ArgTy && !assignable(Callee->Params[I]->Ty, ArgTy, Call.Ops[I]))
        error(Call.Ops[I]->Loc, "argument type mismatch for parameter '" +
                                    Callee->Params[I]->Name + "'");
    }
    return Call.Ty;
  }

  const Type *analyzeExpr(Expr &E) {
    switch (E.Kind) {
    case CExprKind::IntLit:
      return E.Ty = P.Types.intType();
    case CExprKind::NullLit:
      return E.Ty = nullType();
    case CExprKind::VarRef: {
      VarDecl *V = CurFunc ? CurFunc->findLocalOrParam(E.Name) : nullptr;
      if (!V)
        V = P.findGlobal(E.Name);
      if (!V) {
        error(E.Loc, "use of undeclared variable '" + E.Name + "'");
        return nullptr;
      }
      E.Var = V;
      return E.Ty = V->Ty;
    }
    case CExprKind::Unary: {
      const Type *Sub = analyzeExpr(*E.Ops[0]);
      if (!Sub)
        return nullptr;
      switch (E.UOp) {
      case UnaryOp::Deref:
        if (!Sub->isPointer()) {
          error(E.Loc, "cannot dereference non-pointer '" + Sub->str() + "'");
          return nullptr;
        }
        return E.Ty = Sub->pointee();
      case UnaryOp::AddrOf:
        if (!E.Ops[0]->isLocation()) {
          error(E.Loc, "cannot take the address of a non-location");
          return nullptr;
        }
        return E.Ty = P.Types.pointerTo(Sub);
      case UnaryOp::Neg:
        if (!Sub->isInt()) {
          error(E.Loc, "operand of unary - must be int");
          return nullptr;
        }
        return E.Ty = P.Types.intType();
      case UnaryOp::Not:
        if (!Sub->isScalar()) {
          error(E.Loc, "operand of ! must be scalar");
          return nullptr;
        }
        return E.Ty = P.Types.intType();
      }
      return nullptr;
    }
    case CExprKind::Binary: {
      const Type *L = analyzeExpr(*E.Ops[0]);
      const Type *R = analyzeExpr(*E.Ops[1]);
      if (!L || !R)
        return nullptr;
      if (isComparisonOp(E.BOp)) {
        bool Ok = (L->isInt() && R->isInt()) || (L == R) ||
                  (L->isPointer() && isNullConstant(E.Ops[1])) ||
                  (R->isPointer() && isNullConstant(E.Ops[0]));
        if (!Ok) {
          error(E.Loc, "cannot compare '" + L->str() + "' with '" +
                           R->str() + "'");
          return nullptr;
        }
        return E.Ty = P.Types.intType();
      }
      if (E.BOp == BinaryOp::LAnd || E.BOp == BinaryOp::LOr) {
        if (!L->isScalar() || !R->isScalar()) {
          error(E.Loc, "operands of &&/|| must be scalar");
          return nullptr;
        }
        return E.Ty = P.Types.intType();
      }
      // Arithmetic; the logical memory model also admits ptr + int,
      // which yields a pointer to the same object (Section 4).
      if (L->isPointer() && R->isInt())
        return E.Ty = L;
      if (!L->isInt() || !R->isInt()) {
        error(E.Loc, "arithmetic requires int operands");
        return nullptr;
      }
      return E.Ty = P.Types.intType();
    }
    case CExprKind::Member: {
      const Type *Base = analyzeExpr(*E.Ops[0]);
      if (!Base)
        return nullptr;
      const Type *RecTy = Base;
      if (E.IsArrow) {
        if (!Base->isPointer() || !Base->pointee()->isRecord()) {
          error(E.Loc, "-> requires a pointer to struct");
          return nullptr;
        }
        RecTy = Base->pointee();
      } else if (!Base->isRecord()) {
        error(E.Loc, ". requires a struct");
        return nullptr;
      }
      const RecordDecl::Field *F =
          RecTy->record()->findField(E.FieldName);
      if (!F) {
        error(E.Loc, "no field '" + E.FieldName + "' in struct '" +
                         RecTy->record()->Name + "'");
        return nullptr;
      }
      return E.Ty = F->Ty;
    }
    case CExprKind::Index: {
      const Type *Base = analyzeExpr(*E.Ops[0]);
      const Type *Idx = analyzeExpr(*E.Ops[1]);
      if (!Base || !Idx)
        return nullptr;
      if (!Idx->isInt()) {
        error(E.Loc, "array index must be int");
        return nullptr;
      }
      if (Base->isArray())
        return E.Ty = Base->elementType();
      if (Base->isPointer())
        return E.Ty = Base->pointee();
      error(E.Loc, "subscript of non-array");
      return nullptr;
    }
    case CExprKind::Call:
      // Calls are validated by analyzeCall from statement context; a call
      // nested in an expression is legal input (Normalize hoists it).
      return analyzeCall(E);
    }
    return nullptr;
  }
};

} // namespace

bool cfront::analyze(Program &P, DiagnosticEngine &Diags) {
  SemaImpl Sema(P, Diags);
  return Sema.run();
}
