//===- PointsTo.cpp - One-level-flow constraint solving -------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "alias/PointsTo.h"

#include "support/Trace.h"

using namespace slam;
using namespace slam::alias;
using namespace slam::cfront;

std::string Cell::str() const {
  switch (K) {
  case Kind::Var:
    return Var->Name;
  case Kind::Field:
    return Record->Name + "." + FieldName;
  case Kind::Elem:
    return Var->Name + "[]";
  case Kind::Ret:
    return "ret:" + Func->Name;
  case Kind::Anon:
    return "<anon " + Ty->str() + ">";
  case Kind::Temp:
    return "<temp>";
  }
  return "<cell>";
}

int PointsTo::makeVarCell(const VarDecl *V) {
  auto It = VarCells.find(V);
  if (It != VarCells.end())
    return It->second;
  int Id = static_cast<int>(Cells.size());
  Cell C;
  C.K = Cell::Kind::Var;
  C.Var = V;
  C.Ty = V->Ty;
  Cells.push_back(C);
  VarCells.emplace(V, Id);
  growTables();
  return Id;
}

int PointsTo::makeFieldCell(const RecordDecl *Rec, const std::string &F) {
  auto Key = std::make_pair(Rec, F);
  auto It = FieldCells.find(Key);
  if (It != FieldCells.end())
    return It->second;
  int Id = static_cast<int>(Cells.size());
  Cell C;
  C.K = Cell::Kind::Field;
  C.Record = Rec;
  C.FieldName = F;
  if (const RecordDecl::Field *FD = Rec->findField(F))
    C.Ty = FD->Ty;
  Cells.push_back(C);
  FieldCells.emplace(Key, Id);
  growTables();
  return Id;
}

int PointsTo::makeElemCell(const VarDecl *V) {
  auto It = ElemCells.find(V);
  if (It != ElemCells.end())
    return It->second;
  int Id = static_cast<int>(Cells.size());
  Cell C;
  C.K = Cell::Kind::Elem;
  C.Var = V;
  if (V->Ty->isArray())
    C.Ty = V->Ty->elementType();
  Cells.push_back(C);
  ElemCells.emplace(V, Id);
  growTables();
  return Id;
}

int PointsTo::makeRetCell(const FuncDecl *F) {
  auto It = RetCells.find(F);
  if (It != RetCells.end())
    return It->second;
  int Id = static_cast<int>(Cells.size());
  Cell C;
  C.K = Cell::Kind::Ret;
  C.Func = F;
  C.Ty = F->ReturnTy;
  Cells.push_back(C);
  RetCells.emplace(F, Id);
  growTables();
  return Id;
}

int PointsTo::makeAnonCell(const Type *Ty) {
  auto It = AnonCells.find(Ty);
  if (It != AnonCells.end())
    return It->second;
  int Id = static_cast<int>(Cells.size());
  Cell C;
  C.K = Cell::Kind::Anon;
  C.Ty = Ty;
  Cells.push_back(C);
  AnonCells.emplace(Ty, Id);
  growTables();
  return Id;
}

/// Open-program soundness: a pointer cell whose targets all come from
/// outside the analyzed code (parameters, struct fields linked by the
/// caller, extern results) must point to *something*. Every typed
/// pointer cell receives an anonymous per-type target, transitively.
void PointsTo::seedBoundaryCells() {
  for (int I = 0; I != static_cast<int>(Cells.size()); ++I) {
    const Cell &C = Cells[I];
    if (C.K == Cell::Kind::Temp || !C.Ty || !C.Ty->isPointer())
      continue;
    int Target = makeAnonCell(C.Ty->pointee());
    Pts[I].insert(Target);
    AddressTakenCells.insert(Target);
  }
}

int PointsTo::makeTempCell() {
  int Id = static_cast<int>(Cells.size());
  Cell C;
  C.K = Cell::Kind::Temp;
  Cells.push_back(C);
  growTables();
  return Id;
}

void PointsTo::growTables() {
  if (Pts.size() < Cells.size()) {
    Pts.resize(Cells.size());
    CopyEdges.resize(Cells.size());
  }
}

int PointsTo::varCell(const VarDecl *V) const {
  auto It = VarCells.find(V);
  return It == VarCells.end() ? -1 : It->second;
}

int PointsTo::fieldCell(const RecordDecl *Rec, const std::string &F) const {
  auto It = FieldCells.find(std::make_pair(Rec, F));
  return It == FieldCells.end() ? -1 : It->second;
}

int PointsTo::elemCell(const VarDecl *V) const {
  auto It = ElemCells.find(V);
  return It == ElemCells.end() ? -1 : It->second;
}

int PointsTo::retCell(const FuncDecl *F) const {
  auto It = RetCells.find(F);
  return It == RetCells.end() ? -1 : It->second;
}

void PointsTo::addCopy(int From, int To) {
  if (From < 0 || To < 0 || From == To)
    return;
  CopyEdges[From].insert(To); // Top-level flow is directional.
}

void PointsTo::addLoad(int Dst, int Ptr) {
  if (Dst < 0 || Ptr < 0)
    return;
  // One-level flow: reading through a pointer also merges backwards.
  Loads.emplace_back(Dst, Ptr);
  Stores.emplace_back(Ptr, Dst);
}

void PointsTo::addStore(int Ptr, int Src) {
  if (Ptr < 0 || Src < 0)
    return;
  Stores.emplace_back(Ptr, Src);
  Loads.emplace_back(Src, Ptr);
}

void PointsTo::addAddressOf(int Ptr, int Target) {
  if (Ptr < 0 || Target < 0)
    return;
  Pts[Ptr].insert(Target); // Pts is sized before constraint generation.
  AddressTakenCells.insert(Target);
}

namespace {

/// Walks the normalized program and generates constraints.
class Builder {
public:
  Builder(PointsTo &PT, const Program &P) : PT(PT), P(P) {}

  void run();

private:
  PointsTo &PT;
  const Program &P;
  const FuncDecl *F = nullptr;

  void genStmt(const Stmt &S);
  void genAssign(const Expr &Lhs, const Expr &Rhs);
  void genCall(const Stmt &S);

  /// A cell whose points-to set equals the value of \p E (pointers
  /// only; integer expressions yield a fresh empty cell).
  int valueCell(const Expr &E);

  /// Cells an lvalue denotes.
  std::vector<int> lvalueCells(const Expr &E);

  friend class ::slam::alias::PointsTo;
};

void Builder::run() {
  for (const FuncDecl *Func : P.Functions) {
    F = Func;
    if (Func->Body) {
      genStmt(*Func->Body);
      continue;
    }
    // Extern function: conservatively let every pointer parameter reach
    // every other and the return value.
    int Ret = PT.makeRetCell(Func);
    for (const VarDecl *A : Func->Params) {
      if (!A->Ty->isPointer())
        continue;
      int CA = PT.makeVarCell(A);
      PT.addCopy(CA, Ret);
      PT.addCopy(Ret, CA);
      for (const VarDecl *B : Func->Params) {
        if (B == A || !B->Ty->isPointer())
          continue;
        PT.addStore(CA, PT.makeVarCell(B));
      }
    }
  }
  F = nullptr;
}

void Builder::genStmt(const Stmt &S) {
  switch (S.Kind) {
  case CStmtKind::Assign:
    genAssign(*S.Lhs, *S.Rhs);
    break;
  case CStmtKind::CallStmt:
    genCall(S);
    break;
  case CStmtKind::Return:
    if (S.Rhs && S.Rhs->Ty && S.Rhs->Ty->isPointer())
      PT.addCopy(valueCell(*S.Rhs), PT.makeRetCell(F));
    break;
  default:
    break;
  }
  for (const Stmt *Sub : {S.Then, S.Else, S.Body, S.Sub})
    if (Sub)
      genStmt(*Sub);
  for (const Stmt *Sub : S.Stmts)
    genStmt(*Sub);
}

int Builder::valueCell(const Expr &E) {
  switch (E.Kind) {
  case CExprKind::VarRef:
    return PT.makeVarCell(E.Var);
  case CExprKind::Member: {
    // Normalized: the base of -> is a variable; a dot base is a struct
    // variable. Field-based abstraction: one cell per (record, field).
    const Type *BaseTy = E.Ops[0]->Ty;
    const RecordDecl *Rec =
        E.IsArrow ? BaseTy->pointee()->record() : BaseTy->record();
    return PT.makeFieldCell(Rec, E.FieldName);
  }
  case CExprKind::Index: {
    const Expr &Base = *E.Ops[0];
    if (Base.Ty->isArray())
      return PT.makeElemCell(Base.Var);
    int T = PT.makeTempCell();
    PT.addLoad(T, PT.makeVarCell(Base.Var));
    return T;
  }
  case CExprKind::Unary:
    if (E.UOp == UnaryOp::Deref) {
      int T = PT.makeTempCell();
      PT.addLoad(T, valueCell(*E.Ops[0]));
      return T;
    }
    if (E.UOp == UnaryOp::AddrOf) {
      const Expr &L = *E.Ops[0];
      // Under the logical memory model &*p == p and &p[i] == p.
      if (L.Kind == CExprKind::Unary && L.UOp == UnaryOp::Deref)
        return valueCell(*L.Ops[0]);
      if (L.Kind == CExprKind::Index && !L.Ops[0]->Ty->isArray())
        return valueCell(*L.Ops[0]);
      int T = PT.makeTempCell();
      for (int C : lvalueCells(L))
        PT.addAddressOf(T, C);
      return T;
    }
    return PT.makeTempCell();
  case CExprKind::Binary: {
    // Pointer arithmetic points into the same object (logical model).
    if (E.Ty && E.Ty->isPointer()) {
      if (E.Ops[0]->Ty && E.Ops[0]->Ty->isPointer())
        return valueCell(*E.Ops[0]);
      if (E.Ops[1]->Ty && E.Ops[1]->Ty->isPointer())
        return valueCell(*E.Ops[1]);
    }
    return PT.makeTempCell();
  }
  default:
    return PT.makeTempCell();
  }
}

std::vector<int> Builder::lvalueCells(const Expr &E) {
  switch (E.Kind) {
  case CExprKind::VarRef:
    return {PT.makeVarCell(E.Var)};
  case CExprKind::Member: {
    const Type *BaseTy = E.Ops[0]->Ty;
    const RecordDecl *Rec =
        E.IsArrow ? BaseTy->pointee()->record() : BaseTy->record();
    return {PT.makeFieldCell(Rec, E.FieldName)};
  }
  case CExprKind::Index: {
    const Expr &Base = *E.Ops[0];
    if (Base.Ty->isArray())
      return {PT.makeElemCell(Base.Var)};
    // Through a pointer: the pointed-to cells.
    std::vector<int> Out;
    int T = PT.makeTempCell();
    PT.addLoad(T, PT.makeVarCell(Base.Var));
    Out.push_back(T);
    return Out;
  }
  case CExprKind::Unary:
    if (E.UOp == UnaryOp::Deref) {
      // Dereference target: model as store-through below; callers that
      // need the pointer use valueCell of the operand.
      return {};
    }
    return {};
  default:
    return {};
  }
}

void Builder::genAssign(const Expr &Lhs, const Expr &Rhs) {
  if (!Lhs.Ty || !Lhs.Ty->isPointer())
    return; // Only pointer flows constrain the analysis.
  int Val = valueCell(Rhs);
  switch (Lhs.Kind) {
  case CExprKind::VarRef:
    PT.addCopy(Val, PT.makeVarCell(Lhs.Var));
    break;
  case CExprKind::Member: {
    const Type *BaseTy = Lhs.Ops[0]->Ty;
    const RecordDecl *Rec =
        Lhs.IsArrow ? BaseTy->pointee()->record() : BaseTy->record();
    PT.addCopy(Val, PT.makeFieldCell(Rec, Lhs.FieldName));
    break;
  }
  case CExprKind::Index: {
    const Expr &Base = *Lhs.Ops[0];
    if (Base.Ty->isArray())
      PT.addCopy(Val, PT.makeElemCell(Base.Var));
    else
      PT.addStore(PT.makeVarCell(Base.Var), Val);
    break;
  }
  case CExprKind::Unary:
    assert(Lhs.UOp == UnaryOp::Deref && "lvalue unary must be deref");
    PT.addStore(valueCell(*Lhs.Ops[0]), Val);
    break;
  default:
    break;
  }
}

void Builder::genCall(const Stmt &S) {
  const Expr &Call = *S.CallE;
  const FuncDecl *Callee = Call.Callee;
  for (size_t I = 0; I != Call.Ops.size() && I != Callee->Params.size();
       ++I) {
    if (Callee->Params[I]->Ty->isPointer())
      PT.addCopy(valueCell(*Call.Ops[I]),
                 PT.makeVarCell(Callee->Params[I]));
  }
  if (S.Lhs && S.Lhs->Ty && S.Lhs->Ty->isPointer()) {
    int Ret = PT.makeRetCell(Callee);
    // Reuse assignment logic with the return cell as the value.
    switch (S.Lhs->Kind) {
    case CExprKind::VarRef:
      PT.addCopy(Ret, PT.makeVarCell(S.Lhs->Var));
      break;
    case CExprKind::Member: {
      const Type *BaseTy = S.Lhs->Ops[0]->Ty;
      const RecordDecl *Rec = S.Lhs->IsArrow ? BaseTy->pointee()->record()
                                             : BaseTy->record();
      PT.addCopy(Ret, PT.makeFieldCell(Rec, S.Lhs->FieldName));
      break;
    }
    case CExprKind::Unary:
      PT.addStore(valueCell(*S.Lhs->Ops[0]), Ret);
      break;
    case CExprKind::Index: {
      const Expr &Base = *S.Lhs->Ops[0];
      if (Base.Ty->isArray())
        PT.addCopy(Ret, PT.makeElemCell(Base.Var));
      else
        PT.addStore(PT.makeVarCell(Base.Var), Ret);
      break;
    }
    default:
      break;
    }
  }
}

} // namespace

PointsTo::PointsTo(const Program &P, Mode) {
  TraceSpan Span("alias.points_to", "alias");
  // Pre-create field cells for every record so oracle queries about
  // fields the program never touches still resolve.
  for (const RecordDecl *Rec : P.Types.allRecords())
    for (const auto &F : Rec->Fields)
      makeFieldCell(Rec, F.Name);
  // Pre-create cells for every declared variable so queries never miss.
  for (const VarDecl *G : P.Globals) {
    makeVarCell(G);
    if (G->Ty->isArray())
      makeElemCell(G);
  }
  for (const FuncDecl *F : P.Functions) {
    for (const VarDecl *V : F->Params)
      makeVarCell(V);
    for (const VarDecl *V : F->Locals) {
      makeVarCell(V);
      if (V->Ty->isArray())
        makeElemCell(V);
    }
    if (!F->ReturnTy->isVoid())
      makeRetCell(F);
  }

  growTables();
  Builder B(*this, P);
  B.run();
  growTables();
  seedBoundaryCells();
  solve();
}

void PointsTo::solve() {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Loads/stores generate copy edges as points-to sets grow.
    size_t NumLoads = Loads.size(), NumStores = Stores.size();
    for (size_t I = 0; I != NumLoads; ++I) {
      auto [Dst, Ptr] = Loads[I];
      for (int T : Pts[Ptr])
        if (CopyEdges[T].insert(Dst).second)
          Changed = true;
    }
    for (size_t I = 0; I != NumStores; ++I) {
      auto [Ptr, Src] = Stores[I];
      for (int T : Pts[Ptr])
        if (CopyEdges[Src].insert(T).second)
          Changed = true;
    }
    for (int From = 0; From != static_cast<int>(CopyEdges.size()); ++From) {
      for (int To : CopyEdges[From]) {
        for (int T : Pts[From])
          if (Pts[To].insert(T).second)
            Changed = true;
      }
    }
  }
}

std::set<int> PointsTo::locationCells(const Expr &Lvalue) const {
  switch (Lvalue.Kind) {
  case CExprKind::VarRef:
    return {varCell(Lvalue.Var)};
  case CExprKind::Member: {
    const Type *BaseTy = Lvalue.Ops[0]->Ty;
    const RecordDecl *Rec = Lvalue.IsArrow ? BaseTy->pointee()->record()
                                           : BaseTy->record();
    int C = fieldCell(Rec, Lvalue.FieldName);
    return C < 0 ? std::set<int>{} : std::set<int>{C};
  }
  case CExprKind::Index: {
    const Expr &Base = *Lvalue.Ops[0];
    if (Base.Ty->isArray()) {
      int C = elemCell(Base.Var);
      return C < 0 ? std::set<int>{} : std::set<int>{C};
    }
    return valueCells(Base);
  }
  case CExprKind::Unary:
    if (Lvalue.UOp == UnaryOp::Deref)
      return valueCells(*Lvalue.Ops[0]);
    return {};
  default:
    return {};
  }
}

std::set<int> PointsTo::valueCells(const Expr &PtrExpr) const {
  switch (PtrExpr.Kind) {
  case CExprKind::VarRef: {
    int C = varCell(PtrExpr.Var);
    return C < 0 ? std::set<int>{} : Pts[C];
  }
  case CExprKind::Unary:
    if (PtrExpr.UOp == UnaryOp::AddrOf)
      return locationCells(*PtrExpr.Ops[0]);
    if (PtrExpr.UOp == UnaryOp::Deref) {
      std::set<int> Out;
      for (int C : valueCells(*PtrExpr.Ops[0]))
        Out.insert(Pts[C].begin(), Pts[C].end());
      return Out;
    }
    return {};
  case CExprKind::Member:
  case CExprKind::Index: {
    std::set<int> Out;
    for (int C : locationCells(PtrExpr))
      Out.insert(Pts[C].begin(), Pts[C].end());
    return Out;
  }
  case CExprKind::Binary:
    if (PtrExpr.Ops[0]->Ty && PtrExpr.Ops[0]->Ty->isPointer())
      return valueCells(*PtrExpr.Ops[0]);
    if (PtrExpr.Ops.size() > 1 && PtrExpr.Ops[1]->Ty &&
        PtrExpr.Ops[1]->Ty->isPointer())
      return valueCells(*PtrExpr.Ops[1]);
    return {};
  default:
    return {};
  }
}

bool PointsTo::isAddressTaken(const VarDecl &V) const {
  int C = varCell(&V);
  if (C < 0)
    return false;
  if (AddressTakenCells.count(C))
    return true;
  // The cell may also be reachable as a points-to target.
  for (const std::set<int> &S : Pts)
    if (S.count(C))
      return true;
  return false;
}

const std::set<int> &PointsTo::pointsToSet(const VarDecl &V) const {
  static const std::set<int> Empty;
  int C = varCell(&V);
  return C < 0 ? Empty : Pts[C];
}
