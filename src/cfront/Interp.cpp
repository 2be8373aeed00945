//===- Interp.cpp - Reference execution of SIL-C ---------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "cfront/Interp.h"

#include <cassert>

using namespace slam;
using namespace slam::cfront;

StepHook::~StepHook() = default;

Interpreter::Interpreter(const Program &P, uint64_t NondetSeed)
    : P(P), RngState(NondetSeed * 2654435761ULL + 0x9e3779b97f4a7c15ULL) {
  Objects.resize(1); // Object 0 is the NULL pseudo-object.
  for (const VarDecl *G : P.Globals) {
    int Obj = allocVar(G->Ty);
    // C semantics: globals are zero-initialized.
    if (Objects[Obj].K == Object::Kind::Cell)
      Objects[Obj].Scalar = G->Ty->isPointer() ? Value::null()
                                               : Value::makeInt(0);
    Globals[G] = Obj;
  }
}

uint32_t Interpreter::nextRandom() {
  RngState ^= RngState << 13;
  RngState ^= RngState >> 7;
  RngState ^= RngState << 17;
  return static_cast<uint32_t>(RngState >> 32);
}

Value Interpreter::havocValue(const Type *Ty) {
  if (Ty->isPointer())
    return Value::null(); // Uninitialized pointers read as NULL.
  // Small signed range keeps the prover's constants small too.
  return Value::makeInt(static_cast<int64_t>(nextRandom() % 21) - 10);
}

int Interpreter::allocVar(const Type *Ty) {
  Object O;
  if (Ty->isRecord()) {
    O.K = Object::Kind::Record;
    O.Rec = Ty->record();
    Objects.push_back(O);
    int Id = static_cast<int>(Objects.size() - 1);
    for (const auto &F : Ty->record()->Fields) {
      Object Cell;
      Cell.Scalar = havocValue(F.Ty);
      Objects.push_back(Cell);
      Objects[Id].Fields[F.Name] =
          static_cast<int>(Objects.size() - 1);
    }
    return Id;
  }
  if (Ty->isArray()) {
    O.K = Object::Kind::Array;
    Objects.push_back(O);
    int Id = static_cast<int>(Objects.size() - 1);
    for (int64_t I = 0; I != Ty->arraySize(); ++I) {
      Object Cell;
      Cell.Scalar = havocValue(Ty->elementType());
      Objects.push_back(Cell);
      Objects[Id].Elements.push_back(
          static_cast<int>(Objects.size() - 1));
    }
    return Id;
  }
  O.Scalar = havocValue(Ty);
  Objects.push_back(O);
  return static_cast<int>(Objects.size() - 1);
}

int Interpreter::allocStruct(const RecordDecl *Rec) {
  Object O;
  O.K = Object::Kind::Record;
  O.Rec = Rec;
  Objects.push_back(O);
  int Id = static_cast<int>(Objects.size() - 1);
  for (const auto &F : Rec->Fields) {
    Object Cell;
    Cell.Scalar = F.Ty->isPointer() ? Value::null() : Value::makeInt(0);
    Objects.push_back(Cell);
    Objects[Id].Fields[F.Name] = static_cast<int>(Objects.size() - 1);
  }
  return Id;
}

void Interpreter::setField(int Obj, const std::string &Field, Value V) {
  Objects[Objects[Obj].Fields.at(Field)].Scalar = V;
}

Value Interpreter::getField(int Obj, const std::string &Field) const {
  return Objects[Objects[Obj].Fields.at(Field)].Scalar;
}

int Interpreter::allocCell(Value V) {
  Object O;
  O.Scalar = V;
  Objects.push_back(O);
  return static_cast<int>(Objects.size() - 1);
}

Value Interpreter::cellValue(int Obj) const { return Objects[Obj].Scalar; }

void Interpreter::setGlobal(const std::string &Name, Value V) {
  const VarDecl *G = P.findGlobal(Name);
  assert(G && "unknown global");
  Objects[Globals.at(G)].Scalar = V;
}

Value Interpreter::getGlobal(const std::string &Name) const {
  const VarDecl *G = P.findGlobal(Name);
  assert(G && "unknown global");
  return Objects[Globals.at(G)].Scalar;
}

int Interpreter::slotOf(const VarDecl *V) const {
  if (V->isGlobal())
    return Globals.at(V);
  return Stack.back().Slots.at(V);
}

Value Interpreter::load(int Obj) const { return Objects[Obj].Scalar; }

void Interpreter::store(int Obj, Value V) { Objects[Obj].Scalar = V; }

//===----------------------------------------------------------------------===//
// Flattening (structured control -> instructions)
//===----------------------------------------------------------------------===//

namespace {

struct FlatBuilder {
  std::vector<Interpreter::Instr> &Code;
  std::map<std::string, int> Labels;
  std::vector<std::pair<int, std::string>> GotoPatches;
  std::vector<std::vector<int>> BreakPatches;
  std::vector<int> ContinueTargets;

  explicit FlatBuilder(std::vector<Interpreter::Instr> &Code)
      : Code(Code) {}

  int emit(Interpreter::Instr I) {
    Code.push_back(I);
    return static_cast<int>(Code.size() - 1);
  }

  void lower(const Stmt &S) {
    using Op = Interpreter::Instr::Op;
    switch (S.Kind) {
    case CStmtKind::Block:
      for (const Stmt *Sub : S.Stmts)
        lower(*Sub);
      return;
    case CStmtKind::Assign:
      emit({Op::Assign, &S, -1, -1});
      return;
    case CStmtKind::CallStmt:
      emit({Op::Call, &S, -1, -1});
      return;
    case CStmtKind::Assert:
      emit({Op::Assert, &S, -1, -1});
      return;
    case CStmtKind::Skip:
      return;
    case CStmtKind::Label:
      Labels[S.LabelName] = static_cast<int>(Code.size());
      lower(*S.Sub);
      return;
    case CStmtKind::Goto: {
      int J = emit({Op::Jump, &S, -1, -1});
      GotoPatches.emplace_back(J, S.LabelName);
      return;
    }
    case CStmtKind::Return:
      emit({Op::Return, &S, -1, -1});
      return;
    case CStmtKind::If: {
      int B = emit({Op::Branch, &S, -1, -1});
      Code[B].ThenTarget = static_cast<int>(Code.size());
      lower(*S.Then);
      if (S.Else) {
        int SkipElse = emit({Op::Jump, nullptr, -1, -1});
        Code[B].Target = static_cast<int>(Code.size());
        lower(*S.Else);
        Code[SkipElse].Target = static_cast<int>(Code.size());
      } else {
        Code[B].Target = static_cast<int>(Code.size());
      }
      return;
    }
    case CStmtKind::While: {
      int Top = static_cast<int>(Code.size());
      int B = emit({Op::Branch, &S, -1, -1});
      Code[B].ThenTarget = static_cast<int>(Code.size());
      BreakPatches.emplace_back();
      ContinueTargets.push_back(Top);
      lower(*S.Body);
      emit({Op::Jump, nullptr, Top, -1});
      Code[B].Target = static_cast<int>(Code.size());
      for (int Patch : BreakPatches.back())
        Code[Patch].Target = static_cast<int>(Code.size());
      BreakPatches.pop_back();
      ContinueTargets.pop_back();
      return;
    }
    case CStmtKind::Break: {
      int J = emit({Op::Jump, &S, -1, -1});
      BreakPatches.back().push_back(J);
      return;
    }
    case CStmtKind::Continue:
      emit({Op::Jump, &S, ContinueTargets.back(), -1});
      return;
    }
  }

  void finish() {
    for (const auto &[Idx, Label] : GotoPatches) {
      auto It = Labels.find(Label);
      assert(It != Labels.end() && "checked by Sema");
      Code[Idx].Target = It->second;
    }
  }
};

} // namespace

const Interpreter::FlatFunction &Interpreter::flatten(const FuncDecl &F) {
  auto It = FlatCache.find(&F);
  if (It != FlatCache.end())
    return It->second;
  FlatFunction Flat;
  FlatBuilder B(Flat.Code);
  if (F.Body)
    B.lower(*F.Body);
  B.finish();
  return FlatCache.emplace(&F, std::move(Flat)).first->second;
}

//===----------------------------------------------------------------------===//
// Expression evaluation
//===----------------------------------------------------------------------===//

int Interpreter::lvalueObject(const Expr &E) {
  switch (E.Kind) {
  case CExprKind::VarRef:
    return slotOf(E.Var);
  case CExprKind::Unary: {
    assert(E.UOp == UnaryOp::Deref);
    Value V = eval(*E.Ops[0]);
    return V.isNull() ? -1 : V.Obj;
  }
  case CExprKind::Member: {
    int Base;
    if (E.IsArrow) {
      Value V = eval(*E.Ops[0]);
      if (V.isNull())
        return -1;
      Base = V.Obj;
    } else {
      Base = lvalueObject(*E.Ops[0]);
      if (Base < 0)
        return -1;
    }
    const Object &O = Objects[Base];
    auto It = O.Fields.find(E.FieldName);
    return It == O.Fields.end() ? -1 : It->second;
  }
  case CExprKind::Index: {
    int Base = lvalueObject(*E.Ops[0]);
    if (Base < 0)
      return -1;
    const Object *O = &Objects[Base];
    if (O->K == Object::Kind::Cell) {
      // Pointer variable: index its target array-ish object.
      Value V = O->Scalar;
      if (V.isNull())
        return -1;
      O = &Objects[V.Obj];
    }
    Value Idx = eval(*E.Ops[1]);
    if (O->K != Object::Kind::Array || Idx.I < 0 ||
        Idx.I >= static_cast<int64_t>(O->Elements.size()))
      return -1;
    return O->Elements[static_cast<size_t>(Idx.I)];
  }
  default:
    return -1;
  }
}

Value Interpreter::eval(const Expr &E) {
  // Checked int64 arithmetic: overflow, like division by zero, is a
  // runtime error.
  auto Arith = [this](logic::ExprKind Kind, int64_t A, int64_t B) {
    std::optional<int64_t> V = logic::arith(Kind, A, B);
    if (!V)
      Status = Outcome::RuntimeError;
    return Value::makeInt(V.value_or(0));
  };
  switch (E.Kind) {
  case CExprKind::IntLit:
    return Value::makeInt(E.IntValue);
  case CExprKind::NullLit:
    return Value::null();
  case CExprKind::VarRef:
  case CExprKind::Member:
  case CExprKind::Index: {
    int Obj = lvalueObject(E);
    if (Obj < 0) {
      Status = Outcome::RuntimeError;
      return Value::makeInt(0);
    }
    return load(Obj);
  }
  case CExprKind::Unary:
    switch (E.UOp) {
    case UnaryOp::Deref: {
      int Obj = lvalueObject(E);
      if (Obj < 0) {
        Status = Outcome::RuntimeError;
        return Value::makeInt(0);
      }
      return load(Obj);
    }
    case UnaryOp::AddrOf: {
      int Obj = lvalueObject(*E.Ops[0]);
      if (Obj < 0) {
        Status = Outcome::RuntimeError;
        return Value::null();
      }
      return Value::makePtr(Obj);
    }
    case UnaryOp::Neg:
      return Arith(logic::ExprKind::Sub, 0, eval(*E.Ops[0]).I);
    case UnaryOp::Not:
      return Value::makeInt(evalCond(*E.Ops[0]) ? 0 : 1);
    }
    break;
  case CExprKind::Binary: {
    if (E.BOp == BinaryOp::LAnd)
      return Value::makeInt(evalCond(*E.Ops[0]) && evalCond(*E.Ops[1]));
    if (E.BOp == BinaryOp::LOr)
      return Value::makeInt(evalCond(*E.Ops[0]) || evalCond(*E.Ops[1]));
    Value L = eval(*E.Ops[0]);
    Value R = eval(*E.Ops[1]);
    switch (E.BOp) {
    case BinaryOp::Add:
      if (L.K == Value::Kind::Ptr)
        return L; // Logical model: p + i points to *p's object.
      return Arith(logic::ExprKind::Add, L.I, R.I);
    case BinaryOp::Sub:
      if (L.K == Value::Kind::Ptr)
        return L;
      return Arith(logic::ExprKind::Sub, L.I, R.I);
    case BinaryOp::Mul:
      return Arith(logic::ExprKind::Mul, L.I, R.I);
    case BinaryOp::Div:
      return Arith(logic::ExprKind::Div, L.I, R.I);
    case BinaryOp::Mod:
      return Arith(logic::ExprKind::Mod, L.I, R.I);
    case BinaryOp::Eq:
      return Value::makeInt(L == R);
    case BinaryOp::Ne:
      return Value::makeInt(!(L == R));
    case BinaryOp::Lt:
      return Value::makeInt(L.I < R.I);
    case BinaryOp::Le:
      return Value::makeInt(L.I <= R.I);
    case BinaryOp::Gt:
      return Value::makeInt(L.I > R.I);
    case BinaryOp::Ge:
      return Value::makeInt(L.I >= R.I);
    default:
      break;
    }
    break;
  }
  case CExprKind::Call:
    assert(false && "calls are statement-level after normalization");
    break;
  }
  return Value::makeInt(0);
}

bool Interpreter::evalCond(const Expr &E) {
  Value V = eval(E);
  return V.K == Value::Kind::Int ? V.I != 0 : V.Obj != 0;
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

Value Interpreter::callFunction(const FuncDecl &F,
                                std::vector<Value> Args) {
  if (F.isExtern()) {
    // Default extern behavior: a fresh nondeterministic value, no side
    // effects (test harnesses may override via externHandlers).
    auto It = ExternHandlers.find(F.Name);
    if (It != ExternHandlers.end())
      return It->second(*this, Args);
    (void)Args;
    return havocValue(F.ReturnTy->isVoid() ? P.Types.intType()
                                           : F.ReturnTy);
  }

  Frame Fr;
  Fr.F = &F;
  for (size_t I = 0; I != F.Params.size(); ++I) {
    int Slot = allocVar(F.Params[I]->Ty);
    if (I < Args.size())
      Objects[Slot].Scalar = Args[I];
    Fr.Slots[F.Params[I]] = Slot;
  }
  for (const VarDecl *L : F.Locals)
    Fr.Slots[L] = allocVar(L->Ty);
  Stack.push_back(std::move(Fr));

  const FlatFunction &Flat = flatten(F);
  Value Ret = Value::makeInt(0);
  size_t Pc = 0;
  while (Pc < Flat.Code.size() && Status == Outcome::Finished) {
    if (--StepsLeft <= 0) {
      Status = Outcome::StepLimit;
      break;
    }
    const Instr &I = Flat.Code[Pc];
    switch (I.K) {
    case Instr::Op::Assign: {
      if (Hook)
        Hook->onStep(*I.S, true);
      Value V = eval(*I.S->Rhs);
      int Obj = lvalueObject(*I.S->Lhs);
      if (Obj < 0 || Status != Outcome::Finished) {
        Status = Outcome::RuntimeError;
        break;
      }
      store(Obj, V);
      if (Hook)
        Hook->afterStore(*I.S);
      ++Pc;
      break;
    }
    case Instr::Op::Call: {
      if (Hook)
        Hook->onStep(*I.S, true);
      std::vector<Value> CallArgs;
      for (const Expr *A : I.S->CallE->Ops)
        CallArgs.push_back(eval(*A));
      if (Status != Outcome::Finished)
        break;
      Value V = callFunction(*I.S->CallE->Callee, std::move(CallArgs));
      if (Status != Outcome::Finished)
        break;
      if (I.S->Lhs) {
        int Obj = lvalueObject(*I.S->Lhs);
        if (Obj < 0) {
          Status = Outcome::RuntimeError;
          break;
        }
        store(Obj, V);
      }
      if (Hook)
        Hook->afterStore(*I.S);
      ++Pc;
      break;
    }
    case Instr::Op::Assert: {
      bool V = evalCond(*I.S->Cond);
      if (Hook)
        Hook->onStep(*I.S, V);
      if (!V || Status != Outcome::Finished) {
        // A condition that errs is a runtime error, not a failed assert.
        if (Status == Outcome::Finished)
          Status = Outcome::AssertFailed;
        StopAt = I.S;
        break;
      }
      ++Pc;
      break;
    }
    case Instr::Op::Branch: {
      bool V = evalCond(*I.S->Cond);
      if (Hook)
        Hook->onStep(*I.S, V);
      Pc = static_cast<size_t>(V ? I.ThenTarget : I.Target);
      break;
    }
    case Instr::Op::Jump:
      Pc = static_cast<size_t>(I.Target);
      break;
    case Instr::Op::Return:
      if (I.S && I.S->Rhs)
        Ret = eval(*I.S->Rhs);
      Pc = Flat.Code.size();
      break;
    }
    // A run stops at the innermost statement that erred: a callee's
    // statement, if the error came from inside the call, stays.
    if (Status == Outcome::RuntimeError && !StopAt)
      StopAt = I.S;
  }

  Stack.pop_back();
  return Ret;
}

Interpreter::Outcome Interpreter::run(const std::string &Func,
                                      std::vector<Value> Args,
                                      StepHook *RunHook, int MaxSteps) {
  const FuncDecl *F = P.findFunction(Func);
  assert(F && F->Body && "entry must be defined");
  Hook = RunHook;
  StepsLeft = MaxSteps;
  Status = Outcome::Finished;
  StopAt = nullptr;
  LastReturn = callFunction(*F, std::move(Args));
  Hook = nullptr;
  return Status;
}

//===----------------------------------------------------------------------===//
// Predicate evaluation (logic terms against the concrete state)
//===----------------------------------------------------------------------===//

std::optional<Value> Interpreter::evalLogic(logic::ExprRef E) const {
  using logic::ExprKind;
  using logic::ExprRef;
  using logic::Result;
  // The objects as the evaluator's store: a location evaluates to the
  // pointer to its object, and a leaf to the scalar that object holds.
  struct ObjectStore final : logic::Store {
    const Interpreter &In;
    explicit ObjectStore(const Interpreter &In)
        : Store(/*NullIsZero=*/false), In(In) {}

    Result leaf(ExprRef App) override {
      if (App->kind() == ExprKind::AddrOf)
        return location(App->op(0));
      Result Loc = location(App);
      if (!Loc.defined())
        return Loc;
      // Whole structs and arrays have no scalar value.
      const Object &O = In.Objects[Loc.V.Obj];
      return O.K == Object::Kind::Cell ? Result::of(O.Scalar)
                                       : Result::undefined();
    }

    static Result object(int Obj) { return Result::of(Value::makePtr(Obj)); }

    Result location(ExprRef Loc) {
      switch (Loc->kind()) {
      case ExprKind::Var: {
        const VarDecl *V = nullptr;
        if (!In.Stack.empty())
          V = In.Stack.back().F->findLocalOrParam(Loc->name());
        if (!V)
          V = In.P.findGlobal(Loc->name());
        return V ? object(In.slotOf(V)) : Result::undefined();
      }
      case ExprKind::Deref: {
        Result Ptr = logic::evaluate(Loc->op(0), *this);
        if (Ptr.defined() && (Ptr.V.K != Value::Kind::Ptr || Ptr.V.isNull()))
          return Result::undefined();
        return Ptr;
      }
      case ExprKind::Field: {
        Result Base = location(Loc->op(0));
        if (!Base.defined())
          return Base;
        const Object &O = In.Objects[Base.V.Obj];
        auto It = O.Fields.find(Loc->name());
        return It == O.Fields.end() ? Result::undefined() : object(It->second);
      }
      case ExprKind::Index: {
        Result Base = location(Loc->op(0));
        if (!Base.defined())
          return Base;
        Result Idx = logic::evaluate(Loc->op(1), *this);
        if (!Idx.defined())
          return Idx;
        const Object *O = &In.Objects[Base.V.Obj];
        if (O->K == Object::Kind::Cell) { // A pointer: index its target.
          if (O->Scalar.isNull() || O->Scalar.K != Value::Kind::Ptr)
            return Result::undefined();
          O = &In.Objects[O->Scalar.Obj];
        }
        int64_t I = Idx.V.I;
        if (Idx.V.K != Value::Kind::Int || O->K != Object::Kind::Array ||
            I < 0 || I >= static_cast<int64_t>(O->Elements.size()))
          return Result::undefined();
        return object(O->Elements[static_cast<size_t>(I)]);
      }
      default:
        return Result::undefined();
      }
    }
  } State(*this);

  Result R = logic::evaluate(E, State);
  return R.defined() ? std::optional<Value>(R.V) : std::nullopt;
}
