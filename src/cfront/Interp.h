//===- Interp.h - Concrete interpreter for SIL-C ----------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reference interpreter for the analyzed C subset, used by the
/// soundness tests: the paper's Section 4.6 theorem says every feasible
/// concrete execution of P is simulated by BP(P, E) with matching
/// predicate valuations, and the test harness runs programs concretely
/// while checking each boolean transfer function against the observed
/// predicate values.
///
/// Memory model: a table of objects — scalar cells, struct instances
/// and arrays — matching the paper's logical model. Pointer values are
/// object references (0 = NULL); &x refers to x's cell. Uninitialized
/// scalars and extern (nondet) calls draw from a seeded deterministic
/// generator. Predicates are evaluated by the prover's models' own
/// evaluator (logic/Evaluate.h), with the object table as its store.
///
//===----------------------------------------------------------------------===//

#ifndef CFRONT_INTERP_H
#define CFRONT_INTERP_H

#include "cfront/AST.h"
#include "logic/Evaluate.h"

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

namespace slam {
namespace cfront {

/// A runtime value: an integer or a pointer (object id; 0 = NULL).
using Value = logic::Value;

/// Observes execution; used by the lockstep soundness checker.
class StepHook {
public:
  virtual ~StepHook();
  /// Fires before each executed statement. For If/While/Assert,
  /// \p CondValue is the evaluated condition.
  virtual void onStep(const Stmt &S, bool CondValue) = 0;
  /// Fires after an Assign or CallStmt completed its store.
  virtual void afterStore(const Stmt &S) = 0;
};

/// Tree-walking interpreter over the normalized program.
class Interpreter {
public:
  enum class Outcome { Finished, AssertFailed, StepLimit, RuntimeError };

  Interpreter(const Program &P, uint64_t NondetSeed);

  // -- Heap construction for test harnesses --------------------------------
  /// Allocates a struct instance (fields zero/null-initialized).
  int allocStruct(const RecordDecl *Rec);
  void setField(int Obj, const std::string &Field, Value V);
  Value getField(int Obj, const std::string &Field) const;

  /// Allocates a scalar cell holding \p V (for int* arguments).
  int allocCell(Value V);
  Value cellValue(int Obj) const;

  void setGlobal(const std::string &Name, Value V);
  Value getGlobal(const std::string &Name) const;

  // -- Execution --------------------------------------------------------------
  /// Runs \p Func with \p Args. The hook (if any) observes each step.
  Outcome run(const std::string &Func, std::vector<Value> Args,
              StepHook *Hook = nullptr, int MaxSteps = 100000);

  /// The returned value of the last completed run (if non-void).
  std::optional<Value> returnValue() const { return LastReturn; }

  /// Statement at which the last run stopped (assert failure / error).
  const Stmt *stopStmt() const { return StopAt; }

  // -- State inspection ----------------------------------------------------
  /// Evaluates a predicate-logic formula or term in the current top
  /// frame's scope (logic::evaluate over the objects); boolean results
  /// are Int 0/1. Returns nullopt when the value is undefined (NULL
  /// dereference, unknown variable, ...) or poisoned (overflow, ...).
  std::optional<Value> evalLogic(logic::ExprRef E) const;

private:
  struct Object {
    enum class Kind { Cell, Record, Array } K = Kind::Cell;
    Value Scalar;                    // Cell.
    const RecordDecl *Rec = nullptr; // Record.
    std::map<std::string, int> Fields;
    std::vector<int> Elements; // Array.
  };

  struct Frame {
    const FuncDecl *F = nullptr;
    std::map<const VarDecl *, int> Slots; // Var -> cell/array object.
  };

  uint32_t nextRandom();
  Value havocValue(const Type *Ty);
  int allocVar(const Type *Ty);

  int slotOf(const VarDecl *V) const;
  Value load(int Obj) const;
  void store(int Obj, Value V);

  /// Object id a C lvalue denotes (its cell). -1 on NULL dereference.
  int lvalueObject(const Expr &E);
  Value eval(const Expr &E);
  bool evalCond(const Expr &E);

public:
  /// Flattened instruction form of one function body (labels resolved,
  /// structured control lowered) — gotos become jumps. Public for the
  /// internal builder; not part of the stable interface.
  struct Instr {
    enum class Op { Assign, Call, Assert, Branch, Jump, Return } K;
    const Stmt *S = nullptr;
    int Target = -1;      // Jump target / Branch false-target.
    int ThenTarget = -1;  // Branch true-target.
  };
  struct FlatFunction {
    std::vector<Instr> Code;
  };

private:
  const FlatFunction &flatten(const FuncDecl &F);

  Value callFunction(const FuncDecl &F, std::vector<Value> Args);

  const Program &P;
  uint64_t RngState;
  std::vector<Object> Objects; // Index 0 reserved for NULL.
  std::map<const VarDecl *, int> Globals;
  std::vector<Frame> Stack;
  StepHook *Hook = nullptr;
  int StepsLeft = 0;
  Outcome Status = Outcome::Finished;
  const Stmt *StopAt = nullptr;
  std::optional<Value> LastReturn;
  std::map<const FuncDecl *, FlatFunction> FlatCache;

public:
  /// Test harnesses may script extern functions (e.g. a list-node
  /// allocator); the default is a fresh nondeterministic value with no
  /// side effects.
  using ExternFn = std::function<Value(Interpreter &, std::vector<Value> &)>;
  void setExternHandler(const std::string &Name, ExternFn Fn) {
    ExternHandlers[Name] = std::move(Fn);
  }

private:
  std::map<std::string, ExternFn> ExternHandlers;
};

} // namespace cfront
} // namespace slam

#endif // CFRONT_INTERP_H
