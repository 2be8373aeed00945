//===- Expr.h - Quantifier-free logic expressions ---------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The quantifier-free predicate language of the paper (Section 4):
/// pure C boolean expressions over program variables and constants, with
/// pointer dereference, field access, array indexing under the logical
/// memory model, and address-of (used by Morris' axiom, Section 4.2).
///
/// Expressions are immutable and hash-consed inside a LogicContext, so
/// structural equality is pointer equality and every node has a stable
/// small integer id (assigned in creation order, hence deterministic).
///
//===----------------------------------------------------------------------===//

#ifndef LOGIC_EXPR_H
#define LOGIC_EXPR_H

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace slam {
namespace logic {

class LogicContext;

/// Node kinds. Terms come first, formulas second; \c Expr::isFormula()
/// relies on this ordering.
enum class ExprKind {
  // Terms.
  IntLit,  ///< Integer constant.
  NullLit, ///< The NULL pointer constant.
  Var,     ///< Named program variable (scalar, pointer or struct root).
  AddrOf,  ///< &loc — address of a location.
  Deref,   ///< *e — pointer dereference.
  Field,   ///< e.f — field access (p->f is Field(Deref(p), f)).
  Index,   ///< a[e] — array element, logical memory model.
  Neg,     ///< -e.
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  // Formulas.
  BoolLit,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  Not,
  And, ///< N-ary, flattened conjunction.
  Or,  ///< N-ary, flattened disjunction.
};

/// One immutable, interned expression node.
class Expr {
public:
  ExprKind kind() const { return Kind; }
  unsigned id() const { return Id; }

  /// Integer value; valid for IntLit (and 0/1 for BoolLit).
  int64_t intValue() const {
    assert(Kind == ExprKind::IntLit || Kind == ExprKind::BoolLit);
    return IntValue;
  }

  bool boolValue() const {
    assert(Kind == ExprKind::BoolLit);
    return IntValue != 0;
  }

  /// Variable name (Var) or field name (Field).
  const std::string &name() const { return Name; }

  const std::vector<const Expr *> &operands() const { return Ops; }

  const Expr *op(unsigned I) const {
    assert(I < Ops.size());
    return Ops[I];
  }

  unsigned numOperands() const { return static_cast<unsigned>(Ops.size()); }

  /// True for boolean-valued nodes (comparisons, connectives, BoolLit).
  bool isFormula() const { return Kind >= ExprKind::BoolLit; }

  /// True for the location shapes of Section 4.2: a variable, a field
  /// access from a location, an array element, or a dereference.
  bool isLocation() const {
    switch (Kind) {
    case ExprKind::Var:
    case ExprKind::Deref:
    case ExprKind::Field:
    case ExprKind::Index:
      return true;
    default:
      return false;
    }
  }

  bool isTrue() const {
    return Kind == ExprKind::BoolLit && IntValue != 0;
  }
  bool isFalse() const {
    return Kind == ExprKind::BoolLit && IntValue == 0;
  }

  /// Number of nodes in this expression tree (memoized at creation).
  unsigned size() const { return Size; }

  /// C-like rendering; `Field(Deref(p), f)` prints as `p->f`.
  std::string str() const;

private:
  friend class LogicContext;
  Expr(ExprKind Kind, int64_t IntValue, std::string Name,
       std::vector<const Expr *> Ops, unsigned Id, unsigned Size)
      : Kind(Kind), IntValue(IntValue), Name(std::move(Name)),
        Ops(std::move(Ops)), Id(Id), Size(Size) {}

  ExprKind Kind;
  int64_t IntValue;
  std::string Name;
  std::vector<const Expr *> Ops;
  unsigned Id;
  unsigned Size;
};

using ExprRef = const Expr *;

/// Maps one LogicContext's expressions to ints via a vector indexed by
/// the dense Expr::id(); clear() just bumps a 64-bit generation stamp.
class ExprIdMap {
public:
  /// The value stored for \p E, or -1.
  int lookup(ExprRef E) const {
    unsigned Id = E->id();
    return Id < Slots.size() && Slots[Id].first == Gen ? Slots[Id].second : -1;
  }
  void insert(ExprRef E, int Value) {
    if (E->id() >= Slots.size())
      Slots.resize(E->id() + 1 + Slots.size());
    Slots[E->id()] = {Gen, Value};
  }
  void clear() { ++Gen; }

private:
  std::vector<std::pair<uint64_t, int>> Slots; ///< (generation, value)
  uint64_t Gen = 1;
};

/// Owns and interns Expr nodes. Smart constructors perform light
/// canonicalization (constant folding, flattening of And/Or, double
/// negation, pushing ! through comparisons) so that the weakest
/// precondition computation produces formulas of manageable size.
///
/// Construction is thread-safe, so the parallel abstraction workers may
/// build expressions concurrently. The single interning funnel (make())
/// finds an existing node without locking, in a table whose slots are
/// published once; only a miss takes the mutex to create the node.
/// Nodes are immutable once published. Node ids are assigned in
/// creation order under the mutex, so they depend on thread
/// interleaving, which is why nothing downstream may let ids (or
/// pointers) influence *output* — only per-run cache keys and orderings.
class LogicContext {
public:
  LogicContext();

  // -- Terms --------------------------------------------------------------
  ExprRef intLit(int64_t Value);
  ExprRef nullLit();
  ExprRef var(const std::string &Name);
  ExprRef addrOf(ExprRef Loc);
  ExprRef deref(ExprRef Ptr);
  ExprRef field(ExprRef Base, const std::string &FieldName);
  ExprRef index(ExprRef Base, ExprRef Idx);
  ExprRef neg(ExprRef E);
  ExprRef add(ExprRef L, ExprRef R);
  ExprRef sub(ExprRef L, ExprRef R);
  ExprRef mul(ExprRef L, ExprRef R);
  ExprRef div(ExprRef L, ExprRef R);
  ExprRef mod(ExprRef L, ExprRef R);

  // -- Formulas -----------------------------------------------------------
  ExprRef boolLit(bool Value);
  ExprRef trueE() { return True; }
  ExprRef falseE() { return False; }
  ExprRef cmp(ExprKind Kind, ExprRef L, ExprRef R);
  ExprRef eq(ExprRef L, ExprRef R) { return cmp(ExprKind::Eq, L, R); }
  ExprRef ne(ExprRef L, ExprRef R) { return cmp(ExprKind::Ne, L, R); }
  ExprRef lt(ExprRef L, ExprRef R) { return cmp(ExprKind::Lt, L, R); }
  ExprRef le(ExprRef L, ExprRef R) { return cmp(ExprKind::Le, L, R); }
  ExprRef gt(ExprRef L, ExprRef R) { return cmp(ExprKind::Gt, L, R); }
  ExprRef ge(ExprRef L, ExprRef R) { return cmp(ExprKind::Ge, L, R); }
  ExprRef notE(ExprRef E);
  ExprRef andE(ExprRef L, ExprRef R);
  ExprRef andE(std::vector<ExprRef> Ops);
  ExprRef orE(ExprRef L, ExprRef R);
  ExprRef orE(std::vector<ExprRef> Ops);
  ExprRef implies(ExprRef L, ExprRef R) { return orE(notE(L), R); }

  /// Number of distinct nodes created so far.
  size_t numNodes() const {
    std::lock_guard<std::mutex> L(InternM);
    return Nodes.size();
  }

private:
  ExprRef make(ExprKind Kind, int64_t IntValue, std::string Name,
               std::vector<ExprRef> Ops);

  /// Views a name and operands, so a probe compares a key against a
  /// node's own fields.
  struct Key {
    ExprKind Kind;
    int64_t IntValue;
    std::string_view Name;
    std::span<const ExprRef> Ops;
    bool operator==(const Key &O) const {
      return Kind == O.Kind && IntValue == O.IntValue && Name == O.Name &&
             std::ranges::equal(Ops, O.Ops);
    }
  };
  static Key keyOf(ExprRef E) {
    return {E->Kind, E->IntValue, E->Name, E->Ops};
  }
  static size_t hash(const Key &K);

  /// An open-addressing table of interned nodes, at most half full. A
  /// slot changes once, from null to a node.
  struct Table {
    explicit Table(size_t Capacity)
        : Mask(Capacity - 1),
          Slots(std::make_unique<std::atomic<ExprRef>[]>(Capacity)) {}
    /// The node equal to \p K, or null at the first empty slot.
    ExprRef find(const Key &K, size_t Hash) const;
    /// Stores \p E in the first empty slot; only under InternM.
    void insert(ExprRef E, size_t Hash);

    size_t Mask;
    std::unique_ptr<std::atomic<ExprRef>[]> Slots;
  };

  mutable std::mutex InternM; ///< Held to create a node or grow the table.
  std::deque<Expr> Nodes;
  /// Every table built, the current one last. Retired tables live as
  /// long as the context, for readers still probing them.
  std::deque<Table> Tables;
  std::atomic<const Table *> Published;
  ExprRef True = nullptr;
  ExprRef False = nullptr;
};

/// Negates a comparison kind (Eq <-> Ne, Lt <-> Ge, ...).
ExprKind negateCmp(ExprKind Kind);

/// True if \p Kind is one of the six comparison kinds.
bool isCmpKind(ExprKind Kind);

/// \p A op \p B over int64 for op in Add, Sub, Mul, Div and Mod (Neg is
/// Sub from 0); nullopt where C leaves the result undefined: overflow
/// and division by zero. The one checked arithmetic of the prover's
/// models, the constant folder and the reference interpreter.
std::optional<int64_t> arith(ExprKind Kind, int64_t A, int64_t B);

/// \p A op \p B for op one of the six comparison kinds. The one integer
/// comparison of the concrete evaluator and the constant folder.
bool compare(ExprKind Kind, int64_t A, int64_t B);

} // namespace logic
} // namespace slam

#endif // LOGIC_EXPR_H
