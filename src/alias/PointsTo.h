//===- PointsTo.h - Flow-insensitive points-to analysis ---------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flow-insensitive, context-insensitive may-point-to analysis over the
/// normalized program: Das's one-level-flow algorithm [12], as in the
/// paper. Top-level assignments flow one way; below one level of
/// dereference, flow is an equality (a load also stores back, a store
/// also loads back).
///
/// Abstract cells: one per variable, one per (struct, field) pair
/// (field-based heap abstraction), one summary cell per array's
/// elements, and one per function return value.
///
//===----------------------------------------------------------------------===//

#ifndef ALIAS_POINTSTO_H
#define ALIAS_POINTSTO_H

#include "cfront/AST.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace slam {
namespace alias {

/// The one analysis there is. The type and PointsTo's parameter of it
/// remain only because the benchmark harness still names them; they go
/// with CegarOptions::Incremental once it stops.
enum class Mode { Das };

/// One abstract memory cell.
struct Cell {
  enum class Kind { Var, Field, Elem, Ret, Anon, Temp } K;
  const cfront::VarDecl *Var = nullptr;       // Var / Elem.
  const cfront::RecordDecl *Record = nullptr; // Field.
  std::string FieldName;                      // Field.
  const cfront::FuncDecl *Func = nullptr;     // Ret.
  /// Static type of the cell's contents (null for temps).
  const cfront::Type *Ty = nullptr;

  /// Summary cells stand for many runtime cells, so co-location never
  /// implies must-alias.
  bool isSummary() const {
    return K == Kind::Field || K == Kind::Elem || K == Kind::Anon;
  }

  std::string str() const;
};

/// The analysis result: may-point-to sets over abstract cells.
class PointsTo {
public:
  /// The Mode is ignored (see Mode).
  PointsTo(const cfront::Program &P, Mode = Mode::Das);

  /// Abstract cells a C lvalue expression may denote.
  std::set<int> locationCells(const cfront::Expr &Lvalue) const;

  /// Abstract cells a pointer-valued C expression may point to.
  std::set<int> valueCells(const cfront::Expr &PtrExpr) const;

  /// Has &V been taken anywhere in the program (directly or via the
  /// points-to closure)?
  bool isAddressTaken(const cfront::VarDecl &V) const;

  /// Points-to set of the cell for variable \p V.
  const std::set<int> &pointsToSet(const cfront::VarDecl &V) const;

  // -- Cell table (shared with ModRef and the oracle) ---------------------
  int varCell(const cfront::VarDecl *V) const;
  int fieldCell(const cfront::RecordDecl *Rec,
                const std::string &Field) const;
  int elemCell(const cfront::VarDecl *ArrayVar) const;
  int retCell(const cfront::FuncDecl *F) const;
  const Cell &cell(int Id) const { return Cells[Id]; }
  const std::set<int> &pts(int CellId) const { return Pts[CellId]; }

  // -- Constraint construction (used by the internal builder) -------------
  int makeVarCell(const cfront::VarDecl *V);
  int makeFieldCell(const cfront::RecordDecl *Rec, const std::string &F);
  int makeElemCell(const cfront::VarDecl *V);
  int makeRetCell(const cfront::FuncDecl *F);
  int makeAnonCell(const cfront::Type *Ty);
  int makeTempCell();

  void addCopy(int From, int To);
  void addLoad(int Dst, int Ptr);
  void addStore(int Ptr, int Src);
  void addAddressOf(int Ptr, int Target);

private:
  void growTables();
  void seedBoundaryCells();
  void solve();

  std::vector<Cell> Cells;
  std::map<const cfront::VarDecl *, int> VarCells;
  std::map<std::pair<const cfront::RecordDecl *, std::string>, int>
      FieldCells;
  std::map<const cfront::VarDecl *, int> ElemCells;
  std::map<const cfront::FuncDecl *, int> RetCells;
  std::map<const cfront::Type *, int> AnonCells;

  std::vector<std::set<int>> Pts;
  std::vector<std::set<int>> CopyEdges; // From -> {To}.
  std::vector<std::pair<int, int>> Loads;  // (Dst, Ptr).
  std::vector<std::pair<int, int>> Stores; // (Ptr, Src).
  std::set<int> AddressTakenCells;
};

} // namespace alias
} // namespace slam

#endif // ALIAS_POINTSTO_H
