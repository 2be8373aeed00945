//===- Bdd.h - Reduced ordered binary decision diagrams ---------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch ROBDD package [9] — the symbolic representation Bebop
/// uses for reachable-state sets and statement transfer functions. Nodes
/// are interned in an open-addressing unique table (so BDD equality is
/// integer equality). The core is three memoized walkers: if-then-else,
/// of which every boolean connective is a spelling; the fused relational
/// product andExists, of which exists is the case with a True conjunct;
/// and order-preserving renaming between variable rails. Those operators
/// take a quantified set or a renaming by the id it was interned under
/// (varSet, renaming), so a caller that interns each one once calls
/// them without building a container.
///
/// Engine policy:
///  - Nodes are never garbage collected: they live for the manager's
///    lifetime and handles stay valid. The unique table grows as needed.
///  - The three operation caches (ite, andexists, rename) are one type:
///    direct-mapped, size-capped arrays of three-key entries with
///    overwrite-on-collision eviction, so memory stays bounded no matter
///    how many operations run. Eviction only costs recomputation; every
///    operator result is canonical regardless of cache contents.
///  - All traversals run on explicit worklists (no native recursion), so
///    diagrams that are hundreds of thousands of nodes deep cannot
///    overflow the C stack.
///
//===----------------------------------------------------------------------===//

#ifndef BDD_BDD_H
#define BDD_BDD_H

#include "support/Stats.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace slam {
namespace bdd {

/// BDD node handle; 0 and 1 are the terminals.
using Node = int32_t;

/// A variable set interned by BddManager::varSet: what exists and
/// andExists quantify. Default-constructed, it names no set.
class VarSet {
public:
  VarSet() = default;
  bool valid() const { return Id >= 0; }

private:
  friend class BddManager;
  explicit VarSet(int Id) : Id(Id) {}
  int Id = -1;
};

/// A variable renaming interned by BddManager::renaming. Default-
/// constructed, it names no renaming.
class Renaming {
public:
  Renaming() = default;
  bool valid() const { return Id >= 0; }

private:
  friend class BddManager;
  explicit Renaming(int Id) : Id(Id) {}
  int Id = -1;
};

class BddManager {
public:
  static constexpr Node False = 0;
  static constexpr Node True = 1;

  BddManager();

  /// Creates the next variable (level == index).
  int newVar();
  /// The number of variables created.
  int numVars() const { return NumVars; }

  size_t numNodes() const { return Nodes.size(); }

  // -- Basic constructors ---------------------------------------------------
  Node varNode(int Var); ///< The function `Var`.
  Node constant(bool B) { return B ? True : False; }

  // -- Connectives ----------------------------------------------------------
  Node mkIte(Node F, Node G, Node H);
  Node mkAnd(Node A, Node B) { return mkIte(A, B, False); }
  Node mkOr(Node A, Node B) { return mkIte(A, True, B); }
  Node mkXor(Node A, Node B) { return mkIte(A, mkNot(B), B); }
  Node mkNot(Node A) { return mkIte(A, False, True); }
  Node mkXnor(Node A, Node B) { return mkIte(A, B, mkNot(B)); }

  // -- Quantification -------------------------------------------------------
  /// Interns the set of \p Vars (any order, duplicates ignored). A
  /// caller interns each set it quantifies by once; the operators below
  /// take the id and allocate nothing.
  VarSet varSet(const std::vector<int> &Vars);

  /// Existential quantification over each variable in \p Vars: the
  /// relational product of F with True.
  Node exists(Node F, VarSet Vars);

  /// The fused relational product exists(Vars, F & G), computed in one
  /// traversal with its own memo instead of materializing the
  /// conjunction first. This is the hot operator of Bebop's post-image,
  /// summary-edge, and call-site computations.
  Node andExists(Node F, Node G, VarSet Vars);

  /// Interns the renaming that replaces each From of \p Map by its To.
  /// The pairs must be strictly order-preserving (checked here, in
  /// every build mode).
  Renaming renaming(const std::map<int, int> &Map);

  /// Renames variables by \p R. The map, extended with the identity on
  /// unmapped variables, must be strictly order-preserving on levels;
  /// violations (including targets that collide with unmapped
  /// variables of F) are detected during the rebuild and abort in every
  /// build mode — a silently unordered diagram would poison all later
  /// operations. This covers Bebop's rail-to-rail renames.
  Node rename(Node F, Renaming R);

  // -- Queries --------------------------------------------------------------
  /// Enumerates the cubes (paths to True): each cube maps a subset of
  /// variables to values; unmentioned variables are don't-cares.
  void forEachCube(Node F,
                   const std::function<void(const std::map<int, bool> &)>
                       &Callback);

  /// The number of distinct nodes, terminals included, reachable from
  /// \p Roots. Diagrams are canonical for a variable order, so the count
  /// depends only on the functions, not on what else this manager holds.
  size_t nodeCount(const std::vector<Node> &Roots) const;

  /// Evaluates F under a total assignment (missing vars read false).
  bool eval(Node F, const std::map<int, bool> &Assignment) const;

  /// Publishes node and cache counters (lookups/hits/capacity per
  /// operation) into \p Stats under \p Prefix, e.g. "bebop.bdd.".
  void reportStats(StatsRegistry &Stats, const std::string &Prefix) const;

private:
  struct NodeData {
    int32_t Var;
    Node Lo;
    Node Hi;
  };

  int level(Node N) const {
    return Nodes[N].Var; // Terminals have Var = INT_MAX.
  }

  /// Child of N at \p Top: cofactor if N tests Top, else N itself.
  Node cof(Node N, int Top, bool High) const {
    if (level(N) != Top)
      return N;
    return High ? Nodes[N].Hi : Nodes[N].Lo;
  }

  Node mk(int Var, Node Lo, Node Hi);
  void growUniqueTable();

  // -- Bounded direct-mapped operation caches -------------------------------
  struct Cache3 {
    struct Ent {
      Node A = -1, B = -1, C = -1, R = 0;
    };
    std::vector<Ent> E;
    uint32_t Mask = 0;
    uint64_t Lookups = 0, Hits = 0, InsertsSinceGrow = 0;
    int LogSize = 0;

    void init(int Log);
    bool find(Node A, Node B, Node C, Node &R);
    void insert(Node A, Node B, Node C, Node R);
  };

  bool inCube(int CubeId, int Var) const {
    const std::vector<uint8_t> &Mask = CubeMasks[CubeId];
    return static_cast<size_t>(Var) < Mask.size() && Mask[Var];
  }

  Node andExistsRec(Node F, Node G, int CubeId);

  std::vector<NodeData> Nodes;
  int NumVars = 0;

  // Open-addressing unique table over node ids (-1 = empty slot).
  std::vector<Node> UniqueTable;
  uint32_t UniqueMask = 0;
  size_t UniqueUsed = 0;
  uint64_t UniqueHits = 0;

  Cache3 IteCache;       // (F, G, H).
  Cache3 AndExistsCache; // (F, G, cube id).
  Cache3 RenameCache;    // (F, rename id, 0).

  // Interned quantification cubes and rename maps.
  std::map<std::vector<int>, int> CubeIds;
  std::vector<std::vector<uint8_t>> CubeMasks;
  std::map<std::vector<std::pair<int, int>>, int> RenameIds;
  std::vector<std::vector<std::pair<int, int>>> RenameMaps;

  // Reused traversal scratch, one stack per walker: andExists merges
  // cofactors with mkOr, but no walker ever re-enters itself.
  struct IteFrame {
    Node F, G, H, Lo;
    int Top;
    uint8_t Phase;
  };
  struct AndExFrame {
    Node A, B, Lo;
    int Top;
    uint8_t Phase;
  };
  struct RenameFrame {
    Node N, Lo;
    uint8_t Phase;
  };
  std::vector<IteFrame> IteStack;
  std::vector<AndExFrame> AndExStack;
  std::vector<RenameFrame> RenameStack;
};

} // namespace bdd
} // namespace slam

#endif // BDD_BDD_H
