//===- Bdd.cpp - ROBDD operations ------------------------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Each memoized walker below is an explicit-worklist (iterative)
// version of the textbook recursion: a frame holds one subproblem,
// Phase tracks which cofactor results have arrived, and `Ret` carries
// the value a finished frame hands back to its parent. There are three:
// mkIte, which every connective calls; andExistsRec, which exists calls
// with a True conjunct and which merges quantified cofactors with mkOr;
// and rename. None re-enters itself, so each owns a distinct scratch
// stack. forEachCube walks its own action stack.
//
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"


#include <algorithm>
#include <cassert>
#include <climits>
#include <cstdio>
#include <cstdlib>

using namespace slam;
using namespace slam::bdd;

namespace {

constexpr int InitialCacheLog = 12;
constexpr int MaxCacheLog = 20; // 1M entries per cache, then evict-only.
constexpr uint32_t InitialTableSize = 1u << 13;
/// Id of the empty variable set and of the empty renaming.
constexpr int Empty = 0;

inline uint64_t mix64(uint64_t X) {
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdULL;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ULL;
  X ^= X >> 33;
  return X;
}

inline uint64_t pack3(Node A, Node B, Node C) {
  uint64_t K = static_cast<uint32_t>(A);
  K = K * 0x9e3779b97f4a7c15ULL ^ static_cast<uint32_t>(B);
  K = K * 0x9e3779b97f4a7c15ULL ^ static_cast<uint32_t>(C);
  return K;
}

[[noreturn]] void fatalRenameOrder(int From, int To) {
  std::fprintf(stderr,
               "BddManager::rename: order-preservation violated while "
               "renaming variable %d to %d\n",
               From, To);
  std::abort();
}

} // namespace

//===----------------------------------------------------------------------===//
// Operation caches
//===----------------------------------------------------------------------===//

void BddManager::Cache3::init(int Log) {
  LogSize = Log;
  E.assign(size_t(1) << Log, Ent{});
  Mask = (1u << Log) - 1;
  InsertsSinceGrow = 0;
}

bool BddManager::Cache3::find(Node A, Node B, Node C, Node &R) {
  ++Lookups;
  const Ent &X = E[mix64(pack3(A, B, C)) & Mask];
  if (X.A == A && X.B == B && X.C == C) {
    ++Hits;
    R = X.R;
    return true;
  }
  return false;
}

void BddManager::Cache3::insert(Node A, Node B, Node C, Node R) {
  E[mix64(pack3(A, B, C)) & Mask] = {A, B, C, R};
  // Grow (clearing the entries) under sustained insert pressure, up to
  // the cap; past the cap the direct-mapped overwrite is the eviction.
  if (++InsertsSinceGrow >= E.size() * 2 && LogSize < MaxCacheLog)
    init(LogSize + 1);
}

//===----------------------------------------------------------------------===//
// Node store and unique table
//===----------------------------------------------------------------------===//

BddManager::BddManager() {
  Nodes.push_back({INT_MAX, False, False}); // 0 = false terminal.
  Nodes.push_back({INT_MAX, True, True});   // 1 = true terminal.
  UniqueTable.assign(InitialTableSize, -1);
  UniqueMask = InitialTableSize - 1;
  IteCache.init(InitialCacheLog);
  AndExistsCache.init(InitialCacheLog);
  RenameCache.init(InitialCacheLog);
  // The empty variable set and the empty renaming, which varSet and
  // renaming hand out without a lookup.
  CubeMasks.resize(Empty + 1);
  RenameMaps.resize(Empty + 1);
}

int BddManager::newVar() { return NumVars++; }

void BddManager::growUniqueTable() {
  size_t NewSize = UniqueTable.size() * 2;
  UniqueTable.assign(NewSize, -1);
  UniqueMask = static_cast<uint32_t>(NewSize - 1);
  for (Node N = 2; N < static_cast<Node>(Nodes.size()); ++N) {
    const NodeData &D = Nodes[N];
    uint32_t Idx = static_cast<uint32_t>(
                       mix64(pack3(D.Var, D.Lo, D.Hi))) &
                   UniqueMask;
    while (UniqueTable[Idx] >= 0)
      Idx = (Idx + 1) & UniqueMask;
    UniqueTable[Idx] = N;
  }
}

Node BddManager::mk(int Var, Node Lo, Node Hi) {
  if (Lo == Hi)
    return Lo;
  uint32_t Idx =
      static_cast<uint32_t>(mix64(pack3(Var, Lo, Hi))) & UniqueMask;
  for (;;) {
    Node S = UniqueTable[Idx];
    if (S < 0)
      break;
    const NodeData &D = Nodes[S];
    if (D.Var == Var && D.Lo == Lo && D.Hi == Hi) {
      ++UniqueHits;
      return S;
    }
    Idx = (Idx + 1) & UniqueMask;
  }
  Node N = static_cast<Node>(Nodes.size());
  Nodes.push_back({Var, Lo, Hi});
  UniqueTable[Idx] = N;
  if (++UniqueUsed * 10 >= UniqueTable.size() * 7)
    growUniqueTable();
  return N;
}

Node BddManager::varNode(int Var) {
  assert(Var >= 0 && Var < NumVars && "unknown variable");
  return mk(Var, False, True);
}

//===----------------------------------------------------------------------===//
// If-then-else with standard-triple canonicalization
//===----------------------------------------------------------------------===//

Node BddManager::mkIte(Node F, Node G, Node H) {
  std::vector<IteFrame> &S = IteStack;
  S.clear();
  S.push_back({F, G, H, 0, 0, 0});
  Node Ret = False;
  while (!S.empty()) {
    size_t Ti = S.size() - 1;
    if (S[Ti].Phase == 0) {
      Node TF = S[Ti].F, TG = S[Ti].G, TH = S[Ti].H;
      if (TF == True) {
        Ret = TG;
        S.pop_back();
        continue;
      }
      if (TF == False) {
        Ret = TH;
        S.pop_back();
        continue;
      }
      // Standard triples: collapse repeated operands, then canonicalize
      // the commutative or/and forms so ite(F,1,H) and ite(H,1,F) (resp.
      // ite(F,G,0) / ite(G,F,0)) share one cache entry.
      if (TG == TF)
        TG = True;
      if (TH == TF)
        TH = False;
      if (TG == TH) {
        Ret = TG;
        S.pop_back();
        continue;
      }
      if (TG == True && TH == False) {
        Ret = TF;
        S.pop_back();
        continue;
      }
      if (TG == True && TH < TF)
        std::swap(TF, TH);
      if (TH == False && TG < TF)
        std::swap(TF, TG);
      Node R;
      if (IteCache.find(TF, TG, TH, R)) {
        Ret = R;
        S.pop_back();
        continue;
      }
      int Top = std::min(level(TF), std::min(level(TG), level(TH)));
      S[Ti] = {TF, TG, TH, 0, Top, 1};
      S.push_back({cof(TF, Top, false), cof(TG, Top, false),
                   cof(TH, Top, false), 0, 0, 0});
      continue;
    }
    if (S[Ti].Phase == 1) {
      S[Ti].Lo = Ret;
      S[Ti].Phase = 2;
      Node FH = cof(S[Ti].F, S[Ti].Top, true);
      Node GH = cof(S[Ti].G, S[Ti].Top, true);
      Node HH = cof(S[Ti].H, S[Ti].Top, true);
      S.push_back({FH, GH, HH, 0, 0, 0});
      continue;
    }
    Node R = mk(S[Ti].Top, S[Ti].Lo, Ret);
    IteCache.insert(S[Ti].F, S[Ti].G, S[Ti].H, R);
    Ret = R;
    S.pop_back();
  }
  return Ret;
}

//===----------------------------------------------------------------------===//
// Quantification and the fused relational product
//===----------------------------------------------------------------------===//

VarSet BddManager::varSet(const std::vector<int> &Vars) {
  if (Vars.empty())
    return VarSet(Empty);
  std::vector<int> Sorted(Vars);
  std::sort(Sorted.begin(), Sorted.end());
  Sorted.erase(std::unique(Sorted.begin(), Sorted.end()), Sorted.end());
  auto It = CubeIds.find(Sorted);
  if (It != CubeIds.end())
    return VarSet(It->second);
  int Id = static_cast<int>(CubeMasks.size());
  std::vector<uint8_t> Mask(Sorted.back() + 1, 0);
  for (int V : Sorted)
    Mask[V] = 1;
  CubeMasks.push_back(std::move(Mask));
  CubeIds.emplace(std::move(Sorted), Id);
  return VarSet(Id);
}

Node BddManager::exists(Node F, VarSet Vars) {
  assert(Vars.valid() && "interned by varSet");
  if (F <= True || Vars.Id == Empty)
    return F;
  return andExistsRec(F, True, Vars.Id);
}

Node BddManager::andExistsRec(Node F, Node G, int CubeId) {
  std::vector<AndExFrame> &S = AndExStack;
  S.clear();
  S.push_back({F, G, 0, 0, 0});
  Node Ret = False;
  while (!S.empty()) {
    size_t Ti = S.size() - 1;
    if (S[Ti].Phase == 0) {
      Node A = S[Ti].A, B = S[Ti].B;
      if (A == B)
        B = True; // F & F is F.
      if (A == False || B == False) {
        Ret = False;
        S.pop_back();
        continue;
      }
      if (A == True && B == True) {
        Ret = True;
        S.pop_back();
        continue;
      }
      if (A > B)
        std::swap(A, B); // Conjunction commutes.
      Node R;
      if (AndExistsCache.find(A, B, CubeId, R)) {
        Ret = R;
        S.pop_back();
        continue;
      }
      int Top = std::min(level(A), level(B));
      S[Ti] = {A, B, 0, Top, 1};
      S.push_back({cof(A, Top, false), cof(B, Top, false), 0, 0, 0});
      continue;
    }
    if (S[Ti].Phase == 1) {
      // Quantified level: result is an OR of the cofactor products, so a
      // True low half short-circuits the whole subproblem.
      if (inCube(CubeId, S[Ti].Top) && Ret == True) {
        AndExistsCache.insert(S[Ti].A, S[Ti].B, CubeId, True);
        S.pop_back();
        continue;
      }
      S[Ti].Lo = Ret;
      S[Ti].Phase = 2;
      Node AH = cof(S[Ti].A, S[Ti].Top, true);
      Node BH = cof(S[Ti].B, S[Ti].Top, true);
      S.push_back({AH, BH, 0, 0, 0});
      continue;
    }
    Node R = inCube(CubeId, S[Ti].Top) ? mkOr(S[Ti].Lo, Ret)
                                       : mk(S[Ti].Top, S[Ti].Lo, Ret);
    AndExistsCache.insert(S[Ti].A, S[Ti].B, CubeId, R);
    Ret = R;
    S.pop_back();
  }
  return Ret;
}

Node BddManager::andExists(Node F, Node G, VarSet Vars) {
  assert(Vars.valid() && "interned by varSet");
  if (Vars.Id == Empty)
    return mkAnd(F, G);
  return andExistsRec(F, G, Vars.Id);
}

//===----------------------------------------------------------------------===//
// Rename
//===----------------------------------------------------------------------===//

Renaming BddManager::renaming(const std::map<int, int> &Map) {
  // Precondition (checked in every build mode): the mapped pairs alone
  // must be strictly order-preserving. This is necessary but not
  // sufficient — collisions with unmapped variables of F are caught
  // during each rebuild.
  int PrevFrom = -1, PrevTo = -1;
  for (const auto &[From, To] : Map) {
    if (From <= PrevFrom || To <= PrevTo || To < 0)
      fatalRenameOrder(From, To);
    PrevFrom = From;
    PrevTo = To;
  }
  if (Map.empty())
    return Renaming(Empty);
  std::vector<std::pair<int, int>> Pairs(Map.begin(), Map.end());
  auto It = RenameIds.find(Pairs);
  if (It != RenameIds.end())
    return Renaming(It->second);
  int Id = static_cast<int>(RenameMaps.size());
  RenameMaps.push_back(Pairs);
  RenameIds.emplace(std::move(Pairs), Id);
  return Renaming(Id);
}

Node BddManager::rename(Node F, Renaming Ren) {
  assert(Ren.valid() && "interned by renaming");
  if (F <= True || Ren.Id == Empty)
    return F;
  const std::vector<std::pair<int, int>> &Map = RenameMaps[Ren.Id];
  auto MapVar = [&Map](int Var) {
    auto It = std::lower_bound(
        Map.begin(), Map.end(), Var,
        [](const std::pair<int, int> &P, int V) { return P.first < V; });
    return It != Map.end() && It->first == Var ? It->second : Var;
  };

  std::vector<RenameFrame> &S = RenameStack;
  S.clear();
  S.push_back({F, 0, 0});
  Node Ret = False;
  while (!S.empty()) {
    size_t Ti = S.size() - 1;
    if (S[Ti].Phase == 0) {
      Node N = S[Ti].N;
      if (N <= True) {
        Ret = N;
        S.pop_back();
        continue;
      }
      Node R;
      if (RenameCache.find(N, Ren.Id, 0, R)) {
        Ret = R;
        S.pop_back();
        continue;
      }
      S[Ti].Phase = 1;
      S.push_back({Nodes[N].Lo, 0, 0});
      continue;
    }
    if (S[Ti].Phase == 1) {
      S[Ti].Lo = Ret;
      S[Ti].Phase = 2;
      Node Hi = Nodes[S[Ti].N].Hi;
      S.push_back({Hi, 0, 0});
      continue;
    }
    Node N = S[Ti].N;
    int NewVar = MapVar(Nodes[N].Var);
    // The rebuilt children are canonical diagrams over the renamed
    // variables; if either one tests a level at or above NewVar, the
    // extended map was not order-preserving and the result would be an
    // unordered, unreduced diagram. Fail loudly in all build modes.
    if (level(S[Ti].Lo) <= NewVar || level(Ret) <= NewVar)
      fatalRenameOrder(Nodes[N].Var, NewVar);
    Node R = mk(NewVar, S[Ti].Lo, Ret);
    RenameCache.insert(N, Ren.Id, 0, R);
    Ret = R;
    S.pop_back();
  }
  return Ret;
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

void BddManager::forEachCube(
    Node F,
    const std::function<void(const std::map<int, bool> &)> &Callback) {
  // Action stack: visit-with-assignment actions interleaved with erase
  // actions so the path map mirrors the recursive traversal exactly
  // (low branch under Var=false first, then high under Var=true).
  struct Act {
    Node N;
    int Var;
    int8_t Kind; // 0 visit, 1 assign-false+visit, 2 assign-true+visit,
                 // 3 erase.
  };
  std::map<int, bool> Path;
  std::vector<Act> S;
  S.push_back({F, -1, 0});
  while (!S.empty()) {
    Act A = S.back();
    S.pop_back();
    if (A.Kind == 3) {
      Path.erase(A.Var);
      continue;
    }
    if (A.Kind == 1)
      Path[A.Var] = false;
    else if (A.Kind == 2)
      Path[A.Var] = true;
    if (A.N == False)
      continue;
    if (A.N == True) {
      Callback(Path);
      continue;
    }
    int Var = Nodes[A.N].Var;
    S.push_back({False, Var, 3});
    S.push_back({Nodes[A.N].Hi, Var, 2});
    S.push_back({Nodes[A.N].Lo, Var, 1});
  }
}

size_t BddManager::nodeCount(const std::vector<Node> &Roots) const {
  // A node is seen when its mark is this call's epoch, so a call costs
  // the nodes it reaches, not the manager's size.
  if (++CountEpoch == 0) { // Wrapped: no mark may equal a later epoch.
    std::fill(CountMarks.begin(), CountMarks.end(), 0);
    CountEpoch = 1;
  }
  CountMarks.resize(Nodes.size(), 0);
  CountStack.clear();
  size_t Count = 0;
  auto Visit = [&](Node N) {
    if (CountMarks[N] == CountEpoch)
      return;
    CountMarks[N] = CountEpoch;
    ++Count;
    if (N > True)
      CountStack.push_back(N);
  };
  for (Node R : Roots)
    Visit(R);
  while (!CountStack.empty()) {
    Node N = CountStack.back();
    CountStack.pop_back();
    Visit(Nodes[N].Lo);
    Visit(Nodes[N].Hi);
  }
  return Count;
}

bool BddManager::eval(Node F, const std::map<int, bool> &Assignment) const {
  Node N = F;
  while (N > True) {
    auto It = Assignment.find(Nodes[N].Var);
    bool V = It != Assignment.end() && It->second;
    N = V ? Nodes[N].Hi : Nodes[N].Lo;
  }
  return N == True;
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

void BddManager::reportStats(StatsRegistry &Stats,
                             const std::string &Prefix) const {
  // Node counts and capacities are peaks (gauges): merging registries
  // must take the max, not the sum — summed per-worker peaks would
  // report a node count no single manager ever held.
  Stats.setMax(Prefix + "nodes", Nodes.size());
  Stats.set(Prefix + "unique.hits", UniqueHits);
  Stats.setMax(Prefix + "unique.capacity", UniqueTable.size());
  auto Rep = [&](const char *Name, const Cache3 &C) {
    Stats.set(Prefix + Name + ".lookups", C.Lookups);
    Stats.set(Prefix + Name + ".hits", C.Hits);
    Stats.setMax(Prefix + Name + ".capacity", C.E.size());
  };
  Rep("ite", IteCache);
  Rep("andexists", AndExistsCache);
  Rep("rename", RenameCache);
}
