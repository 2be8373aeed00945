//===- PredicateSet.cpp ------------------------------------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "c2bp/PredicateSet.h"

#include "c2bp/CExprToLogic.h"
#include "support/StringExtras.h"

#include <algorithm>

using namespace slam;
using namespace slam::c2bp;
using logic::ExprRef;

bool PredicateSet::addGlobal(ExprRef E) {
  if (std::find(Globals.begin(), Globals.end(), E) != Globals.end())
    return false;
  Globals.push_back(E);
  return true;
}

bool PredicateSet::addLocal(const std::string &Proc, ExprRef E) {
  auto &V = PerProc[Proc];
  if (std::find(V.begin(), V.end(), E) != V.end())
    return false;
  V.push_back(E);
  return true;
}

std::optional<PredicateSet>
c2bp::parsePredicateFile(logic::LogicContext &Ctx, std::string_view Text,
                         DiagnosticEngine &Diags, PredicateLines *Lines) {
  PredicateSet Out;
  PredicateLines Where;
  std::string Scope; // Empty until the first header.
  bool SawHeader = false;

  size_t LineNo = 0;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string_view::npos)
      Eol = Text.size();
    std::string_view Line = trim(Text.substr(Pos, Eol - Pos));
    Pos = Eol + 1;
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;

    // Scope header: `name:` alone on the line.
    if (Line.back() == ':' &&
        Line.find_first_of("=<>!&|()") == std::string_view::npos) {
      Scope = std::string(trim(Line.substr(0, Line.size() - 1)));
      Where.Scopes.try_emplace(Scope, static_cast<unsigned>(LineNo));
      SawHeader = true;
      continue;
    }
    if (!SawHeader) {
      Diags.error(SourceLoc(static_cast<unsigned>(LineNo), 1),
                  "predicate before any scope header "
                  "(expected 'global:' or '<proc>:')");
      return std::nullopt;
    }
    for (const std::string &Piece : splitAndTrim(Line, ',')) {
      DiagnosticEngine Local;
      ExprRef E = parseExpr(Ctx, Piece, Local);
      if (!E) {
        Diags.error(SourceLoc(static_cast<unsigned>(LineNo), 1),
                    "bad predicate '" + Piece + "': " + Local.str());
        return std::nullopt;
      }
      if (!E->isFormula()) {
        Diags.error(SourceLoc(static_cast<unsigned>(LineNo), 1),
                    "predicate '" + Piece + "' is not boolean");
        return std::nullopt;
      }
      // A constant has no boolean variable in BP(P, E).
      if (E->kind() == logic::ExprKind::BoolLit) {
        Diags.error(SourceLoc(static_cast<unsigned>(LineNo), 1),
                    "predicate '" + Piece + "' is constant");
        return std::nullopt;
      }
      if (Scope == "global" ? Out.addGlobal(E) : Out.addLocal(Scope, E))
        (Scope == "global" ? Where.Globals : Where.PerProc[Scope])
            .push_back(static_cast<unsigned>(LineNo));
    }
  }
  // A local copy's formal would shadow the global predicate variable.
  for (const auto &[Proc, Preds] : Out.PerProc)
    for (size_t I = 0; I != Preds.size(); ++I)
      if (std::ranges::find(Out.Globals, Preds[I]) != Out.Globals.end()) {
        Diags.error(SourceLoc(Where.PerProc[Proc][I], 1),
                    "predicate '" + Preds[I]->str() + "' of '" + Proc +
                        "' is already global");
        return std::nullopt;
      }
  if (Lines)
    *Lines = std::move(Where);
  return Out;
}
