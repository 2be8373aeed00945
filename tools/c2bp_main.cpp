//===- c2bp_main.cpp - The c2bp command-line tool ---------------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
//
// Usage: c2bp <program.c> <predicates.txt> [options] — see
// `c2bp --help` (the flag set lives in tools/PipelineFlags.h, shared
// with slam and bebop).
//
// Writes the boolean program BP(P, E) to stdout; reports go to stderr.
//
//===----------------------------------------------------------------------===//

#include "PipelineFlags.h"
#include "c2bp/C2bp.h"
#include "cfront/Normalize.h"
#include "logic/ExprUtils.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace slam;

static bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

int main(int argc, char **argv) {
  tools::PipelineArgs PA;
  if (auto Exit =
          tools::parsePipelineFlags(tools::ToolKind::C2bp, argc, argv, PA))
    return *Exit;

  std::string Source, PredText;
  if (!readFile(PA.Inputs[0], Source)) {
    std::fprintf(stderr, "c2bp: cannot read '%s'\n", PA.Inputs[0].c_str());
    return 2;
  }
  if (!readFile(PA.Inputs[1], PredText)) {
    std::fprintf(stderr, "c2bp: cannot read '%s'\n", PA.Inputs[1].c_str());
    return 2;
  }

  tools::ObservabilityFlags Obs(PA.Options.Obs);
  Obs.install();
  StatsRegistry Stats;
  DiagnosticEngine Diags;
  auto Program = cfront::frontend(Source, Diags);
  if (!Program) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    Obs.finish("c2bp", Stats);
    return 1;
  }
  logic::LogicContext Ctx;
  c2bp::PredicateLines Lines;
  auto Preds = c2bp::parsePredicateFile(Ctx, PredText, Diags, &Lines);
  if (Preds) {
    for (const auto &[Scope, _] : Preds->PerProc)
      if (!Program->findFunction(Scope))
        Diags.error(SourceLoc(Lines.Scopes.at(Scope), 1),
                    "predicate scope '" + Scope + "' names no procedure");
    // A global predicate over a procedure's variable would be read as a
    // global; names the program does not declare stay auxiliary.
    for (size_t I = 0; I != Preds->Globals.size(); ++I)
      for (const std::string &Name : logic::collectVars(Preds->Globals[I]))
        for (const cfront::FuncDecl *F : Program->Functions)
          if (F->findLocalOrParam(Name)) {
            Diags.error(SourceLoc(Lines.Globals[I], 1),
                        "global predicate '" + Preds->Globals[I]->str() +
                            "' names '" + Name + "', declared in '" +
                            F->Name + "'");
            break;
          }
  }
  if (!Preds || Diags.hasErrors()) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    Obs.finish("c2bp", Stats);
    return 1;
  }

  auto BP = c2bp::abstractProgram(*Program, *Preds, Ctx, PA.Options.C2bp,
                                  &Stats);
  std::printf("%s", BP->str().c_str());
  // stdout carries the boolean program, so the report goes to stderr.
  if (Obs.wantReport())
    tools::ObservabilityFlags::printStatsReport(stderr, Stats);
  if (!Obs.finish("c2bp", Stats))
    return 2;
  return 0;
}
