//===- PipelineFlagsTest.cpp - The shared command-line parser --------------===//
//
// tools/PipelineFlags.h is the single parser behind slam, c2bp, and
// bebop; these tests pin the contract the three mains rely on: shared
// flags parse identically everywhere, per-tool flags are rejected by
// the other tools, --help exits 0, unknown options and bad positional
// counts exit 2, and the slam driver's k=3 default holds.
//
//===----------------------------------------------------------------------===//

#include "tools/PipelineFlags.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

using namespace slam;
using namespace slam::tools;

namespace {

/// Runs the parser on a synthesized argv (argv[0] included here).
std::optional<int> parse(ToolKind Tool, std::initializer_list<const char *>
                                            Args,
                         PipelineArgs &Out) {
  std::vector<std::string> Store{toolName(Tool)};
  Store.insert(Store.end(), Args.begin(), Args.end());
  std::vector<char *> Argv;
  for (std::string &S : Store)
    Argv.push_back(S.data());
  return parsePipelineFlags(Tool, static_cast<int>(Argv.size()),
                            Argv.data(), Out);
}

} // namespace

TEST(PipelineFlags, SlamDefaults) {
  PipelineArgs PA;
  EXPECT_EQ(parse(ToolKind::Slam, {"prog.c"}, PA), std::nullopt);
  ASSERT_EQ(PA.Inputs.size(), 1u);
  EXPECT_EQ(PA.Inputs[0], "prog.c");
  EXPECT_FALSE(PA.HaveSpec);
  // The paper's k=3 is the driver default (c2bp alone is unlimited).
  EXPECT_EQ(PA.Options.C2bp.Cubes.MaxCubeLength, 3);
  EXPECT_EQ(PA.Options.Cegar.MaxIterations, 24);
  EXPECT_EQ(PA.Options.Cegar.EntryProc, "main");
  EXPECT_TRUE(PA.Options.Cegar.Incremental);

  PipelineArgs PB;
  EXPECT_EQ(parse(ToolKind::C2bp, {"prog.c", "preds.txt"}, PB),
            std::nullopt);
  EXPECT_EQ(PB.Options.C2bp.Cubes.MaxCubeLength, -1);
}

TEST(PipelineFlags, SharedFlagsParseIdenticallyInEveryTool) {
  for (ToolKind Tool :
       {ToolKind::Slam, ToolKind::C2bp, ToolKind::Bebop}) {
    PipelineArgs PA;
    std::optional<int> Exit =
        Tool == ToolKind::C2bp
            ? parse(Tool, {"in.c", "preds.txt", "--trace-out", "t.json",
                           "--stats-json", "s.json", "--report"},
                    PA)
            : parse(Tool, {"input", "--trace-out", "t.json", "--stats-json",
                           "s.json", "--report"},
                    PA);
    EXPECT_EQ(Exit, std::nullopt) << toolName(Tool);
    EXPECT_EQ(PA.Options.Obs.TraceOutPath, "t.json") << toolName(Tool);
    EXPECT_EQ(PA.Options.Obs.StatsJsonPath, "s.json") << toolName(Tool);
    EXPECT_TRUE(PA.Options.Obs.Report) << toolName(Tool);
  }
}

TEST(PipelineFlags, SlamSpecificFlags) {
  PipelineArgs PA;
  EXPECT_EQ(parse(ToolKind::Slam,
                  {"p.c", "--lock", "Acq,Rel", "--entry", "start",
                   "--max-iters", "7", "-k", "2", "-j", "2"},
                  PA),
            std::nullopt);
  EXPECT_TRUE(PA.HaveSpec);
  EXPECT_EQ(PA.Options.Cegar.EntryProc, "start");
  EXPECT_EQ(PA.Options.Cegar.MaxIterations, 7);
  EXPECT_EQ(PA.Options.C2bp.Cubes.MaxCubeLength, 2);
  EXPECT_EQ(PA.Options.C2bp.NumWorkers, 2);
  // Deleted: prover results are not persisted across runs.
  PipelineArgs PB;
  EXPECT_EQ(parse(ToolKind::Slam, {"p.c", "--prover-cache", "c.log"}, PB), 2);
}

TEST(PipelineFlags, MalformedPropertyPairIsAUsageError) {
  PipelineArgs PA;
  EXPECT_EQ(parse(ToolKind::Slam, {"p.c", "--lock", "NoComma"}, PA), 2);
  PipelineArgs PB;
  EXPECT_EQ(parse(ToolKind::Slam, {"p.c", "--irp", ",Half"}, PB), 2);
}

TEST(PipelineFlags, C2bpSpecificFlags) {
  PipelineArgs PA;
  EXPECT_EQ(parse(ToolKind::C2bp,
                  {"p.c", "e.txt", "--no-enforce", "--no-alias"}, PA),
            std::nullopt);
  EXPECT_FALSE(PA.Options.C2bp.UseEnforce);
  EXPECT_FALSE(PA.Options.C2bp.UseAliasAnalysis);
  // Deleted knobs are usage errors: --report prints the counters, every
  // run has one prover cache, and nothing is persisted across runs.
  for (const char *Gone : {"--stats", "--no-shared-cache", "--prover-cache"}) {
    PipelineArgs PB;
    EXPECT_EQ(parse(ToolKind::C2bp, {"p.c", "e.txt", Gone}, PB), 2) << Gone;
  }
}

TEST(PipelineFlags, BebopSpecificFlags) {
  PipelineArgs PA;
  EXPECT_EQ(parse(ToolKind::Bebop,
                  {"p.bp", "--entry", "go", "--invariant", "proc", "L1",
                   "--trace"},
                  PA),
            std::nullopt);
  EXPECT_EQ(PA.Options.Bebop.EntryProc, "go");
  EXPECT_EQ(PA.Options.Bebop.InvariantProc, "proc");
  EXPECT_EQ(PA.Options.Bebop.InvariantLabel, "L1");
  EXPECT_TRUE(PA.Options.Bebop.PrintTrace);
}

TEST(PipelineFlags, ToolsRejectEachOthersFlags) {
  // The per-tool sections must not leak: an abstraction knob means
  // nothing to bebop, a model-checking knob nothing to c2bp.
  PipelineArgs PA;
  EXPECT_EQ(parse(ToolKind::Bebop, {"p.bp", "-k", "3"}, PA), 2);
  PipelineArgs PB;
  EXPECT_EQ(parse(ToolKind::C2bp, {"p.c", "e.txt", "--trace"}, PB), 2);
  PipelineArgs PC;
  EXPECT_EQ(parse(ToolKind::Slam, {"p.c", "--no-enforce"}, PC), 2);
  PipelineArgs PD;
  EXPECT_EQ(parse(ToolKind::C2bp, {"p.c", "e.txt", "--max-iters", "3"}, PD),
            2);
}

TEST(PipelineFlags, RetiredFlagsExitTwoInEveryTool) {
  // Each changed no output: the memo, the cone of influence and the
  // points-to mode only change how much work a run does, and the
  // prover.query trace spans time every query.
  for (ToolKind Tool :
       {ToolKind::Slam, ToolKind::C2bp, ToolKind::Bebop}) {
    for (const char *Gone :
         {"--no-incremental", "--no-cone", "--alias", "--slow-query-ms"}) {
      PipelineArgs PA;
      testing::internal::CaptureStderr();
      std::optional<int> Exit =
          Tool == ToolKind::C2bp ? parse(Tool, {"p.c", "e.txt", Gone, "5"}, PA)
                                 : parse(Tool, {"input", Gone, "5"}, PA);
      std::string Err = testing::internal::GetCapturedStderr();
      EXPECT_EQ(Exit, 2) << toolName(Tool) << " " << Gone;
      EXPECT_EQ(Err, std::string(toolName(Tool)) + ": unknown option '" +
                         Gone + "' (try --help)\n");
    }
  }
}

TEST(PipelineFlags, HelpExitsZeroEverywhere) {
  for (ToolKind Tool :
       {ToolKind::Slam, ToolKind::C2bp, ToolKind::Bebop}) {
    PipelineArgs PA;
    EXPECT_EQ(parse(Tool, {"--help"}, PA), 0) << toolName(Tool);
    PipelineArgs PB;
    EXPECT_EQ(parse(Tool, {"-h"}, PB), 0) << toolName(Tool);
  }
}

// Every option line of every tool's --help starts its description, and
// every continuation line its text, at one column. An option spec is the
// leading tokens that start with '-' or '<'; a spec too long for the
// column puts its description on the next line.
TEST(PipelineFlags, HelpDescriptionsShareOneColumn) {
  std::vector<std::string> Misplaced;
  size_t Column = 0;
  for (ToolKind Tool :
       {ToolKind::Slam, ToolKind::C2bp, ToolKind::Bebop}) {
    PipelineArgs PA;
    testing::internal::CaptureStdout();
    parse(Tool, {"--help"}, PA);
    std::string Help = testing::internal::GetCapturedStdout();
    size_t Lines = 0;
    for (size_t Pos = 0, End; Pos < Help.size(); Pos = End + 1) {
      End = Help.find('\n', Pos);
      if (End == std::string::npos)
        End = Help.size();
      std::string Line = Help.substr(Pos, End - Pos);
      if (Line.rfind("  ", 0) != 0)
        continue; // Usage and prose.
      size_t Col = Line.find_first_not_of(' ');
      if (Col == 2) {
        // Skip the option's spec tokens.
        while (Col < Line.size() && (Line[Col] == '-' || Line[Col] == '<')) {
          Col = Line.find(' ', Col);
          Col = Col == std::string::npos ? Line.size()
                                         : Line.find_first_not_of(' ', Col);
          if (Col == std::string::npos)
            Col = Line.size();
        }
        if (Col == Line.size())
          continue; // The description is on the next line.
      }
      ++Lines;
      if (!Column)
        Column = Col;
      if (Col != Column)
        Misplaced.push_back(std::string(toolName(Tool)) + " column " +
                            std::to_string(Col) + ": " + Line);
    }
    EXPECT_GT(Lines, 4u) << toolName(Tool);
  }
  EXPECT_EQ(Column, 26u);
  EXPECT_TRUE(Misplaced.empty()) << testing::PrintToString(Misplaced);
}

TEST(PipelineFlags, UnknownOptionExitsTwoEverywhere) {
  for (ToolKind Tool :
       {ToolKind::Slam, ToolKind::C2bp, ToolKind::Bebop}) {
    PipelineArgs PA;
    EXPECT_EQ(parse(Tool, {"input", "--no-such-flag"}, PA), 2)
        << toolName(Tool);
  }
}

TEST(PipelineFlags, PositionalCountIsEnforced) {
  PipelineArgs PA;
  EXPECT_EQ(parse(ToolKind::Slam, {}, PA), 2);
  PipelineArgs PB;
  EXPECT_EQ(parse(ToolKind::Slam, {"a.c", "b.c"}, PB), 2);
  PipelineArgs PC;
  EXPECT_EQ(parse(ToolKind::C2bp, {"only-one.c"}, PC), 2);
  PipelineArgs PD;
  EXPECT_EQ(parse(ToolKind::Bebop, {"a.bp", "b.bp"}, PD), 2);
}

TEST(PipelineFlags, MissingFlagValueIsAUsageError) {
  PipelineArgs PA;
  EXPECT_EQ(parse(ToolKind::Slam, {"p.c", "--max-iters"}, PA), 2);
  PipelineArgs PB;
  EXPECT_EQ(parse(ToolKind::Bebop, {"p.bp", "--invariant", "proc"}, PB),
            2);
  PipelineArgs PC;
  EXPECT_EQ(parse(ToolKind::Slam, {"p.c", "-k", "nonsense"}, PC), 2);
}

TEST(PipelineFlags, IntegerFlagsAboveIntMaxAreUsageErrors) {
  // Each would wrap when narrowed to int: --max-iters to 0, -k to 0 and
  // -j to 1.
  PipelineArgs PA;
  EXPECT_EQ(parse(ToolKind::Slam, {"p.c", "--max-iters", "4294967296"}, PA),
            2);
  PipelineArgs PB;
  EXPECT_EQ(parse(ToolKind::C2bp, {"p.c", "e.txt", "-k", "4294967296"}, PB),
            2);
  PipelineArgs PC;
  EXPECT_EQ(parse(ToolKind::C2bp, {"p.c", "e.txt", "-j", "4294967297"}, PC),
            2);
  // INT_MAX itself is accepted.
  PipelineArgs PD;
  EXPECT_EQ(parse(ToolKind::Slam, {"p.c", "--max-iters", "2147483647"}, PD),
            std::nullopt);
  EXPECT_EQ(PD.Options.Cegar.MaxIterations, 2147483647);
}
