//===- PipelineFlags.h - The one command-line parser ------------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line parsing for all three drivers, in one place. Each main
/// is a single call:
///
///     tools::PipelineArgs PA;
///     if (auto Exit = tools::parsePipelineFlags(ToolKind::Slam, argc,
///                                               argv, PA))
///       return *Exit;
///
/// and gets back a fully-populated slamtool::PipelineOptions plus the
/// positional inputs. Shared flags (observability, cube search,
/// workers) are therefore spelled, validated, and
/// documented identically across tools, and `--help` / unknown-option
/// behavior cannot drift: every tool prints its usage to stdout on
/// --help (exit 0) and a one-line "unknown option ... (try --help)" to
/// stderr otherwise (exit 2).
///
/// ObservabilityFlags then turns the parsed observability options into
/// effect: it installs the global trace recorder before the pipeline
/// runs, and writes the requested trace/stats files afterwards. Each main calls install() before the
/// pipeline and finish() once it has its final StatsRegistry.
///
//===----------------------------------------------------------------------===//

#ifndef TOOLS_PIPELINEFLAGS_H
#define TOOLS_PIPELINEFLAGS_H

#include "slam/Pipeline.h"
#include "slam/SafetySpec.h"
#include "support/CliArgs.h"
#include "support/ParallelFor.h"
#include "support/Stats.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace slam {
namespace tools {

enum class ToolKind { Slam, C2bp, Bebop };

inline const char *toolName(ToolKind T) {
  switch (T) {
  case ToolKind::Slam:
    return "slam";
  case ToolKind::C2bp:
    return "c2bp";
  case ToolKind::Bebop:
    return "bebop";
  }
  return "?";
}

/// Everything a driver main needs from its command line.
struct PipelineArgs {
  slamtool::PipelineOptions Options;
  /// Positional arguments, in order (each tool's expected count is
  /// enforced by the parser).
  std::vector<std::string> Inputs;
  /// slam only: a --lock/--irp property was given.
  bool HaveSpec = false;
  slamtool::SafetySpec Spec;
};

inline void printHelp(ToolKind Tool) {
  static const char *Common =
      "  --trace-out <file>      write a Chrome trace-event JSON file\n"
      "  --stats-json <file>     write the statistics registry as JSON\n"
      "  --report                print the per-tool statistics report\n"
      "  --help, -h              print this help and exit\n";
  switch (Tool) {
  case ToolKind::Slam:
    std::printf(
        "usage: slam <program.c> [options]\n\n"
        "Runs the full abstract-check-refine loop on a C program.\n"
        "Without a property option, the program's own assert statements\n"
        "are checked (starting from an empty predicate set).\n\n"
        "  --lock <acq>,<rel>      check the locking discipline on the two\n"
        "                          named interface functions\n"
        "  --irp <complete>,<pend> check the IRP completion discipline\n"
        "  --entry <proc>          entry procedure (default: main)\n"
        "  --max-iters <n>         refinement cap (default: 24)\n"
        "  -k <n>                  cube length limit (default: 3)\n"
        "  -j <n>                  worker threads per abstraction pass\n"
        "                          (default: 1; 0 = one per hardware "
        "thread)\n"
        "%s",
        Common);
    return;
  case ToolKind::C2bp:
    std::printf(
        "usage: c2bp <program.c> <predicates.txt> [options]\n\n"
        "Writes the boolean program BP(P, E) to stdout.\n\n"
        "  -k <n>                  maximum cube length (default: "
        "unlimited)\n"
        "  -j <n>                  worker threads for the cube searches\n"
        "                          (default: 1; 0 = one per hardware\n"
        "                          thread); output is identical for every "
        "-j\n"
        "  --no-enforce            do not emit the enforce data invariant\n"
        "  --no-alias              use the syntactic alias oracle only\n"
        "%s",
        Common);
    return;
  case ToolKind::Bebop:
    std::printf(
        "usage: bebop <program.bp> [options]\n\n"
        "Model-checks a boolean program.\n\n"
        "  --entry <proc>          entry procedure (default: main)\n"
        "  --invariant <proc> <lbl>\n"
        "                          print the reachable-state invariant at\n"
        "                          a labeled statement\n"
        "  --trace                 print the counterexample trace on "
        "failure\n"
        "%s",
        Common);
    return;
  }
}

/// Parses \p Argv into \p Out. Returns an exit code when the process
/// should stop here (0 for --help, 2 for a usage error), nullopt to
/// proceed.
inline std::optional<int> parsePipelineFlags(ToolKind Tool, int Argc,
                                             char **Argv,
                                             PipelineArgs &Out) {
  const char *Name = toolName(Tool);
  slamtool::PipelineOptions &O = Out.Options;
  if (Tool == ToolKind::Slam)
    O.C2bp.Cubes.MaxCubeLength = 3; // The paper's k=3 default end to end.

  int I = 1;
  // Fetches the (single) value of the flag currently at Argv[I].
  auto Value = [&](const char *Flag) -> const char * {
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "%s: %s requires a value\n", Name, Flag);
      return nullptr;
    }
    return Argv[++I];
  };
  auto SplitPair = [](const char *Arg, std::string &A, std::string &B) {
    const char *Comma = std::strchr(Arg, ',');
    if (!Comma)
      return false;
    A.assign(Arg, Comma);
    B.assign(Comma + 1);
    return !A.empty() && !B.empty();
  };

  for (; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (Arg[0] != '-' || !Arg[1]) {
      Out.Inputs.push_back(Arg);
      continue;
    }
    // -- Flags every tool accepts ------------------------------------
    if (!std::strcmp(Arg, "--help") || !std::strcmp(Arg, "-h")) {
      printHelp(Tool);
      return 0;
    }
    if (!std::strcmp(Arg, "--trace-out")) {
      const char *V = Value(Arg);
      if (!V)
        return 2;
      O.Obs.TraceOutPath = V;
      continue;
    }
    if (!std::strcmp(Arg, "--stats-json")) {
      const char *V = Value(Arg);
      if (!V)
        return 2;
      O.Obs.StatsJsonPath = V;
      continue;
    }
    if (!std::strcmp(Arg, "--report")) {
      O.Obs.Report = true;
      continue;
    }

    // -- slam + c2bp: abstraction knobs ------------------------------
    if (Tool != ToolKind::Bebop) {
      if (!std::strcmp(Arg, "-k")) {
        const char *V = Value(Arg);
        if (!V || !cli::intArg(Name, "-k", V, 0, O.C2bp.Cubes.MaxCubeLength))
          return 2;
        continue;
      }
      if (!std::strcmp(Arg, "-j")) {
        const char *V = Value(Arg);
        if (!V || !cli::intArg(Name, "-j", V, 0, O.C2bp.NumWorkers))
          return 2;
        if (O.C2bp.NumWorkers == 0) // One worker per hardware thread.
          O.C2bp.NumWorkers = static_cast<int>(defaultConcurrency());
        continue;
      }
    }

    // -- slam only ---------------------------------------------------
    if (Tool == ToolKind::Slam) {
      if (!std::strcmp(Arg, "--lock") || !std::strcmp(Arg, "--irp")) {
        bool Lock = Arg[2] == 'l';
        const char *V = Value(Arg);
        std::string A, B;
        if (!V || !SplitPair(V, A, B)) {
          std::fprintf(stderr, "%s: %s expects '<name>,<name>'\n", Name,
                       Arg);
          return 2;
        }
        Out.Spec = Lock ? slamtool::SafetySpec::lockDiscipline(A, B)
                        : slamtool::SafetySpec::irpDiscipline(A, B);
        Out.HaveSpec = true;
        continue;
      }
      if (!std::strcmp(Arg, "--entry")) {
        const char *V = Value(Arg);
        if (!V)
          return 2;
        O.Cegar.EntryProc = V;
        continue;
      }
      if (!std::strcmp(Arg, "--max-iters")) {
        const char *V = Value(Arg);
        if (!V || !cli::intArg(Name, "--max-iters", V, 1,
                               O.Cegar.MaxIterations))
          return 2;
        continue;
      }
    }

    // -- c2bp only ---------------------------------------------------
    if (Tool == ToolKind::C2bp) {
      if (!std::strcmp(Arg, "--no-enforce")) {
        O.C2bp.UseEnforce = false;
        continue;
      }
      if (!std::strcmp(Arg, "--no-alias")) {
        O.C2bp.UseAliasAnalysis = false;
        continue;
      }
    }

    // -- bebop only --------------------------------------------------
    if (Tool == ToolKind::Bebop) {
      if (!std::strcmp(Arg, "--entry")) {
        const char *V = Value(Arg);
        if (!V)
          return 2;
        O.Bebop.EntryProc = V;
        continue;
      }
      if (!std::strcmp(Arg, "--invariant")) {
        if (I + 2 >= Argc) {
          std::fprintf(stderr, "%s: --invariant expects <proc> <label>\n",
                       Name);
          return 2;
        }
        O.Bebop.InvariantProc = Argv[++I];
        O.Bebop.InvariantLabel = Argv[++I];
        continue;
      }
      if (!std::strcmp(Arg, "--trace")) {
        O.Bebop.PrintTrace = true;
        continue;
      }
    }

    std::fprintf(stderr, "%s: unknown option '%s' (try --help)\n", Name,
                 Arg);
    return 2;
  }

  size_t Want = Tool == ToolKind::C2bp ? 2 : 1;
  if (Out.Inputs.size() != Want) {
    const char *What = Tool == ToolKind::C2bp
                           ? "<program.c> <predicates.txt>"
                           : (Tool == ToolKind::Slam ? "<program.c>"
                                                     : "<program.bp>");
    std::fprintf(stderr, "usage: %s %s [options] (try --help)\n", Name,
                 What);
    return 2;
  }
  return std::nullopt;
}

/// Puts one tool run's ObservabilityOptions into effect (see the file
/// comment); one implementation so the three mains cannot drift apart.
class ObservabilityFlags {
public:
  explicit ObservabilityFlags(const slamtool::ObservabilityOptions &Opts)
      : Opts(Opts) {}

  /// Installs the trace recorder. Call after flag parsing, before any
  /// pipeline work.
  void install() {
    if (Opts.TraceOutPath.empty())
      return;
    Recorder = std::make_unique<TraceRecorder>();
    TraceRecorder::setActive(Recorder.get());
  }

  bool wantReport() const { return Opts.Report; }

  /// Uninstalls the recorder and writes the requested files. Returns
  /// false (after a message on stderr) if any file cannot be written.
  bool finish(const char *Tool, const StatsRegistry &Stats) {
    bool Ok = true;
    if (Recorder) {
      TraceRecorder::setActive(nullptr);
      std::string Err;
      if (!Recorder->writeChromeJson(Opts.TraceOutPath, &Err)) {
        std::fprintf(stderr, "%s: cannot write trace '%s': %s\n", Tool,
                     Opts.TraceOutPath.c_str(), Err.c_str());
        Ok = false;
      }
    }
    if (!Opts.StatsJsonPath.empty()) {
      std::string Doc = statsToJson(Stats);
      std::FILE *F = std::fopen(Opts.StatsJsonPath.c_str(), "w");
      if (!F || std::fwrite(Doc.data(), 1, Doc.size(), F) != Doc.size()) {
        std::fprintf(stderr, "%s: cannot write stats '%s'\n", Tool,
                     Opts.StatsJsonPath.c_str());
        Ok = false;
      }
      if (F)
        std::fclose(F);
    }
    return Ok;
  }

  /// Compact report used by the c2bp/bebop drivers (slam prints the
  /// CEGAR flight recorder instead): counters/gauges, then one summary
  /// line per latency histogram.
  static void printStatsReport(std::FILE *Out, const StatsRegistry &Stats) {
    std::fprintf(Out, "-- stats --\n%s", Stats.str().c_str());
    for (const auto &[Name, H] : Stats.allHistograms()) {
      if (H.count() == 0)
        continue;
      std::fprintf(Out,
                   "%s: count=%llu mean_us=%.1f max_us=%llu\n", Name.c_str(),
                   static_cast<unsigned long long>(H.count()),
                   static_cast<double>(H.sumMicros()) /
                       static_cast<double>(H.count()),
                   static_cast<unsigned long long>(H.maxMicros()));
    }
  }

private:
  slamtool::ObservabilityOptions Opts;
  std::unique_ptr<TraceRecorder> Recorder;
};

} // namespace tools
} // namespace slam

#endif // TOOLS_PIPELINEFLAGS_H
