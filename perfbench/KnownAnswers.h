//===- KnownAnswers.h - The benchmark's verdict oracle ----------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The answer every benchmark program must reach. A run whose verdict
/// or iteration count differs from its row here counts as failed, as
/// does an `unknown` verdict or a front-end error. The generated driver
/// models converge in NumDispatch + 1 iterations whatever the seed (one
/// spurious trace refuted per dispatch routine), so these rows hold for
/// every `--seed`.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_KNOWNANSWERS_H
#define PERFBENCH_KNOWNANSWERS_H

namespace perfbench {

struct KnownAnswer {
  const char *Program;
  /// "validated" / "BUG FOUND" for the SLAM loop; "violated" /
  /// "not violated" for a single C2bp + Bebop check.
  const char *Verdict;
  /// CEGAR iterations to the verdict (1 for a single abstraction).
  int Iterations;
};

inline constexpr KnownAnswer KnownAnswers[] = {
    // Table 1 driver models through the SLAM loop (k = 3).
    {"floppy", "BUG FOUND", 11},
    {"ioctl", "validated", 4},
    {"openclos", "validated", 5},
    {"srdriver", "validated", 10},
    {"log", "validated", 6},
    // Generated models; `--seed` sets their DriverConfig::Seed.
    {"dispatch32", "validated", 33},
    {"dispatch64", "validated", 65},
    // Table 2 programs through C2bp + Bebop (k = 3).
    {"kmp", "not violated", 1},
    {"qsort", "not violated", 1},
    {"partition", "not violated", 1},
    {"listfind", "not violated", 1},
    {"reverse", "violated", 1},
};

} // namespace perfbench

#endif // PERFBENCH_KNOWNANSWERS_H
