//===- DriverGoldenTest.cpp - Driver boolean programs pinned to files -----===//
//
// The Table 1 driver models and dispatch8 end their CEGAR loops at the
// predicate sets newton_golden/ pins. Each test here abstracts the
// instrumented model once more at that final set (k = 3, the slam
// tool's default) and compares the boolean program byte for byte with
// driver_golden/<model>.k3.bp, at -j 1 and -j 4. Every driver's
// enforce invariant and every cone the search restricts to shows up in
// these files, so a change to the cube search's pruning that the
// verdicts and predicate sets do not reveal still fails here. On a
// mismatch the actual text is written to <model>.k3.bp.actual in the
// working directory.
//
//===----------------------------------------------------------------------===//

#include "workloads/Workloads.h"

#include "c2bp/C2bp.h"
#include "cfront/Normalize.h"
#include "cfront/Parser.h"
#include "cfront/Sema.h"
#include "slam/Cegar.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace slam;
using namespace slam::workloads;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// \p M woven with its specification and normalized, as checkSafety
/// prepares it.
std::unique_ptr<cfront::Program> instrumented(const DriverModel &M,
                                              DiagnosticEngine &Diags) {
  auto P = cfront::parseProgram(M.Source, Diags);
  if (!P || !cfront::analyze(*P, Diags) ||
      !slamtool::instrument(*P, M.Spec, "main", Diags) ||
      !cfront::normalize(*P, Diags) || !cfront::analyze(*P, Diags))
    return nullptr;
  return P;
}

/// The SLAM loop on \p M at -j \p Workers, then one abstraction of the
/// instrumented model at the loop's final predicates.
void expectDriverGolden(const DriverModel &M, int Workers) {
  SCOPED_TRACE(M.Name + " at -j " + std::to_string(Workers));
  logic::LogicContext Ctx;
  DiagnosticEngine Diags;
  slamtool::PipelineOptions Options;
  Options.C2bp.Cubes.MaxCubeLength = 3;
  Options.C2bp.NumWorkers = Workers;
  auto R = slamtool::checkSafety(M.Source, M.Spec, Ctx, Diags, Options);
  ASSERT_TRUE(R.has_value()) << Diags.str();
  auto P = instrumented(M, Diags);
  ASSERT_TRUE(P != nullptr) << Diags.str();
  auto BP = c2bp::abstractProgram(*P, R->Predicates, Ctx, Options.C2bp);
  ASSERT_TRUE(BP != nullptr);
  std::string Actual = BP->str();
  std::string File = M.Name + ".k3.bp";
  std::string Golden = readFile(SLAM_DRIVER_GOLDEN_DIR "/" + File);
  if (Golden != Actual)
    std::ofstream(File + ".actual") << Actual;
  EXPECT_EQ(Golden, Actual) << "differs from driver_golden/" << File;
}

TEST(DriverGolden, Table1Drivers) {
  for (const DriverModel &M : table1Drivers())
    for (int Workers : {1, 4})
      expectDriverGolden(M, Workers);
}

TEST(DriverGolden, Dispatch8) {
  DriverConfig C;
  C.Name = "dispatch8";
  C.NumDispatch = 8;
  DriverModel M = generateDriver(C);
  for (int Workers : {1, 4})
    expectDriverGolden(M, Workers);
}

} // namespace
