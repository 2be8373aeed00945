//===- ParallelForTest.cpp - The shared-index parallel loop --------------------===//

#include "support/ParallelFor.h"

#include "support/Stats.h"

#include <algorithm>
#include <atomic>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

using namespace slam;

namespace {

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  for (unsigned N : {1u, 2u, 4u})
    for (size_t Tasks : {size_t(1), size_t(1000)}) {
      std::vector<std::atomic<int>> Ran(Tasks);
      parallelFor(N, Tasks, [&Ran](unsigned, size_t I) { Ran[I]++; });
      for (size_t I = 0; I != Tasks; ++I)
        EXPECT_EQ(Ran[I].load(), 1)
            << "index " << I << ", " << N << " workers, " << Tasks
            << " tasks";
    }
}

TEST(ParallelForTest, NoTasksReturnsWithoutRunningTheBody) {
  for (unsigned N : {1u, 2u, 4u}) {
    std::atomic<int> Ran{0};
    parallelFor(N, 0, [&Ran](unsigned, size_t) { Ran++; });
    EXPECT_EQ(Ran.load(), 0) << N << " workers";
    EXPECT_EQ(currentWorkerId(), -1) << N << " workers";
  }
}

TEST(ParallelForTest, WorkerIdsAreInRange) {
  EXPECT_EQ(currentWorkerId(), -1); // Outside any loop.
  for (unsigned N : {1u, 2u, 4u})
    for (size_t Tasks : {size_t(1), size_t(3), size_t(200)}) {
      unsigned Bound = static_cast<unsigned>(std::min<size_t>(N, Tasks));
      std::vector<int> Ids(Tasks, -2);
      parallelFor(N, Tasks, [&Ids, Bound](unsigned W, size_t I) {
        EXPECT_LT(W, Bound);
        EXPECT_EQ(currentWorkerId(), static_cast<int>(W));
        Ids[I] = currentWorkerId();
      });
      for (size_t I = 0; I != Tasks; ++I) {
        EXPECT_GE(Ids[I], 0) << "index " << I;
        EXPECT_LT(Ids[I], static_cast<int>(Bound)) << "index " << I;
      }
    }
  EXPECT_EQ(currentWorkerId(), -1); // Restored after the loop.
}

TEST(ParallelForTest, OneWorkerRunsOnCallingThreadInOrder) {
  std::thread::id Caller = std::this_thread::get_id();
  std::vector<size_t> Order;
  parallelFor(1, 100, [&](unsigned W, size_t I) {
    EXPECT_EQ(W, 0u);
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    Order.push_back(I);
  });
  ASSERT_EQ(Order.size(), 100u);
  for (size_t I = 0; I != Order.size(); ++I)
    EXPECT_EQ(Order[I], I);
}

// The per-worker pattern C2bp uses: each worker accumulates into its
// own registry, merged after the loop returns.
TEST(ParallelForTest, PerWorkerStatsMergeLosslessly) {
  std::vector<StatsRegistry> PerWorker(4);
  constexpr size_t N = 400;
  parallelFor(4, N,
              [&PerWorker](unsigned W, size_t) { PerWorker[W].add("tasks"); });
  StatsRegistry Total;
  for (const StatsRegistry &R : PerWorker)
    Total.mergeFrom(R);
  EXPECT_EQ(Total.get("tasks"), static_cast<uint64_t>(N));
}

// StatsRegistry itself is thread-safe for concurrent add()s.
TEST(ParallelForTest, SharedStatsRegistrySurvivesConcurrentAdds) {
  StatsRegistry Shared;
  constexpr size_t N = 2000;
  parallelFor(4, N, [&Shared](unsigned, size_t) { Shared.add("hits"); });
  EXPECT_EQ(Shared.get("hits"), static_cast<uint64_t>(N));
}

} // namespace
