//===- ParallelFor.cpp - One shared-index parallel loop -----------------------===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "support/ParallelFor.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

using namespace slam;

namespace {
/// Worker id of the calling thread; -1 outside a loop. Thread-local
/// rather than a map so currentWorkerId() is a plain load.
thread_local int CurrentWorker = -1;
} // namespace

int slam::currentWorkerId() { return CurrentWorker; }

unsigned slam::defaultConcurrency() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

void slam::parallelFor(unsigned NumWorkers, size_t NumTasks,
                       const std::function<void(unsigned, size_t)> &Body) {
  std::atomic<size_t> Next{0};
  auto Participate = [&](unsigned W) {
    CurrentWorker = static_cast<int>(W);
    for (size_t I = Next++; I < NumTasks; I = Next++)
      Body(W, I);
    CurrentWorker = -1;
  };
  // jthreads join on destruction, so the loop cannot return (or unwind)
  // while a worker still runs a body.
  std::vector<std::jthread> Threads;
  for (unsigned W = 1; W < std::min<size_t>(NumWorkers, NumTasks); ++W)
    Threads.emplace_back(Participate, W);
  Participate(0);
}
