//===- ParallelFor.h - One shared-index parallel loop -----------*- C++ -*-===//
//
// Part of the SLAM/C2bp reproduction. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The toolkit's one parallel construct: a loop over a fixed index
/// range whose iterations are independent. C2bp plans one flat vector
/// of transfer-function tasks and runs it through this loop.
///
/// The calling thread is worker 0; the loop spawns one thread per
/// further worker, and every participant claims the next unclaimed
/// index from one shared atomic counter until the range is exhausted.
/// Indices are therefore claimed in order, and with one worker the loop
/// is a plain sequential loop on the calling thread. The body's result
/// must not depend on which worker runs it; the worker id only selects
/// per-worker state (a private prover, a statistics registry) that the
/// caller merges once the loop has returned.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_PARALLELFOR_H
#define SUPPORT_PARALLELFOR_H

#include <cstddef>
#include <functional>

namespace slam {

/// Calls \p Body(W, I) exactly once for every I in [0, NumTasks), on
/// the calling thread (worker 0) and min(NumWorkers, NumTasks) - 1
/// spawned threads (workers 1, 2, ...). Returns once every call has
/// finished.
/// \p Body must not throw: like any thread entry, a spawned worker that
/// lets an exception escape ends the program.
void parallelFor(unsigned NumWorkers, size_t NumTasks,
                 const std::function<void(unsigned, size_t)> &Body);

/// Id of the parallelFor worker the calling thread currently is, or -1
/// outside any loop. Trace spans use it to pick their lane.
int currentWorkerId();

/// One worker per hardware thread (at least one); what `-j 0` means.
unsigned defaultConcurrency();

} // namespace slam

#endif // SUPPORT_PARALLELFOR_H
