// Parallel sweep engine: every (routing x load) point of a figure is an
// independent simulation, so they fan out across a std::thread pool. Results
// come back in input order regardless of scheduling.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "engine/experiment.hpp"
#include "sim/config.hpp"

namespace dfsim {

struct SweepPoint {
  SimParams params;
  SteadyOptions options;
};

/// Runs job(i) for every i in [0, n) on `threads` workers (<= 1: inline)
/// that take indices in ascending order. A job that throws stops the
/// hand-out of further indices; after the join, the exception of the
/// lowest failing index is rethrown. Every index below a handed-out one was
/// handed out too, so which exception surfaces does not depend on the
/// worker count or timing.
void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& job);

/// Worker count: explicit argument > $DFSIM_THREADS > hardware concurrency,
/// clamped to the number of points. A point that throws (an invalid
/// configuration) stops the sweep; its exception reaches the caller.
[[nodiscard]] std::vector<SteadyResult> run_sweep(
    const std::vector<SweepPoint>& points, int threads = 0);

}  // namespace dfsim
