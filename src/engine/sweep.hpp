// Parallel sweep engine: every (routing x load) point of a figure is an
// independent simulation, so they fan out across a std::thread pool. Points
// are handed out heaviest first (descending load); results come back in
// input order regardless of scheduling.
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

/// Pool size for `jobs` independent jobs: explicit `threads` (> 0) >
/// $DFSIM_THREADS > hardware concurrency, clamped to [1, jobs].
[[nodiscard]] int pool_threads(int threads, std::size_t jobs);

/// Runs every point on pool_threads(threads, points.size()) workers. Points
/// are handed out in descending traffic.load (input order among equal
/// loads), so the saturated, slowest points start first and the light ones
/// fill in behind them. A point that throws (an invalid configuration)
/// stops the sweep; the exception of the first failing point in that
/// hand-out order reaches the caller.
[[nodiscard]] std::vector<SteadyResult> run_sweep(
    const std::vector<SweepPoint>& points, int threads = 0);

}  // namespace dfsim
