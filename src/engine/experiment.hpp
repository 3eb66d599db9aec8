// Steady-state and transient experiment drivers over the Simulator, plus the
// result structs every figure bench consumes.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "engine/simulator.hpp"
#include "sim/config.hpp"
#include "util/types.hpp"

namespace dfsim {

struct SteadyOptions {
  Cycle warmup = 2000;
  Cycle measure = 3000;
  std::int32_t reps = 1;
  /// Optional progress heartbeat, invoked after every watchdog chunk (50000
  /// cycles, see experiment.cpp) with the sim's current cycle, lifetime
  /// deliveries, and wall seconds elapsed in the current guarded run. Purely
  /// observational — results are bit-exact with and without it. Null
  /// disables.
  std::function<void(Cycle, std::int64_t, double)> heartbeat;
};

struct SteadyResult {
  double latency_avg = 0.0;           // cycles, delivered packets
  // Tail latency from the log2-bucketed histogram (util/histogram.hpp) —
  // mean-only latency hides the tails skewed/bursty workloads create.
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double throughput = 0.0;            // accepted phits/node/cycle
  double misrouted_fraction = 0.0;    // globally misrouted share
  double local_misrouted_fraction = 0.0;
  double minimal_path_fraction = 0.0; // delivered fully minimal
  double backlog_per_node = 0.0;      // injection-queue packets per node
  double generated_load = 0.0;        // offered load actually generated
  /// Average count of delivered packets whose latency fell at or beyond the
  /// histogram's tracked range (LatencyHistogram::overflow) — nonzero means
  /// the p50/p95/p99 columns are saturated lower bounds, not estimates.
  double latency_overflow = 0.0;
  // Fault-overlay columns (all 0 for healthy runs).
  double dropped_pct = 0.0;        // in-flight losses, % of accepted packets
  double undeliverable_pct = 0.0;  // hop-cap drops, % of accepted packets
  double dead_traversals = 0.0;    // departures onto down links (must be 0)
  double conservation_error = 0.0; // unaccounted packets (must be 0)
  double timed_out = 0.0;          // share of reps stopped by the watchdog
};

/// Throws std::invalid_argument unless `reps` >= 1.
void check_reps(std::int32_t reps);

/// Runs warmup + measurement (averaged over `reps` seeds).
[[nodiscard]] SteadyResult run_steady(const SimParams& params,
                                      const SteadyOptions& options);

// ---------------------------------------------------------------------------
// Transient experiments (Figures 7-9): traffic switches `before` -> `after`
// at t=0; deliveries are bucketed by *birth* cycle relative to the switch.

struct TransientOptions {
  TrafficParams before;
  TrafficParams after;
  Cycle warmup = 2000;
  Cycle pre = 50;    // observed cycles before the switch
  Cycle post = 250;  // observed cycles after the switch
  std::int32_t reps = 1;
  /// Progress heartbeat (see SteadyOptions::heartbeat).
  std::function<void(Cycle, std::int64_t, double)> heartbeat;
};

class TransientResult {
 public:
  TransientResult(Cycle pre, Cycle post);

  /// Mean latency of packets born in [t - window/2, t + window/2).
  [[nodiscard]] double latency_at(Cycle t, Cycle window) const;
  /// p99 latency of packets born in the same window, read from per-interval
  /// log2-bucketed histograms — the transient tail spike around a traffic
  /// switch is much larger than the mean spike and invisible without it.
  [[nodiscard]] double latency_p99_at(Cycle t, Cycle window) const;
  /// Percentage of globally misrouted packets born in the same window.
  [[nodiscard]] double misrouted_pct_at(Cycle t, Cycle window) const;

  void record(Cycle birth_rel, Cycle latency, bool misrouted);
  /// Adds `other`'s records (same pre/post). Every merged value is a count
  /// or a sum of whole-number latencies, so any merge order gives the same
  /// bits as recording one rep after another.
  void merge(const TransientResult& other);

  friend bool operator==(const TransientResult&,
                         const TransientResult&) = default;

  [[nodiscard]] Cycle pre() const { return pre_; }
  [[nodiscard]] Cycle post() const { return post_; }

  /// True when any rep was stopped early by the no-progress watchdog.
  [[nodiscard]] bool timed_out() const { return timed_out_; }
  void mark_timed_out() { timed_out_ = true; }

 private:
  [[nodiscard]] std::size_t index(Cycle t) const {
    return static_cast<std::size_t>(t + pre_);
  }

  Cycle pre_;
  Cycle post_;
  bool timed_out_ = false;
  std::vector<std::int64_t> count_;
  std::vector<std::int64_t> misrouted_;
  std::vector<double> latency_sum_;
  std::vector<LatencyHistogram> hist_;  // per birth-cycle bucket
};

/// Birth cycles [lo, hi) whose deliveries a transient rep logs, for a
/// warmup ending at cycle `start`. The switch lands in [start, start + pre]
/// (earlier than start + pre only when the watchdog stops the pre run), so
/// the window holds [switch - pre, switch + post), every birth
/// TransientResult::record keeps.
struct BirthWindow {
  Cycle lo = 0;
  Cycle hi = 0;
};
[[nodiscard]] BirthWindow transient_birth_window(Cycle start, Cycle pre,
                                                 Cycle post);

/// Cycles a transient simulates past `post`, at most, so late-born packets
/// still deliver into their birth buckets.
inline constexpr Cycle kTransientDrain = 2000;
/// Drain step: the log's record count is checked between steps, so a rep
/// overshoots its last window-born delivery by under this many cycles.
inline constexpr Cycle kDrainChunk = 50;

/// How one transient rep ran (drive_transient).
struct TransientRun {
  Cycle switch_cycle = 0;
  bool timed_out = false;  // the watchdog stopped it
};

/// One transient rep on a fresh simulator running `options.before`: warmup,
/// `pre` cycles, the switch to `options.after`, `post` cycles and the drain.
/// The delivery log opens at the window's first birth (warmup end - pre),
/// and the accepted injections (generated - refused) are read at both ends
/// of the window, so the drain runs only until the log holds one record
/// per packet born in the window: nothing later adds a record. When drops
/// keep the log short of that count, it drains the full kTransientDrain.
/// Leaves the window's deliveries in sim.delivery_log().
[[nodiscard]] TransientRun drive_transient(Simulator& sim,
                                           const TransientOptions& options);

/// Rep `rep` of a transient (seed params.seed + rep * 7919).
[[nodiscard]] TransientResult run_transient_rep(const SimParams& params,
                                                const TransientOptions& options,
                                                std::int32_t rep);

/// Every rep, merged in rep order.
[[nodiscard]] TransientResult run_transient(const SimParams& params,
                                            const TransientOptions& options);

}  // namespace dfsim
