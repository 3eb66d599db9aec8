// Execution helpers for registered experiments: a RunContext carrying the
// scale preset + cycle budget + user overrides, and panel executors that
// fan (series x x-tick) steady grids through engine/sweep and transient
// series through engine/experiment, returning schema Panels with every
// SteadyResult metric captured.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "engine/experiment.hpp"
#include "report/schema.hpp"
#include "sim/config.hpp"

namespace dfsim::report {

/// Everything a registered experiment needs to run: the scale's base
/// parameters (with any --config/--set/--traffic overrides already applied)
/// plus measurement windows and optional user overrides of the x-grid and
/// the mechanism line-up.
struct RunContext {
  SimParams base;
  std::string scale = "medium";
  SteadyOptions options;  // warmup/measure; reps = steady-state default
  int threads = 0;
  /// --loads override (steady load sweeps honor it; other x-axes ignore it).
  std::optional<std::vector<double>> loads;
  /// --routings override of a figure's mechanism line-up.
  std::optional<std::vector<RoutingKind>> lineup;
  /// --reps override; transients otherwise use their own (higher) defaults.
  std::optional<std::int32_t> reps;
  /// --with-ugal appends the UGAL-L/UGAL-G extra baselines that the line-up
  /// in effect (default or --routings) does not already hold.
  bool with_ugal = false;
  /// --traffic/--trace/--adv-offset were given: figure-mandated patterns
  /// must not clobber them (same contract as the old bench default_traffic).
  bool traffic_forced = false;
  bool adv_offset_forced = false;
  /// Explicit workload knobs (CLI flags) that experiment-specific defaults
  /// (e.g. ablation_workloads' shift/hotspot sizing) must not override.
  bool injection_forced = false;
  bool shift_offset_forced = false;
  bool hotspot_count_forced = false;
  bool hotspot_fraction_forced = false;

  [[nodiscard]] std::vector<double> loads_or(
      const std::vector<double>& defaults) const {
    return loads && !loads->empty() ? *loads : defaults;
  }
  [[nodiscard]] std::vector<RoutingKind> lineup_or(
      const std::vector<RoutingKind>& defaults) const {
    std::vector<RoutingKind> result =
        lineup && !lineup->empty() ? *lineup : defaults;
    for (const RoutingKind kind : {RoutingKind::kUgalL, RoutingKind::kUgalG}) {
      if (with_ugal && std::find(result.begin(), result.end(), kind) ==
                           result.end()) {
        result.push_back(kind);
      }
    }
    return result;
  }
  [[nodiscard]] std::int32_t reps_or(std::int32_t fallback) const {
    return reps ? *reps : fallback;
  }
  /// Applies a figure's default pattern unless the user forced one.
  void default_traffic(TrafficKind kind, std::int32_t adv_offset = 1) {
    if (!traffic_forced) base.traffic.kind = kind;
    if (!adv_offset_forced) base.traffic.adv_offset = adv_offset;
  }
};

/// One line of a grid panel (a routing mechanism, a threshold variant, ...).
struct GridSeries {
  std::string label;
  std::function<void(SimParams&)> mutate;  // applied after the x mutation
};

/// One x tick of a grid panel.
struct GridTick {
  std::string label;
  double value = 0.0;  // NaN for categorical axes
  std::function<void(SimParams&)> mutate;
};

/// Runs the full (tick x series) matrix as one parallel sweep and captures
/// every SteadyResult metric.
[[nodiscard]] Panel run_grid_panel(const std::string& name,
                                   const std::string& x_label,
                                   const SimParams& base,
                                   const std::vector<GridTick>& ticks,
                                   const std::vector<GridSeries>& series,
                                   const SteadyOptions& options, int threads);

/// Mechanisms-by-loads grid, the shape most figures share.
[[nodiscard]] Panel run_load_grid(const std::string& name,
                                  const SimParams& base,
                                  const std::vector<RoutingKind>& mechanisms,
                                  const std::vector<double>& loads,
                                  const SteadyOptions& options, int threads);

/// Ticks helper: loads formatted at `precision` decimals.
[[nodiscard]] std::vector<GridTick> load_ticks(const std::vector<double>& loads,
                                               int precision = 2);
/// Series helper: one GridSeries per routing mechanism.
[[nodiscard]] std::vector<GridSeries> mechanism_series(
    const std::vector<RoutingKind>& mechanisms);

/// One line of a transient panel.
struct TransientSeries {
  std::string label;
  SimParams params;
};

/// Runs every (series, rep) pair as one job on a pool of
/// pool_threads(threads, jobs) workers, merging each rep into its series as
/// it finishes, and samples latency/misrouted_pct at `step`-spaced cycles
/// with a `window`-cycle smoothing window, as the paper's transient figures
/// do.
[[nodiscard]] Panel run_transient_panel(
    const std::string& name, const std::vector<TransientSeries>& series,
    const TransientOptions& options, Cycle step, Cycle window, int threads);

/// Formats a double with fixed decimals (tick labels, notes).
[[nodiscard]] std::string format_fixed(double v, int precision);

/// Human label of a TrafficParams ("ADV+1", "HOTSPOT(n=8,f=0.50)+bursty").
[[nodiscard]] std::string traffic_label(const TrafficParams& traffic);

}  // namespace dfsim::report
