// Execution helpers for registered experiments: a RunContext carrying the
// scale preset + cycle budget + user overrides, and panel executors that
// fan (series x x-tick) steady grids through engine/sweep and transient
// series through engine/experiment, returning schema Panels with every
// SteadyResult metric captured.
#pragma once

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "engine/experiment.hpp"
#include "report/schema.hpp"
#include "sim/config.hpp"
#include "sim/config_io.hpp"

namespace dfsim::report {

/// Everything a registered experiment needs to run: the scale's base
/// parameters (with the user's --config/--set assignments already applied)
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
  /// The config keys the user assigned (--config, --set). An experiment's
  /// default for a key never replaces the user's value.
  std::set<std::string> assigned;

  /// Applies one user assignment to `base` and records its key; a trace
  /// path also selects trace replay, so it records traffic.kind too.
  void assign(const std::string& key, const std::string& value) {
    apply_param(base, key, value);
    assigned.insert(key);
    if (key == "traffic.trace_path") assigned.insert("traffic.kind");
  }
  /// Sets `field`, the field of config `key`, to an experiment's default
  /// unless the user assigned the key.
  template <typename T>
  void default_key(const char* key, T& field, T value) const {
    if (!assigned.contains(key)) field = value;
  }
  [[nodiscard]] std::vector<double> loads_or(
      const std::vector<double>& defaults) const {
    return loads && !loads->empty() ? *loads : defaults;
  }
  [[nodiscard]] std::vector<RoutingKind> lineup_or(
      const std::vector<RoutingKind>& defaults) const {
    return lineup && !lineup->empty() ? *lineup : defaults;
  }
  [[nodiscard]] std::int32_t reps_or(std::int32_t fallback) const {
    return reps ? *reps : fallback;
  }
  /// Applies a figure's default pattern to the keys the user left alone.
  void default_traffic(TrafficKind kind, std::int32_t adv_offset = 1) {
    default_key("traffic.kind", base.traffic.kind, kind);
    default_key("traffic.adv_offset", base.traffic.adv_offset, adv_offset);
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
