#include "report/runner.hpp"

#include <cstdio>
#include <mutex>
#include <utility>

#include "engine/sweep.hpp"

namespace dfsim::report {

namespace {

/// The standard steady-state metric set captured for every grid cell, one
/// row per metric: its name and the SteadyResult field it reads. Shares are
/// scaled to percentages (paper units). The fault-overlay rows from
/// dropped_pct on are exactly 0 for healthy runs; golden comparison iterates
/// the *golden's* metric list, so pre-fault goldens stay valid.
struct SteadyMetric {
  const char* name;
  double SteadyResult::*field;
  double scale = 1.0;
};
constexpr SteadyMetric kSteadyMetrics[] = {
    {"latency_avg", &SteadyResult::latency_avg},
    {"latency_p50", &SteadyResult::latency_p50},
    {"latency_p95", &SteadyResult::latency_p95},
    {"latency_p99", &SteadyResult::latency_p99},
    {"throughput", &SteadyResult::throughput},
    {"misrouted_pct", &SteadyResult::misrouted_fraction, 100.0},
    {"local_misrouted_pct", &SteadyResult::local_misrouted_fraction, 100.0},
    {"minpath_pct", &SteadyResult::minimal_path_fraction, 100.0},
    {"backlog_per_node", &SteadyResult::backlog_per_node},
    {"generated_load", &SteadyResult::generated_load},
    {"latency_overflow", &SteadyResult::latency_overflow},
    {"dropped_pct", &SteadyResult::dropped_pct},
    {"undeliverable_pct", &SteadyResult::undeliverable_pct},
    {"dead_traversals", &SteadyResult::dead_traversals},
    {"conservation_error", &SteadyResult::conservation_error},
    {"timed_out", &SteadyResult::timed_out},
};

}  // namespace

std::string format_fixed(double v, int precision) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

Panel run_grid_panel(const std::string& name, const std::string& x_label,
                     const SimParams& base, const std::vector<GridTick>& ticks,
                     const std::vector<GridSeries>& series,
                     const SteadyOptions& options, int threads) {
  std::vector<SweepPoint> points;
  points.reserve(ticks.size() * series.size());
  for (const GridTick& tick : ticks) {
    for (const GridSeries& line : series) {
      SweepPoint pt{base, options};
      if (tick.mutate) tick.mutate(pt.params);
      if (line.mutate) line.mutate(pt.params);
      points.push_back(std::move(pt));
    }
  }
  const std::vector<SteadyResult> results = run_sweep(points, threads);

  Panel panel;
  panel.name = name;
  panel.kind = Panel::Kind::kGrid;
  panel.x_label = x_label;
  for (const GridTick& tick : ticks) {
    panel.x_labels.push_back(tick.label);
    panel.x_values.push_back(tick.value);
  }
  for (const GridSeries& line : series) panel.series.push_back(line.label);

  for (const SteadyMetric& metric : kSteadyMetrics) {
    std::vector<std::vector<double>> rows(ticks.size());
    for (std::size_t xi = 0; xi < ticks.size(); ++xi) {
      for (std::size_t si = 0; si < series.size(); ++si) {
        const SteadyResult& r = results[xi * series.size() + si];
        rows[xi].push_back(metric.scale * (r.*metric.field));
      }
    }
    panel.metrics.emplace_back(metric.name, std::move(rows));
  }
  return panel;
}

std::vector<GridTick> load_ticks(const std::vector<double>& loads,
                                 int precision) {
  std::vector<GridTick> ticks;
  ticks.reserve(loads.size());
  for (const double load : loads) {
    ticks.push_back(GridTick{
        format_fixed(load, precision), load,
        [load](SimParams& p) { p.traffic.load = load; }});
  }
  return ticks;
}

std::vector<GridSeries> mechanism_series(
    const std::vector<RoutingKind>& mechanisms) {
  std::vector<GridSeries> series;
  series.reserve(mechanisms.size());
  for (const RoutingKind kind : mechanisms) {
    series.push_back(GridSeries{
        to_string(kind), [kind](SimParams& p) { p.routing.kind = kind; }});
  }
  return series;
}

Panel run_load_grid(const std::string& name, const SimParams& base,
                    const std::vector<RoutingKind>& mechanisms,
                    const std::vector<double>& loads,
                    const SteadyOptions& options, int threads) {
  return run_grid_panel(name, "load", base, load_ticks(loads),
                        mechanism_series(mechanisms), options, threads);
}

Panel run_transient_panel(const std::string& name,
                          const std::vector<TransientSeries>& series,
                          const TransientOptions& options, Cycle step,
                          Cycle window, int threads) {
  std::vector<TransientResult> results(series.size(),
                                       TransientResult(options.pre, options.post));
  // One job per (series, rep), series-major. A finished rep is merged into
  // its series at once, so a worker holds at most one rep's result; merged
  // values are counts and whole-number sums, so the order reps finish in
  // cannot change a bit.
  check_reps(options.reps);
  const auto reps = static_cast<std::size_t>(options.reps);
  const std::size_t jobs = series.size() * reps;
  std::mutex merge_mutex;
  parallel_for(jobs, pool_threads(threads, jobs), [&](std::size_t job) {
    const std::size_t si = job / reps;
    const TransientResult rep = run_transient_rep(
        series[si].params, options, static_cast<std::int32_t>(job % reps));
    const std::lock_guard<std::mutex> lock(merge_mutex);
    results[si].merge(rep);
  });

  Panel panel;
  panel.name = name;
  panel.kind = Panel::Kind::kTransient;
  panel.x_label = "cycle";
  for (const TransientSeries& line : series) {
    panel.series.push_back(line.label);
  }
  for (Cycle t = -options.pre; t < options.post; t += step) {
    panel.x_labels.push_back(std::to_string(t));
    panel.x_values.push_back(static_cast<double>(t));
  }
  // latency_p99 is schema-additive: golden comparison iterates the golden's
  // metric list, so transient goldens recorded before it stay valid.
  using Sample = double (TransientResult::*)(Cycle, Cycle) const;
  constexpr std::pair<const char*, Sample> kMetrics[] = {
      {"latency_avg", &TransientResult::latency_at},
      {"misrouted_pct", &TransientResult::misrouted_pct_at},
      {"latency_p99", &TransientResult::latency_p99_at}};
  for (const auto& [metric, sample] : kMetrics) {
    std::vector<std::vector<double>> rows;
    for (Cycle t = -options.pre; t < options.post; t += step) {
      std::vector<double>& row = rows.emplace_back();
      for (const TransientResult& r : results) {
        row.push_back((r.*sample)(t, window));
      }
    }
    panel.metrics.emplace_back(metric, std::move(rows));
  }
  return panel;
}

std::string traffic_label(const TrafficParams& traffic) {
  std::string label = to_string(traffic.kind);
  switch (traffic.kind) {
    case TrafficKind::kAdversarial:
      label += "+";
      label += std::to_string(traffic.adv_offset);
      break;
    case TrafficKind::kMixed:
      label += "(un=";
      label += format_fixed(traffic.mixed_uniform_fraction, 2);
      label += ")";
      break;
    case TrafficKind::kShift:
      label += "(";
      label += std::to_string(traffic.shift_offset);
      label += ")";
      break;
    case TrafficKind::kHotspot:
      label += "(n=";
      label += std::to_string(traffic.hotspot_count);
      label += ",f=";
      label += format_fixed(traffic.hotspot_fraction, 2);
      label += ")";
      break;
    case TrafficKind::kTrace:
      label += "(";
      label += traffic.trace_path;
      label += ")";
      break;
    default:
      break;
  }
  if (traffic.injection == InjectionProcess::kBursty) label += "+bursty";
  return label;
}

}  // namespace dfsim::report
