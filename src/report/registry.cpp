#include "report/registry.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "routing/ectn_state.hpp"
#include "engine/simulator.hpp"

namespace dfsim::report {

namespace {

// Line-ups name mechanisms by enumerator: kMin, kValiant, kCbBase, ...
using enum RoutingKind;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The adaptive line-up the paper compares everywhere.
std::vector<RoutingKind> adaptive_lineup() {
  return {kPiggyback, kOlm, kCbBase, kCbHybrid, kCbEctn};
}

/// Companion-topology shapes per --scale (the dragonfly presets do not
/// apply; these keep node counts in the same ballpark per scale step).
SimParams fbfly_base_for(const std::string& scale) {
  if (scale == "tiny") return presets::fbfly(3, 2, 2);
  if (scale == "small") return presets::fbfly(4, 2, 2);
  if (scale == "medium") return presets::fbfly(4, 2, 4);
  if (scale == "paper") return presets::fbfly(8, 2, 8);
  throw std::invalid_argument("unknown scale '" + scale + "'");
}

SimParams torus_base_for(const std::string& scale) {
  if (scale == "tiny") return presets::torus(4, 2, 2);
  if (scale == "small") return presets::torus(6, 2, 2);
  if (scale == "medium") return presets::torus(8, 2, 2);
  if (scale == "paper") return presets::torus(16, 2, 4);
  throw std::invalid_argument("unknown scale '" + scale + "'");
}

/// Re-bases a companion-topology context on the topology's own per-scale
/// preset, which sets its shape and physics; only the seed and the engine
/// settings (engine.threads) carry over. When the user already selected
/// this topology themselves (`--set=topology=fbfly;fbfly.k=5...` or a
/// --config file), their fully configured base is kept instead — rebasing
/// would silently discard those overrides.
void rebase(RunContext& ctx, SimParams base) {
  if (ctx.base.topology == base.topology) return;
  base.seed = ctx.base.seed;
  base.engine = ctx.base.engine;
  ctx.base = std::move(base);
}

/// Pins `ctx` to one shard for an instrument that keeps whole-network state
/// (the ECtN overhead monitor, the telemetry sink), so the header reports
/// the shard count that ran. For a sharded request, appends a note to
/// `panel` saying why.
void pin_one_shard(RunContext& ctx, Panel& panel, const char* instrument) {
  const std::int32_t requested = ctx.base.engine.threads;
  ctx.base.engine.threads = 1;
  if (requested == 1) return;
  panel.notes.push_back("ran at engine.threads = 1, not the requested " +
                        std::to_string(requested) + ": the " + instrument +
                        " keeps whole-network state");
}

/// Appends a categorical tick to a one-series grid panel: one value per
/// metric, the metrics named (in order) by the first tick.
void add_tick(Panel& panel, const std::string& label,
              std::initializer_list<std::pair<const char*, double>> values) {
  panel.x_labels.push_back(label);
  panel.x_values.push_back(kNaN);
  std::size_t mi = 0;
  for (const auto& [metric, value] : values) {
    if (mi == panel.metrics.size()) {
      panel.metrics.emplace_back(metric, std::vector<std::vector<double>>{});
    }
    panel.metrics[mi++].second.push_back({value});
  }
}

/// The paper's Section VI-B analytic ECtN full-array estimate, per preset —
/// shared by table1 and ablation_ectn_overhead.
Panel ectn_estimate_panel(const std::string& name) {
  Panel panel;
  panel.name = name;
  panel.kind = Panel::Kind::kInfo;
  panel.columns = {"preset", "counters", "bits/counter", "phits/update",
                   "bandwidth_pct"};
  for (const char* preset : {"paper", "medium", "small", "tiny"}) {
    SimParams p = presets::by_name(preset);
    p.routing.kind = kCbEctn;
    const EctnOverheadEstimate est = estimate_ectn_overhead(p);
    panel.cells.push_back({preset, std::to_string(est.counters),
                           std::to_string(est.bits_per_counter),
                           format_fixed(est.phits, 1),
                           format_fixed(100.0 * est.bandwidth_fraction, 1)});
  }
  panel.notes.push_back(
      "Section VI-B analytic full-array estimate; paper: ~6 phits per "
      "100-cycle update, ~6% of a local link at Table I scale.");
  return panel;
}

// -------------------------------------------------------------------------
// Steady-state figures

/// adv_offset value that stands for the topology's h (ADV+h).
constexpr std::int32_t kOffsetH = 0;

/// A mechanisms-by-loads panel under one traffic pattern (Figure 5).
struct LoadFigure {
  const char* panel;
  TrafficKind traffic;
  std::int32_t adv_offset = 1;  // kOffsetH: the topology's h
  std::vector<RoutingKind> lineup;
  std::vector<double> loads;
};

ExperimentRun load_figure(LoadFigure fig) {
  return [fig = std::move(fig)](RunContext& ctx, ResultsDoc& doc) {
    ctx.default_traffic(fig.traffic, fig.adv_offset == kOffsetH
                                         ? ctx.base.topo.h
                                         : fig.adv_offset);
    doc.panels.push_back(run_load_grid(fig.panel, ctx.base,
                                       ctx.lineup_or(fig.lineup),
                                       ctx.loads_or(fig.loads), ctx.options,
                                       ctx.threads));
  };
}

void run_fig6(RunContext& ctx, ResultsDoc& doc) {
  const double load = 0.35;
  const auto mechanisms = ctx.lineup_or(adaptive_lineup());
  std::vector<GridTick> ticks;
  for (const double f : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    ticks.push_back(GridTick{format_fixed(100.0 * f, 0), 100.0 * f,
                             [f, load](SimParams& p) {
                               p.traffic.kind = TrafficKind::kMixed;
                               p.traffic.adv_offset = 1;
                               p.traffic.mixed_uniform_fraction = f;
                               p.traffic.load = load;
                             }});
  }
  doc.panels.push_back(run_grid_panel("mixed@0.35", "pct_UN", ctx.base, ticks,
                                      mechanism_series(mechanisms),
                                      ctx.options, ctx.threads));
}

// -------------------------------------------------------------------------
// Transient figures

/// Transient options: traffic at `load` switches from UN to `after` at t=0
/// (ADV means ADV+1; UN keeps the pattern, for a fault onset instead) and is
/// observed `pre` cycles before the switch and `post` after. --reps
/// overrides `reps`; the header reports the count used.
TransientOptions switch_options(const RunContext& ctx, ResultsDoc& doc,
                                TrafficParams traffic, TrafficKind after,
                                double load, Cycle pre, Cycle post,
                                std::int32_t reps) {
  TransientOptions topt;
  traffic.kind = TrafficKind::kUniform;
  traffic.load = load;
  topt.before = traffic;
  traffic.kind = after;
  if (after == TrafficKind::kAdversarial) traffic.adv_offset = 1;
  topt.after = traffic;
  topt.warmup = ctx.options.warmup;
  topt.pre = pre;
  topt.post = post;
  topt.reps = ctx.reps_or(reps);
  topt.heartbeat = ctx.options.heartbeat;
  doc.header.reps = topt.reps;
  return topt;
}

std::vector<TransientSeries> mechanism_transient_series(
    const SimParams& base, const std::vector<RoutingKind>& mechanisms) {
  std::vector<TransientSeries> series;
  for (const RoutingKind kind : mechanisms) {
    SimParams p = base;
    p.routing.kind = kind;
    series.push_back(TransientSeries{to_string(kind), p});
  }
  return series;
}

/// A UN->ADV+1 switch at load 0.2 (Figures 7-9). The figures differ only in
/// VC buffers, observed window, sampling and line-up.
struct SwitchFigure {
  const char* panel;
  std::int32_t buf_local = 0;  // phits per VC; 0 keeps the preset's buffers
  std::int32_t buf_global = 0;
  Cycle pre = 50;
  Cycle post = 0;
  Cycle step = 0;    // sample spacing
  Cycle window = 0;  // birth-window smoothing
  std::int32_t reps = 0;
  std::vector<RoutingKind> lineup;
};

ExperimentRun switch_figure(SwitchFigure fig) {
  return [fig = std::move(fig)](RunContext& ctx, ResultsDoc& doc) {
    if (fig.buf_local > 0) {
      ctx.base.router.buf_local_phits = fig.buf_local;
      ctx.base.router.buf_global_phits = fig.buf_global;
    }
    const TransientOptions topt =
        switch_options(ctx, doc, ctx.base.traffic, TrafficKind::kAdversarial,
                       0.2, fig.pre, fig.post, fig.reps);
    doc.panels.push_back(run_transient_panel(
        fig.panel,
        mechanism_transient_series(ctx.base, ctx.lineup_or(fig.lineup)),
        topt, fig.step, fig.window, ctx.threads));
  };
}

// -------------------------------------------------------------------------
// Figure 10 + Section VI ablations

void run_fig10(RunContext& ctx, ResultsDoc& doc) {
  const std::int32_t nominal = ctx.base.routing.contention_threshold;
  std::vector<std::int32_t> un_ths;
  std::vector<std::int32_t> adv_ths;
  for (std::int32_t t = nominal - 3; t <= nominal + 1; ++t) {
    if (t >= 1) un_ths.push_back(t);
  }
  for (std::int32_t t = nominal; t <= nominal + 6; ++t) adv_ths.push_back(t);

  auto panel = [&](const std::string& name, TrafficKind traffic,
                   const std::vector<std::int32_t>& ths,
                   const std::vector<double>& loads, RoutingKind reference) {
    std::vector<GridSeries> series;
    for (const std::int32_t th : ths) {
      series.push_back(GridSeries{"th=" + std::to_string(th),
                                  [th, traffic](SimParams& p) {
                                    p.routing.kind = kCbBase;
                                    p.routing.contention_threshold = th;
                                    p.traffic.kind = traffic;
                                    p.traffic.adv_offset = 1;
                                  }});
    }
    series.push_back(GridSeries{to_string(reference),
                                [reference, traffic](SimParams& p) {
                                  p.routing.kind = reference;
                                  p.traffic.kind = traffic;
                                  p.traffic.adv_offset = 1;
                                }});
    return run_grid_panel(name, "load", ctx.base, load_ticks(loads), series,
                          ctx.options, ctx.threads);
  };

  doc.panels.push_back(panel("UN", TrafficKind::kUniform, un_ths,
                             ctx.loads_or({0.1, 0.3, 0.5, 0.7, 0.8}), kMin));
  doc.panels.push_back(panel("ADV+1", TrafficKind::kAdversarial, adv_ths,
                             ctx.loads_or({0.1, 0.2, 0.3, 0.4, 0.45}),
                             kValiant));
}

void run_ablation_radix_range(RunContext& ctx, ResultsDoc& doc) {
  const double un_load = 0.80;
  const double adv_load = 0.30;
  const double un_tolerance = 0.97;
  const double adv_tolerance = 1.15;

  // Radix scaling (Section VI-A's closing remark): at tiny reproduce scale
  // skip the 1056-node medium preset to keep the registry run quick.
  std::vector<std::pair<std::string, std::string>> radixes{
      {"tiny", "11-port (p2 a4 h2)"}, {"small", "14-port (p3 a6 h3)"}};
  if (ctx.scale != "tiny") {
    radixes.emplace_back("medium", "18-port (p4 a8 h4)");
  }
  const std::vector<std::int32_t> thresholds{2, 3, 4, 5, 6, 7, 8, 9, 10};

  for (const auto& [preset, label] : radixes) {
    SimParams base = presets::by_name(preset);
    base.seed = ctx.base.seed;
    base.engine = ctx.base.engine;

    std::vector<GridTick> ticks;
    for (const std::int32_t th : thresholds) {
      ticks.push_back(GridTick{std::to_string(th), static_cast<double>(th),
                               [th](SimParams& p) {
                                 p.routing.contention_threshold = th;
                               }});
    }
    const std::vector<GridSeries> series{
        {"UN", [un_load](SimParams& p) {
           p.routing.kind = kCbBase;
           p.traffic.kind = TrafficKind::kUniform;
           p.traffic.load = un_load;
         }},
        {"ADV+1", [adv_load](SimParams& p) {
           p.routing.kind = kCbBase;
           p.traffic.kind = TrafficKind::kAdversarial;
           p.traffic.adv_offset = 1;
           p.traffic.load = adv_load;
         }},
    };
    Panel panel = run_grid_panel(label, "threshold", base, ticks, series,
                                 ctx.options, ctx.threads);

    // MIN reference under UN at the probe load: the Section VI-A floor.
    SimParams ref = base;
    ref.routing.kind = kMin;
    ref.traffic.kind = TrafficKind::kUniform;
    ref.traffic.load = un_load;
    const double min_throughput =
        run_steady(ref, ctx.options).throughput;

    const auto* throughput = panel.metric("throughput");
    const auto* latency = panel.metric("latency_avg");
    const auto* backlog = panel.metric("backlog_per_node");
    double best_adv_latency = std::numeric_limits<double>::infinity();
    for (std::size_t ti = 0; ti < thresholds.size(); ++ti) {
      if ((*backlog)[ti][1] <= kSaturationBacklog) {
        best_adv_latency = std::min(best_adv_latency, (*latency)[ti][1]);
      }
    }
    std::int32_t lo = -1;
    std::int32_t hi = -1;
    for (std::size_t ti = 0; ti < thresholds.size(); ++ti) {
      const bool un_ok =
          (*throughput)[ti][0] >= un_tolerance * min_throughput;
      const bool adv_ok = (*backlog)[ti][1] <= kSaturationBacklog &&
                          (*latency)[ti][1] <=
                              adv_tolerance * best_adv_latency;
      if (un_ok && adv_ok) {
        if (lo < 0) lo = thresholds[ti];
        hi = thresholds[ti];
      }
    }
    panel.notes.push_back("MIN UN throughput reference: " +
                          format_fixed(min_throughput, 3));
    panel.notes.push_back(
        lo >= 0 ? "valid threshold range: [" + std::to_string(lo) + ", " +
                      std::to_string(hi) + "], width " +
                      std::to_string(hi - lo + 1)
                : "valid threshold range: none at these tolerances");
    doc.panels.push_back(std::move(panel));
  }
}

void run_ablation_ectn_overhead(RunContext& ctx, ResultsDoc& doc) {
  constexpr std::int32_t kPhitBits = 80;  // 10-byte phits (Section IV-B)
  const std::int32_t async_mult = 4;
  const std::int32_t urgent_delta = 4;

  doc.panels.push_back(ectn_estimate_panel("analytic full-array estimate"));

  // Measured wire cost per encoding on live traffic.
  struct Scenario {
    const char* name;
    TrafficKind kind;
    double load;
  };
  const std::vector<Scenario> scenarios{
      {"UN 0.30", TrafficKind::kUniform, 0.30},
      {"UN 0.60", TrafficKind::kUniform, 0.60},
      {"ADV+1 0.20", TrafficKind::kAdversarial, 0.20},
      {"ADV+1 0.40", TrafficKind::kAdversarial, 0.40},
  };
  Panel measured;
  measured.name = "measured broadcast encodings";
  measured.kind = Panel::Kind::kGrid;
  measured.x_label = "scenario";
  measured.series = {"ECtN"};
  pin_one_shard(ctx, measured, "ECtN overhead monitor");
  for (const Scenario& sc : scenarios) {
    SimParams p = ctx.base;
    p.routing.kind = kCbEctn;
    p.traffic.kind = sc.kind;
    p.traffic.adv_offset = 1;
    p.traffic.load = sc.load;
    Simulator sim(p);
    sim.run(ctx.options.warmup);
    sim.enable_ectn_monitor(async_mult, urgent_delta);
    sim.run(ctx.options.measure);
    const EctnOverheadReport rep = sim.ectn_monitor().report();
    add_tick(measured, sc.name,
             {{"bits_full", rep.avg_bits_full},
              {"bits_nonempty", rep.avg_bits_nonempty},
              {"bits_incremental", rep.avg_bits_incremental},
              {"bits_async", rep.avg_bits_async},
              {"phits_full", rep.phits_full(kPhitBits)},
              {"overhead_pct",
               100.0 * rep.overhead_fraction(kPhitBits,
                                             p.routing.ectn_update_period,
                                             rep.avg_bits_full)},
              {"urgent_messages",
               static_cast<double>(rep.async_urgent_messages)}});
  }
  measured.notes.push_back(
      "nonempty beats full while few counters are hot (uniform); incr wins "
      "once the pattern is stable; async amortizes the broadcast over " +
      std::to_string(async_mult) +
      "x the period and falls back to urgent (id,value) messages on abrupt "
      "changes.");
  doc.panels.push_back(std::move(measured));
}

void run_ablation_minpath(RunContext& ctx, ResultsDoc& doc) {
  const std::vector<double> loads = ctx.loads_or({0.20, 0.30, 0.40});
  struct Variant {
    const char* name;
    bool statistical;
    std::int32_t window;
    double inorder;
  };
  const std::vector<Variant> variants{
      {"fixed", false, 0, 0.0},   {"stat_w2", true, 2, 0.0},
      {"stat_w4", true, 4, 0.0},  {"stat_w8", true, 8, 0.0},
      {"inord10", false, 0, 0.10}, {"inord30", false, 0, 0.30},
  };
  std::vector<GridSeries> series;
  for (const Variant& v : variants) {
    series.push_back(GridSeries{v.name, [v](SimParams& p) {
                                  p.routing.kind = kCbBase;
                                  p.routing.statistical_trigger = v.statistical;
                                  if (v.statistical) {
                                    p.routing.statistical_window = v.window;
                                  }
                                  p.traffic.kind = TrafficKind::kAdversarial;
                                  p.traffic.adv_offset = 1;
                                  p.traffic.inorder_fraction = v.inorder;
                                }});
  }
  doc.panels.push_back(run_grid_panel("ADV+1 (Base)", "load", ctx.base,
                                      load_ticks(loads), series, ctx.options,
                                      ctx.threads));
}

void run_ablation_misrouting(RunContext& ctx, ResultsDoc& doc) {
  struct Variant {
    const char* name;
    GlobalMisroutePolicy policy;
    bool local_misroute;
  };
  const std::vector<Variant> variants{
      {"MM+L_localmis", GlobalMisroutePolicy::kMmL, true},  // paper policy
      {"CRG_localmis", GlobalMisroutePolicy::kCrg, true},
      {"MM+L_nolocal", GlobalMisroutePolicy::kMmL, false},
      {"CRG_nolocal", GlobalMisroutePolicy::kCrg, false},
  };
  const std::vector<double> loads = ctx.loads_or({0.1, 0.2, 0.3, 0.4});

  auto panel = [&](const std::string& name, std::int32_t offset) {
    std::vector<GridSeries> series;
    for (const Variant& v : variants) {
      series.push_back(GridSeries{v.name, [v, offset](SimParams& p) {
                                    p.routing.kind = kCbBase;
                                    p.routing.global_policy = v.policy;
                                    p.routing.allow_local_misroute =
                                        v.local_misroute;
                                    p.traffic.kind = TrafficKind::kAdversarial;
                                    p.traffic.adv_offset = offset;
                                  }});
    }
    return run_grid_panel(name, "load", ctx.base, load_ticks(loads), series,
                          ctx.options, ctx.threads);
  };

  doc.panels.push_back(panel("ADV+1 (source-group funnel)", 1));
  doc.panels.push_back(
      panel("ADV+h (intermediate-group local funnel)", ctx.base.topo.h));
}

void run_ablation_workloads(RunContext& ctx, ResultsDoc& doc) {
  const double load = 0.30;
  const auto mechanisms =
      ctx.lineup_or({kMin, kUgalL, kPiggyback, kCbBase, kCbEctn});

  std::vector<GridTick> ticks;
  if (ctx.assigned.contains("traffic.kind")) {
    TrafficParams traffic = ctx.base.traffic;
    traffic.load = load;
    ticks.push_back(GridTick{traffic_label(traffic), kNaN,
                             [traffic](SimParams& p) { p.traffic = traffic; }});
  } else {
    // Pattern defaults for the keys the user left alone: shift by a group's
    // worth of nodes plus one so destinations straddle a router boundary;
    // hot-set sizing keeps per-hot-node demand under the 1 phit/cycle
    // ejection bound so HOTSPOT separates mechanisms instead of saturating.
    const std::int32_t npg = ctx.base.topo.a * ctx.base.topo.p;
    TrafficParams base_traffic = ctx.base.traffic;
    base_traffic.load = load;
    ctx.default_key("traffic.shift_offset", base_traffic.shift_offset,
                    npg + 1);
    ctx.default_key("traffic.hotspot_count", base_traffic.hotspot_count,
                    std::max<std::int32_t>(1, ctx.base.topo.nodes() / 8));
    ctx.default_key("traffic.hotspot_fraction", base_traffic.hotspot_fraction,
                    0.3);
    auto add = [&](const char* name, TrafficKind kind,
                   InjectionProcess injection = InjectionProcess::kBernoulli) {
      TrafficParams traffic = base_traffic;
      traffic.kind = kind;
      // A user's traffic.injection applies to every pattern row; the two
      // *-bursty rows are only defaults.
      ctx.default_key("traffic.injection", traffic.injection, injection);
      ticks.push_back(
          GridTick{name, kNaN,
                   [traffic](SimParams& p) { p.traffic = traffic; }});
    };
    add("SHIFT", TrafficKind::kShift);
    add("BITCOMP", TrafficKind::kBitComplement);
    add("TRANSPOSE", TrafficKind::kTranspose);
    add("TORNADO", TrafficKind::kTornado);
    add("GROUPLOCAL", TrafficKind::kGroupLocal);
    add("HOTSPOT", TrafficKind::kHotspot);
    add("UN+bursty", TrafficKind::kUniform, InjectionProcess::kBursty);
    add("ADV+1+bursty", TrafficKind::kAdversarial, InjectionProcess::kBursty);
  }

  doc.panels.push_back(run_grid_panel("patterns@0.30", "pattern", ctx.base,
                                      ticks, mechanism_series(mechanisms),
                                      ctx.options, ctx.threads));
}

// -------------------------------------------------------------------------
// Companion topologies (Section VI-D + torus)

void run_ablation_fbfly(RunContext& ctx, ResultsDoc& doc) {
  rebase(ctx, fbfly_base_for(ctx.scale));
  const auto mechanisms = ctx.lineup_or({kMin, kValiant, kUgalL, kCbBase});

  SimParams un = ctx.base;
  un.traffic.kind = TrafficKind::kUniform;
  // "ADJ" (the row adversary) is ADV+1 under the FB traffic grouping: all
  // nodes of router R target router R+1 in dimension 0.
  SimParams adj = ctx.base;
  adj.traffic.kind = TrafficKind::kAdversarial;
  adj.traffic.adv_offset = 1;

  doc.panels.push_back(run_load_grid(
      "UN", un, mechanisms, ctx.loads_or({0.1, 0.3, 0.5, 0.7, 0.9}),
      ctx.options, ctx.threads));
  doc.panels.push_back(run_load_grid(
      "ADJ", adj, mechanisms, ctx.loads_or({0.1, 0.2, 0.3, 0.4, 0.5, 0.6}),
      ctx.options, ctx.threads));
}

void run_ablation_fbfly_transient(RunContext& ctx, ResultsDoc& doc) {
  rebase(ctx, fbfly_base_for(ctx.scale));
  struct Variant {
    const char* name;
    RoutingKind routing;
    std::int32_t buf;
  };
  const std::vector<Variant> variants{
      {"UGAL_b8", kUgalL, 8},
      {"UGAL_b32", kUgalL, 32},
      {"CB_b8", kCbBase, 8},
      {"CB_b32", kCbBase, 32},
  };
  std::vector<TransientSeries> series;
  for (const Variant& v : variants) {
    SimParams p = presets::fbfly(ctx.base.fbfly.k, ctx.base.fbfly.n,
                                 ctx.base.fbfly.c, v.buf);
    p.routing.kind = v.routing;
    p.seed = ctx.base.seed;
    p.engine = ctx.base.engine;
    series.push_back(TransientSeries{v.name, p});
  }
  // UN -> ADJ, the FB row adversary, over default traffic parameters.
  const TransientOptions topt = switch_options(
      ctx, doc, TrafficParams{}, TrafficKind::kAdversarial, 0.3, 25, 350, 3);
  doc.panels.push_back(run_transient_panel("UN->ADJ@0.3", series, topt,
                                           /*step=*/25, /*window=*/25,
                                           ctx.threads));
}

void run_ablation_torus(RunContext& ctx, ResultsDoc& doc) {
  rebase(ctx, torus_base_for(ctx.scale));
  const auto mechanisms = ctx.lineup_or(
      {kMin, kValiant, kUgalL, kPiggyback, kCbBase, kCbHybrid});

  const std::int32_t k = ctx.base.torus.k;
  const std::int32_t c = ctx.base.torus.c;
  SimParams un = ctx.base;
  un.traffic.kind = TrafficKind::kUniform;
  // Tornado: ADV at offset k/2 under the torus traffic grouping advances
  // the dimension-0 ring coordinate halfway around.
  SimParams tornado = ctx.base;
  tornado.traffic.kind = TrafficKind::kAdversarial;
  tornado.traffic.adv_offset = k / 2;
  const double ring_cap =
      1.0 / (static_cast<double>(c) * static_cast<double>(k / 2));

  doc.panels.push_back(run_load_grid(
      "UN", un, mechanisms, ctx.loads_or({0.1, 0.2, 0.3, 0.4, 0.5}),
      ctx.options, ctx.threads));
  Panel tor = run_load_grid(
      "TORNADO", tornado, mechanisms,
      ctx.loads_or({0.5 * ring_cap, ring_cap, 1.2 * ring_cap, 1.6 * ring_cap,
                    2.0 * ring_cap}),
      ctx.options, ctx.threads);
  tor.x_labels.clear();
  for (const double v : tor.x_values) {
    tor.x_labels.push_back(format_fixed(v, 3));
  }
  tor.notes.push_back("one-direction ring cap: " + format_fixed(ring_cap, 3) +
                      " phits/node/cycle — MIN flatlines there, the "
                      "nonminimal mechanisms climb past it");
  doc.panels.push_back(std::move(tor));
}

// -------------------------------------------------------------------------
// Fault overlay (beyond the paper)

void run_fault_degradation(RunContext& ctx, ResultsDoc& doc) {
  ctx.default_traffic(TrafficKind::kUniform);
  ctx.base.traffic.load = 0.30;
  const auto mechanisms =
      ctx.lineup_or({kMin, kValiant, kPiggyback, kCbBase, kCbEctn});

  // x = fraction of failed *global* links, dead from cycle 0. f = 0 keeps
  // the overlay entirely detached (the zero-overhead-when-off baseline).
  std::vector<GridTick> ticks;
  for (const double f : {0.0, 0.05, 0.10, 0.20}) {
    ticks.push_back(GridTick{format_fixed(f, 2), f, [f](SimParams& p) {
                               if (f > 0.0) {
                                 p = presets::with_link_faults(std::move(p), f,
                                                               "global");
                               }
                             }});
  }

  doc.panels.push_back(run_grid_panel(
      "UN@0.30 dead global links", "fail_fraction", ctx.base, ticks,
      mechanism_series(mechanisms), ctx.options, ctx.threads));
}

void run_fault_transient(RunContext& ctx, ResultsDoc& doc) {
  // Figure-7 machinery with the traffic switch replaced by a fault onset:
  // traffic stays uniform throughout and a quarter of the global links die
  // at t=0 (onset = warmup + pre, the transient panel's switch cycle).
  const TransientOptions topt = switch_options(
      ctx, doc, ctx.base.traffic, TrafficKind::kUniform, 0.30, 50, 250, 5);
  const SimParams faulty = presets::with_link_faults(
      ctx.base, 0.25, "global", topt.warmup + topt.pre);
  doc.panels.push_back(run_transient_panel(
      "UN@0.3 global faults at t=0",
      mechanism_transient_series(faulty,
                                 ctx.lineup_or({kCbBase, kOlm, kPiggyback})),
      topt, /*step=*/10, /*window=*/10, ctx.threads));
}

// -------------------------------------------------------------------------
// Notification family (ARN): adaptation speed and sustained throughput.

void run_notification_transient(RunContext& ctx, ResultsDoc& doc) {
  ctx.default_traffic(TrafficKind::kAdversarial, 1);
  const TransientOptions topt = switch_options(
      ctx, doc, ctx.base.traffic, TrafficKind::kAdversarial, 0.2, 50, 250, 5);

  // Transient panel: the counter trigger (Base) and the credit trigger
  // (PB) frame the notification family's adaptation speed; the throttle
  // variant rides along to show refusal does not stall recovery.
  std::vector<TransientSeries> series = mechanism_transient_series(
      ctx.base, ctx.lineup_or({kCbBase, kPiggyback}));
  SimParams arn = ctx.base;
  arn.routing.kind = kArn;
  series.push_back(TransientSeries{"ARN", arn});
  arn.notify.throttle_injection = true;
  series.push_back(TransientSeries{"ARN+thr", arn});
  doc.panels.push_back(run_transient_panel("UN->ADV+1@0.2", series, topt,
                                           /*step=*/10, /*window=*/10,
                                           ctx.threads));

  // Steady ADV+1 panel for the throughput gates: VAL is the 0.5-bound
  // reference the notification family must not fall under at saturating
  // load; MIN marks the un-adaptive floor it must clear.
  std::vector<GridSeries> steady =
      mechanism_series({kMin, kValiant, kCbBase, kArn});
  steady.push_back(GridSeries{"ARN+thr", [](SimParams& p) {
                                p.routing.kind = kArn;
                                p.notify.throttle_injection = true;
                              }});
  doc.panels.push_back(run_grid_panel(
      "ADV+1 steady", "load", ctx.base,
      load_ticks(ctx.loads_or({0.1, 0.2, 0.3, 0.4})), steady, ctx.options,
      ctx.threads));
}

// -------------------------------------------------------------------------
// Observability: backlog formation through the spatial telemetry sink.

void run_congestion_map(RunContext& ctx, ResultsDoc& doc) {
  ctx.default_traffic(TrafficKind::kAdversarial, 1);
  ctx.base.traffic.load = ctx.loads_or({0.30}).front();
  const std::vector<RoutingKind> mechanisms =
      ctx.lineup_or({kMin, kCbBase, kCbEctn});
  doc.header.reps = 1;  // one instrumented run per mechanism

  // ~24 frames across the whole run, warmup included: the backlog builds
  // during warmup and the map should show it building, not just built.
  const Cycle span = ctx.options.warmup + ctx.options.measure;
  const Cycle period = std::max<Cycle>(1, span / 24);

  Panel summary;
  summary.name = "mechanism summary";
  summary.kind = Panel::Kind::kGrid;
  summary.x_label = "mechanism";
  summary.series = {"network"};
  pin_one_shard(ctx, summary, "telemetry sink");

  for (const RoutingKind kind : mechanisms) {
    SimParams p = ctx.base;
    p.routing.kind = kind;
    p.telemetry.enabled = true;
    p.telemetry.sample_period = period;
    p.telemetry.max_samples = 64;
    Simulator sim(p);
    sim.run(ctx.options.warmup);
    sim.begin_measurement();
    sim.run(ctx.options.measure);

    const telemetry::TelemetrySink& sink = sim.telemetry_sink();
    const std::int32_t frames = sink.frames();
    const std::int32_t ga = std::max<std::int32_t>(1, p.topo.a);
    const std::int32_t groups = sink.routers() / ga;

    // Per-group time series: ADV+1 funnels every group g's traffic onto
    // its single direct channel to group g+1, so under MIN each group's
    // routers pile up behind their own exit funnel while the adaptive
    // mechanisms divert onto intermediate groups and stay flat.
    Panel panel;
    panel.name = "per-group " + std::string(to_string(kind));
    panel.kind = Panel::Kind::kTransient;
    panel.x_label = "cycle";
    for (std::int32_t f = 0; f < frames; ++f) {
      panel.x_labels.push_back(std::to_string(sink.sample_cycle(f)));
      panel.x_values.push_back(static_cast<double>(sink.sample_cycle(f)));
    }
    for (std::int32_t g = 0; g < groups; ++g) {
      panel.series.push_back("g" + std::to_string(g));
    }
    auto group_rows = [&](auto&& cell) {
      std::vector<std::vector<double>> rows;
      rows.reserve(static_cast<std::size_t>(frames));
      for (std::int32_t f = 0; f < frames; ++f) {
        std::vector<double> row(static_cast<std::size_t>(groups), 0.0);
        for (RouterId r = 0; r < sink.routers(); ++r) {
          row[static_cast<std::size_t>(r / ga)] += cell(f, r);
        }
        rows.push_back(std::move(row));
      }
      return rows;
    };
    auto occupancy = group_rows([&](std::int32_t f, RouterId r) {
      return static_cast<double>(sink.occupancy(f, r));
    });
    // Summary row: the worst group's peak backlog is the headline number.
    double peak = 0.0;
    for (const auto& row : occupancy) {
      for (const double occ : row) peak = std::max(peak, occ);
    }
    panel.metrics.emplace_back("occupancy", std::move(occupancy));
    panel.metrics.emplace_back(
        "misroutes", group_rows([&](std::int32_t f, RouterId r) {
          return static_cast<double>(sink.misroutes(f, r));
        }));
    panel.metrics.emplace_back(
        "credit_stalls", group_rows([&](std::int32_t f, RouterId r) {
          return static_cast<double>(sink.credit_stalls(f, r));
        }));
    doc.panels.push_back(std::move(panel));

    add_tick(summary, to_string(kind),
             {{"latency_avg", sim.metrics().mean_latency()},
              {"peak_group_occupancy", peak},
              {"misroute_decisions",
               static_cast<double>(sink.total_misroutes())},
              {"credit_stalls",
               static_cast<double>(sink.total_credit_stalls())},
              {"deliveries", static_cast<double>(sink.total_deliveries())}});
  }
  summary.notes.push_back(
      "peak per-group backlog under ADV+1: MIN queues every group behind "
      "its single direct channel; the counter mechanisms divert onto "
      "intermediate groups and the peak flattens.");
  doc.panels.push_back(std::move(summary));
}

// -------------------------------------------------------------------------
// Table I

void run_table1(RunContext& ctx, ResultsDoc& doc) {
  ctx.base.engine.threads = 1;  // simulates nothing
  const SimParams presets_list[4] = {presets::paper(), presets::medium(),
                                     presets::small(), presets::tiny()};

  Panel table;
  table.name = "configuration presets";
  table.kind = Panel::Kind::kInfo;
  table.columns = {"parameter", "paper", "medium", "small", "tiny"};
  auto row = [&](const std::string& name, auto getter) {
    std::vector<std::string> cells{name};
    for (const SimParams& p : presets_list) cells.push_back(getter(p));
    table.cells.push_back(std::move(cells));
  };
  auto str = [](auto v) { return std::to_string(v); };

  row("router ports (fwd)", [&](const SimParams& p) {
    return str(p.topo.forward_ports()) + " (h=" + str(p.topo.h) +
           " p=" + str(p.topo.p) + " local=" + str(p.topo.a - 1) + ")";
  });
  row("router latency (cycles)",
      [&](const SimParams& p) { return str(p.router.pipeline_cycles); });
  row("frequency speedup",
      [&](const SimParams& p) { return str(p.router.speedup) + "x"; });
  row("group size", [&](const SimParams& p) {
    return str(p.topo.a) + " routers, " + str(p.topo.a * p.topo.p) + " nodes";
  });
  row("system size", [&](const SimParams& p) {
    return str(p.topo.groups()) + " groups, " + str(p.topo.nodes()) + " nodes";
  });
  row("link latency local/global", [&](const SimParams& p) {
    return str(p.link.local_latency) + "/" + str(p.link.global_latency);
  });
  row("VCs global/local/injection", [&](const SimParams& p) {
    return str(p.router.vcs_global) + "/" + str(p.router.vcs_local) +
           "(+1 VAL,PB)/" + str(p.router.vcs_injection);
  });
  row("buffers out/local/global (phits)", [&](const SimParams& p) {
    return str(p.router.buf_output_phits) + "/" +
           str(p.router.buf_local_phits) + "/" +
           str(p.router.buf_global_phits);
  });
  row("packet size (phits)",
      [&](const SimParams& p) { return str(p.packet_size_phits); });
  row("congestion thresholds", [&](const SimParams& p) {
    return "OLM " + format_fixed(p.routing.olm_credit_fraction, 2) +
           ", Hybrid " + format_fixed(p.routing.hybrid_credit_fraction, 2) +
           ", PB T=" + str(p.routing.pb_ugal_threshold);
  });
  row("contention thresholds", [&](const SimParams& p) {
    return "Base/ECtN " + str(p.routing.contention_threshold) + ", Hybrid " +
           str(p.routing.hybrid_contention_threshold) + ", combined " +
           str(p.routing.ectn_combined_threshold);
  });
  row("ECtN partial update (cycles)", [&](const SimParams& p) {
    return str(p.routing.ectn_update_period);
  });

  doc.panels.push_back(std::move(table));
  doc.panels.push_back(
      ectn_estimate_panel("ECtN partial-broadcast overhead estimate"));
}

/// Stamps the header with the context the experiment ran with.
void fill_header(ResultsDoc& doc, const ExperimentSpec& spec,
                 const RunContext& ctx) {
  Header& h = doc.header;
  h.experiment = spec.name;
  h.title = spec.title;
  h.paper_ref = spec.paper_ref;
  h.topology = to_string(ctx.base.topology);
  h.scale = ctx.scale;
  h.nodes = ctx.base.nodes();
  h.config_hash = config_hash(ctx.base);
  h.engine_threads = ctx.base.engine.threads;
  if (h.engine_threads != 1) {
    SimParams serial = ctx.base;
    serial.engine.threads = 1;
    h.config_hash_serial = config_hash(serial);
  }
  h.seed = ctx.base.seed;
  h.warmup = ctx.options.warmup;
  h.measure = ctx.options.measure;
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry: one row per experiment — docs text, runner, trend gates.

const std::vector<ExperimentSpec>& experiment_registry() {
  static const std::vector<ExperimentSpec> kRegistry{
      {"table1", "Table I — simulation parameters (presets)", "Table I",
       "dragonfly",
       "The paper's exact configuration plus the scaled presets, with the "
       "Section VI-B analytic ECtN broadcast-overhead estimate per preset.",
       run_table1},
      {"fig5a", "Figure 5a — uniform traffic (UN)", "Fig. 5a", "dragonfly",
       "MIN sets the latency floor; Base and ECtN match it before "
       "congestion; Hybrid sits between MIN and OLM; PB/OLM pay a latency "
       "premium for credit-triggered misrouting. Peak throughput: Hybrid "
       "highest, Base/ECtN close to OLM, all above MIN.",
       load_figure({.panel = "UN", .traffic = TrafficKind::kUniform,
                    .lineup = {kMin, kPiggyback, kOlm, kCbBase, kCbHybrid,
                               kCbEctn},
                    .loads = {0.05, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}}),
       fig5a_gates},
      // MIN rides along in fig5b: its collapse on the single inter-group
      // link is one of the paper-parity gates.
      {"fig5b", "Figure 5b — adversarial traffic (ADV+1)", "Fig. 5b",
       "dragonfly",
       "VAL is the reference (saturates at 0.5); MIN collapses on the "
       "single inter-group link; OLM/Base/Hybrid/ECtN all reach the Valiant "
       "throughput bound, with ECtN obtaining the best latency thanks to "
       "injection-time misrouting from combined counters.",
       load_figure({.panel = "ADV+1", .traffic = TrafficKind::kAdversarial,
                    .lineup = {kMin, kValiant, kPiggyback, kOlm, kCbBase,
                               kCbHybrid, kCbEctn},
                    .loads = {0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45}}),
       fig5b_gates},
      {"fig5c", "Figure 5c — adversarial traffic (ADV+h)", "Fig. 5c",
       "dragonfly",
       "The pathological pattern that additionally saturates local links in "
       "the intermediate group, exercising local misrouting: same ordering "
       "as ADV+1 but VAL/PB closer to the adaptive mechanisms.",
       load_figure({.panel = "ADV+h", .traffic = TrafficKind::kAdversarial,
                    .adv_offset = kOffsetH,
                    .lineup = {kValiant, kPiggyback, kOlm, kCbBase,
                               kCbHybrid, kCbEctn},
                    .loads = {0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45}})},
      {"fig6", "Figure 6 — mixed ADV+1/UN traffic at 35% load", "Fig. 6",
       "dragonfly",
       "Average latency as the UN share sweeps 0..100%: contention counters "
       "stay competitive with OLM at every blend; ECtN clearly the best.",
       run_fig6},
      {"fig7", "Figure 7 — transient UN->ADV+1, small buffers", "Fig. 7",
       "dragonfly",
       "Traffic switches UN->ADV+1 at t=0 under load 0.2. Base/Hybrid adapt "
       "within ~10 cycles; OLM and PB need ~100 (credits must fill); ECtN "
       "follows Base until the next partial broadcast, then misroutes "
       "directly at injection. Misrouted share converges near 0% before and "
       "~100% after for the counter-based mechanisms.",
       switch_figure({.panel = "UN->ADV+1@0.2", .post = 250, .step = 10,
                      .window = 10, .reps = 5, .lineup = adaptive_lineup()}),
       fig7_gates},
      {"fig8", "Figure 8 — transient UN->ADV+1, large buffers", "Fig. 8",
       "dragonfly",
       "Same transient with 256/2048-phit VC buffers: the credit-based "
       "mechanisms adapt far more slowly (deeper buffers must fill before "
       "credits signal congestion) while the contention-based response "
       "stays put — buffer size is decoupled from the trigger.",
       switch_figure({.panel = "UN->ADV+1@0.2 large-buffers",
                      .buf_local = 256, .buf_global = 2048,  // Fig. 8 caption
                      .post = 1600, .step = 50, .window = 25, .reps = 3,
                      .lineup = adaptive_lineup()})},
      {"fig9", "Figure 9 — oscillations after UN->ADV+1, PB vs ECtN",
       "Fig. 9", "dragonfly",
       "PB's delayed ECN control loop oscillates with a ~500-cycle decaying "
       "period; ECtN converges to a flat latency because contention does "
       "not depend on the routing decision.",
       switch_figure({.panel = "UN->ADV+1@0.2 long", .pre = 0, .post = 1600,
                      .step = 25, .window = 25, .reps = 5,
                      .lineup = {kPiggyback, kCbEctn}})},
      {"fig10", "Figure 10 — Base threshold sensitivity", "Fig. 10",
       "dragonfly",
       "Low thresholds penalize UN (spurious misrouting); high thresholds "
       "penalize ADV+1 (late misrouting). A valid middle band exists around "
       "2x the average number of VCs per input port.",
       run_fig10},
      {"ablation_radix_range", "Section VI-A — valid threshold range vs radix",
       "Sec. VI-A", "dragonfly",
       "Sweeps the misrouting threshold across router radixes: the valid "
       "window (UN throughput preserved AND ADV latency near the best) "
       "should widen with the radix, the paper's closing Section VI-A "
       "remark.",
       run_ablation_radix_range},
      {"ablation_ectn_overhead", "Section VI-B — ECtN broadcast overhead",
       "Sec. VI-B", "dragonfly",
       "The paper's analytic full-array estimate reproduced per preset, "
       "plus the measured wire cost of the alternative encodings (nonempty-"
       "with-id, incremental, asynchronous) on live traffic.",
       run_ablation_ectn_overhead},
      {"ablation_minpath", "Section VI-C — minimal-path usage under ADV+1",
       "Sec. VI-C", "dragonfly",
       "With a fixed threshold and heavy ADV load nearly all adaptive "
       "traffic diverts nonminimally. The paper's two un-evaluated "
       "remedies — in-order traffic pinned to the minimal path, and a "
       "statistical trigger ramping misroute probability below the "
       "threshold — re-fill the minimal path at a quantified cost.",
       run_ablation_minpath},
      {"ablation_misrouting", "Section V — misrouting policy ablation",
       "Sec. V", "dragonfly",
       "MM+L vs CRG global candidates and opportunistic local misrouting "
       "on/off, isolated on Base: CRG squeezes the source-group funnel "
       "through h-1 spare links; disabling local misrouting costs latency "
       "exactly where ADV+h funnels intermediate-group traffic.",
       run_ablation_misrouting},
      {"ablation_workloads", "Workload ablation — mechanisms x traffic models",
       "beyond the paper", "dragonfly",
       "The routing line-up across the traffic/ subsystem's patterns "
       "(permutations, hotspot, bursty layers) at load 0.3: group-crossing "
       "permutations funnel groups onto few global channels so MIN "
       "saturates while the adaptive mechanisms recover bandwidth; HOTSPOT "
       "and the bursty layers separate mechanisms mostly in the p99 tail.",
       run_ablation_workloads},
      {"ablation_fbfly", "Section VI-D — flattened butterfly steady state",
       "Sec. VI-D", "fbfly",
       "Contention counters on a second topology (k-ary n-flat, DOR "
       "minimal): under UN, CB matches MIN's optimal latency with zero "
       "misrouting; under the row adversary ADJ, MIN caps at the single "
       "direct channel while CB recovers the nonminimal bandwidth like "
       "VAL/UGAL-L.",
       run_ablation_fbfly},
      {"ablation_fbfly_transient",
       "Section VI-D x Fig. 7/8 — FB trigger adaptation speed", "Sec. VI-D",
       "fbfly",
       "UN -> row-adversary switch at t=0 on the flattened butterfly: the "
       "queue trigger (UGAL-L) adapts slower as buffers deepen (b8 vs b32) "
       "while the counter trigger (Base) keeps the same fast response.",
       run_ablation_fbfly_transient},
      {"ablation_torus", "Torus — trigger line-up under UN + tornado",
       "beyond the paper", "torus",
       "k-ary n-cube through the same engine: under TORNADO minimal DOR "
       "flatlines at the one-direction ring cap 1/(c*k/2) while UGAL-L and "
       "the contention triggers recover nonminimal bandwidth; under UN "
       "every mechanism rides MIN with (near-)zero misrouting.",
       run_ablation_torus},
      {"fault_degradation",
       "Fault overlay — throughput/latency vs dead global links",
       "beyond the paper", "dragonfly",
       "Uniform traffic at 0.3 load while a growing fraction of global "
       "links is dead from cycle 0: MIN loses the failed direct routes and "
       "degrades, the adaptive mechanisms route around the holes and retain "
       "disproportionate throughput. Hard invariants per cell: zero "
       "traversals of dead links, exact packet conservation.",
       run_fault_degradation, fault_degradation_gates},
      {"fault_transient",
       "Fault overlay — trigger response to a fault onset",
       "beyond the paper", "dragonfly",
       "Figure-7 machinery with the traffic switch replaced by a fault "
       "onset: 25% of global links die at t=0 under steady uniform load. "
       "The contention-counter trigger (Base) reacts to the redistributed "
       "head-of-line contention within tens of cycles; the credit triggers "
       "(OLM, PB) respond only after the surviving links' buffers fill.",
       run_fault_transient, fault_transient_gates},
      {"notification_transient",
       "ARN — congestion-notification response to an ADV+1 onset",
       "beyond the paper", "dragonfly",
       "The adaptive-routing-notification family (arXiv 2502.00616; "
       "throttle variant arXiv 2502.00597) on Figure-7 machinery: routers "
       "over the notify.threshold occupancy broadcast notifications that go "
       "live propagation_delay cycles later and decay only by expiry. "
       "Sources misroute (ARN) or additionally refuse injection (ARN+thr) "
       "while the minimal route is under a live notification. The transient "
       "panel frames adaptation speed between the counter trigger (Base) "
       "and the credit trigger (PB); the steady ADV+1 panel holds the "
       "family to the Valiant throughput bound.",
       run_notification_transient, notification_gates},
      {"congestion_map",
       "Observability — per-group backlog formation under ADV+1",
       "beyond the paper", "dragonfly",
       "Spatial telemetry (per-router occupancy, misroute decisions, credit "
       "stalls, aggregated per group) sampled across warmup + measurement "
       "under ADV+1: MIN queues every group behind its single direct "
       "channel while Base and ECtN divert onto intermediate groups. The "
       "summary table reports each mechanism's peak per-group backlog.",
       run_congestion_map, congestion_map_gates},
  };
  return kRegistry;
}

const ExperimentSpec* find_experiment(const std::string& name) {
  for (const ExperimentSpec& spec : experiment_registry()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

ResultsDoc run_experiment(const ExperimentSpec& spec, const RunContext& ctx) {
  RunContext ran = ctx;  // runners adjust their copy; the header reads it
  ResultsDoc doc;
  doc.header.reps = ctx.options.reps;
  spec.run(ran, doc);
  fill_header(doc, spec, ran);
  return doc;
}

}  // namespace dfsim::report
