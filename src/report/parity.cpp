#include "report/parity.hpp"

#include <cmath>
#include <limits>

#include "report/registry.hpp"

namespace dfsim::report {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

GateOutcome outcome(const ResultsDoc& doc, const std::string& gate,
                    bool pass, const std::string& detail) {
  return GateOutcome{doc.header.experiment, gate,
                     pass ? GateStatus::kPass : GateStatus::kFail, detail};
}

GateOutcome skip(const ResultsDoc& doc, const std::string& gate,
                 const std::string& detail) {
  return GateOutcome{doc.header.experiment, gate, GateStatus::kSkip, detail};
}

/// Panel `i` of `doc` when it has `kind`, else nullptr.
const Panel* panel_at(const ResultsDoc& doc, std::size_t i, Panel::Kind kind) {
  return i < doc.panels.size() && doc.panels[i].kind == kind ? &doc.panels[i]
                                                             : nullptr;
}

/// The panel a gate reads, or nullptr after recording `gate` as SKIP: the
/// panel is missing or has no x tick, or it lacks one of `series` (a custom
/// --routings line-up that drops one SKIPs the gates needing it instead of
/// failing them).
const Panel* gate_panel(const ResultsDoc& doc, const Panel* panel,
                        const char* gate,
                        std::initializer_list<const char*> series,
                        std::vector<GateOutcome>& out) {
  std::string missing;
  if (!panel || panel->x_labels.empty()) {
    missing = "panel missing or empty";
  } else {
    for (const char* name : series) {
      if (panel->series_index(name) >= panel->series.size()) {
        missing = std::string(name) + " series missing";
        break;
      }
    }
  }
  if (missing.empty()) return panel;
  out.push_back(skip(doc, gate, missing));
  return nullptr;
}

double cell(const Panel& panel, const std::string& metric, std::size_t xi,
            std::size_t si) {
  const auto* rows = panel.metric(metric);
  if (!rows || xi >= rows->size() || si >= (*rows)[xi].size()) return kNaN;
  return (*rows)[xi][si];
}

/// Mean of one series' `metric` over the ticks with x in [from, to): the
/// birth-cycle windows the transient gates compare. Non-finite cells are
/// left out, and so are exact zeros with `skip_zeros` (a latency bucket in
/// which no delivered packet was born); NaN when no cell is left.
double window_mean(const Panel& panel, const char* metric, const char* series,
                   double from, double to, bool skip_zeros = false) {
  const std::size_t si = panel.series_index(series);
  const auto* rows = panel.metric(metric);
  if (si >= panel.series.size() || !rows) return kNaN;
  double sum = 0.0;
  int count = 0;
  for (std::size_t xi = 0; xi < rows->size(); ++xi) {
    const double x = panel.x_values[xi];
    const double v = (*rows)[xi][si];
    if (x < from || x >= to || !std::isfinite(v) || (skip_zeros && v == 0.0)) {
      continue;
    }
    sum += v;
    ++count;
  }
  return count > 0 ? sum / count : kNaN;
}

}  // namespace

// -------------------------------------------------------------------------
// Trend gates per experiment (each registry row names its own)

void fig5a_gates(const ResultsDoc& doc, std::vector<GateOutcome>& out) {
  const Panel* panel =
      gate_panel(doc, doc.panel("UN"), "un-trends", {"MIN", "Base"}, out);
  if (!panel) return;
  const std::size_t min_i = panel->series_index("MIN");
  const std::size_t base_i = panel->series_index("Base");
  // No false triggers: at the lowest load Base must ride MIN's latency.
  const double min_lat = cell(*panel, "latency_avg", 0, min_i);
  const double base_lat = cell(*panel, "latency_avg", 0, base_i);
  out.push_back(outcome(
      doc, "base-rides-min-at-low-load", base_lat <= 1.20 * min_lat,
      "Base " + format_fixed(base_lat, 1) + " vs MIN " +
          format_fixed(min_lat, 1) + " cycles at load " + panel->x_labels[0]));
  // Adaptive mechanisms must not lose meaningful UN throughput vs MIN.
  const std::size_t top = panel->x_labels.size() - 1;
  const double min_thpt = cell(*panel, "throughput", top, min_i);
  if (!gate_panel(doc, panel, "adaptive-keeps-un-throughput",
                  {"Base", "ECtN"}, out)) {
    return;
  }
  bool ok = true;
  std::string detail;
  for (const char* mech : {"Base", "ECtN"}) {
    const double t =
        cell(*panel, "throughput", top, panel->series_index(mech));
    if (!(t >= 0.85 * min_thpt)) ok = false;
    detail += std::string(mech) + " " + format_fixed(t, 3) + " ";
  }
  out.push_back(outcome(doc, "adaptive-keeps-un-throughput", ok,
                        detail + "vs MIN " + format_fixed(min_thpt, 3) +
                            " at load " + panel->x_labels[top]));
}

void fig5b_gates(const ResultsDoc& doc, std::vector<GateOutcome>& out) {
  const Panel* panel =
      gate_panel(doc, doc.panel("ADV+1"), "adv-trends", {"MIN", "VAL"}, out);
  if (!panel) return;
  const std::size_t top = panel->x_labels.size() - 1;
  const std::size_t min_i = panel->series_index("MIN");
  const std::size_t val_i = panel->series_index("VAL");
  // MIN collapses on the single inter-group link: far below VAL.
  const double min_thpt = cell(*panel, "throughput", top, min_i);
  const double val_thpt = cell(*panel, "throughput", top, val_i);
  out.push_back(outcome(doc, "min-collapses", min_thpt < 0.5 * val_thpt,
                        "MIN " + format_fixed(min_thpt, 3) + " vs VAL " +
                            format_fixed(val_thpt, 3) + " at load " +
                            panel->x_labels[top]));
  // VAL never exceeds its 0.5 phits/node/cycle Valiant bound.
  bool val_bounded = true;
  double val_max = 0.0;
  for (std::size_t xi = 0; xi < panel->x_labels.size(); ++xi) {
    const double t = cell(*panel, "throughput", xi, val_i);
    val_max = std::max(val_max, t);
    if (t > 0.55) val_bounded = false;
  }
  out.push_back(outcome(doc, "val-within-0.5-bound", val_bounded,
                        "max VAL throughput " + format_fixed(val_max, 3)));
  // The adaptive mechanisms recover (near-)Valiant bandwidth.
  if (gate_panel(doc, panel, "counters-recover-bandwidth",
                 {"Base", "Hybrid", "ECtN"}, out)) {
    bool adaptive_ok = true;
    std::string detail;
    for (const char* mech : {"Base", "Hybrid", "ECtN"}) {
      const double t =
          cell(*panel, "throughput", top, panel->series_index(mech));
      if (!(t >= 2.0 * min_thpt)) adaptive_ok = false;
      detail += std::string(mech) + " " + format_fixed(t, 3) + " ";
    }
    out.push_back(outcome(doc, "counters-recover-bandwidth", adaptive_ok,
                          detail + "vs MIN " + format_fixed(min_thpt, 3)));
  }
  // ECtN's latency win over the credit-triggered mechanisms at mid load.
  if (!gate_panel(doc, panel, "ectn-latency-win", {"ECtN", "PB", "OLM"},
                  out)) {
    return;
  }
  // At tiny scale ECtN's edge over PB is fractions of a percent (the clear
  // paper-scale win is vs the in-transit credit trigger OLM), so the gate
  // demands a real win over OLM and near-parity (10%) with PB — it trips
  // on regressions that cost ECtN its standing, not on noise.
  const std::size_t mid = panel->x_labels.size() / 2;
  const std::size_t ectn_i = panel->series_index("ECtN");
  const std::size_t pb_i = panel->series_index("PB");
  const std::size_t olm_i = panel->series_index("OLM");
  const double ectn_lat = cell(*panel, "latency_avg", mid, ectn_i);
  const double pb_lat = cell(*panel, "latency_avg", mid, pb_i);
  const double olm_lat = cell(*panel, "latency_avg", mid, olm_i);
  bool win = std::isfinite(ectn_lat) && !panel->saturated_cell(mid, ectn_i);
  if (!panel->saturated_cell(mid, olm_i) && !(ectn_lat <= 1.02 * olm_lat)) {
    win = false;
  }
  if (!panel->saturated_cell(mid, pb_i) && !(ectn_lat <= 1.10 * pb_lat)) {
    win = false;
  }
  out.push_back(outcome(doc, "ectn-latency-win", win,
                        "ECtN " + format_fixed(ectn_lat, 1) + " vs PB " +
                            format_fixed(pb_lat, 1) + " vs OLM " +
                            format_fixed(olm_lat, 1) + " cycles at load " +
                            panel->x_labels[mid]));
}

void fig7_gates(const ResultsDoc& doc, std::vector<GateOutcome>& out) {
  const Panel* panel =
      gate_panel(doc, panel_at(doc, 0, Panel::Kind::kTransient),
                 "adaptation-speed", {"Base", "PB", "OLM"}, out);
  if (!panel) return;
  // Mean misrouted share of the first 50 post-switch birth cycles: the
  // counter trigger reacts within cycles while the credit triggers wait
  // for the minimal-path queues to fill (paper: ~10 vs ~100 cycles).
  const double base_a = window_mean(*panel, "misrouted_pct", "Base", 0, 50);
  const double pb_a = window_mean(*panel, "misrouted_pct", "PB", 0, 50);
  const double olm_a = window_mean(*panel, "misrouted_pct", "OLM", 0, 50);
  const std::string detail = "mean misrouted % over cycles [0,50): Base " +
                             format_fixed(base_a, 1) + ", PB " +
                             format_fixed(pb_a, 1) + ", OLM " +
                             format_fixed(olm_a, 1);
  out.push_back(outcome(doc, "counter-adapts-before-credit",
                        std::isfinite(base_a) && base_a >= 2.0 * pb_a &&
                            base_a >= 2.0 * olm_a,
                        detail));
  out.push_back(outcome(doc, "counter-adapts-immediately",
                        std::isfinite(base_a) && base_a >= 5.0,
                        detail + " (gate: Base >= 5%)"));
}

void fault_degradation_gates(const ResultsDoc& doc,
                             std::vector<GateOutcome>& out) {
  const Panel* panel = gate_panel(doc, panel_at(doc, 0, Panel::Kind::kGrid),
                                  "fault-invariants", {}, out);
  if (!panel) return;

  // Hard invariants, every cell: no packet ever departed onto a dead link,
  // and generated = delivered + dropped + undeliverable + in-flight exactly.
  bool invariants_ok = true;
  std::string detail;
  for (const char* metric : {"dead_traversals", "conservation_error"}) {
    double worst = 0.0;
    for (std::size_t xi = 0; xi < panel->x_labels.size(); ++xi) {
      for (std::size_t si = 0; si < panel->series.size(); ++si) {
        const double v = cell(*panel, metric, xi, si);
        if (!(v == 0.0)) {
          invariants_ok = false;
          worst = std::max(worst, std::isfinite(v) ? std::fabs(v) : 1.0);
        }
      }
    }
    detail += std::string(metric) + " max " + format_fixed(worst, 1) + " ";
  }
  out.push_back(outcome(doc, "fault-invariants", invariants_ok,
                        detail + "(both must be exactly 0 in every cell)"));

  // No cell may have hit the no-progress watchdog.
  bool no_timeout = true;
  for (std::size_t xi = 0; xi < panel->x_labels.size(); ++xi) {
    for (std::size_t si = 0; si < panel->series.size(); ++si) {
      if (cell(*panel, "timed_out", xi, si) != 0.0) no_timeout = false;
    }
  }
  out.push_back(outcome(doc, "no-watchdog-timeouts", no_timeout,
                        no_timeout ? "all cells completed"
                                   : "some cells hit the watchdog"));

  if (!gate_panel(doc, panel, "adaptive-degrades-gracefully", {"MIN", "Base"},
                  out)) {
    return;
  }
  const std::size_t top = panel->x_labels.size() - 1;
  const std::size_t min_i = panel->series_index("MIN");
  const std::size_t base_i = panel->series_index("Base");
  const double min_healthy = cell(*panel, "throughput", 0, min_i);
  const double min_faulty = cell(*panel, "throughput", top, min_i);
  const double base_faulty = cell(*panel, "throughput", top, base_i);
  // Graceful degradation: at the top failure fraction the adaptive
  // mechanism out-delivers MIN, and MIN itself has visibly lost capacity
  // vs its healthy baseline. The throughput margin is deliberately small —
  // the fault-aware fallback keeps MIN connected too, so the headline is
  // ordering, not collapse; the gate trips on a broken overlay (blackholed
  // adaptive traffic, or faults silently not applied), not on noise.
  // Observed at tiny/seed 1: Base 0.235 vs MIN 0.224 (1.05x).
  out.push_back(outcome(
      doc, "adaptive-degrades-gracefully", base_faulty >= 1.02 * min_faulty,
      "Base " + format_fixed(base_faulty, 3) + " vs MIN " +
          format_fixed(min_faulty, 3) + " at fail_fraction " +
          panel->x_labels[top]));
  out.push_back(outcome(doc, "min-loses-capacity",
                        min_faulty <= 0.95 * min_healthy,
                        "MIN " + format_fixed(min_faulty, 3) + " faulty vs " +
                            format_fixed(min_healthy, 3) + " healthy"));
  // The counter trigger visibly routes around the holes (MIN, pinned
  // minimal, reports 0 misrouted by construction). Observed: Base 1.5%.
  const double base_mis = cell(*panel, "misrouted_pct", top, base_i);
  out.push_back(outcome(doc, "counters-misroute-around-faults",
                        base_mis >= 0.5,
                        "Base misrouted " + format_fixed(base_mis, 1) +
                            "% at fail_fraction " + panel->x_labels[top]));
}

void fault_transient_gates(const ResultsDoc& doc,
                           std::vector<GateOutcome>& out) {
  const Panel* panel =
      gate_panel(doc, panel_at(doc, 0, Panel::Kind::kTransient),
                 "fault-onset-response", {"Base"}, out);
  if (!panel) return;
  // Pre-onset (x < 0) vs early post-onset (0 <= x < 100) birth cycles.
  // Latency means skip zeros: an exact 0 in a latency bucket means "no
  // deliveries born that cycle", not zero latency.
  constexpr double kBefore = -std::numeric_limits<double>::infinity();

  // Primary signal: losing a quarter of the global links under steady load
  // forces detours and queueing on the survivors, so the latency of
  // post-onset births must sit well above the pre-onset baseline.
  // Observed at tiny/seed 1: Base ~114 vs ~79 cycles (1.44x).
  const double lat_pre =
      window_mean(*panel, "latency_avg", "Base", kBefore, 0, true);
  const double lat_post =
      window_mean(*panel, "latency_avg", "Base", 0, 100, true);
  out.push_back(outcome(
      doc, "fault-onset-latency-response",
      std::isfinite(lat_pre) && std::isfinite(lat_post) &&
          lat_post >= 1.15 * lat_pre,
      "Base mean latency pre-onset " + format_fixed(lat_pre, 1) +
          ", post-onset [0,100) " + format_fixed(lat_post, 1) +
          " cycles (gate: post >= 1.15x pre)"));

  // Secondary: the counter trigger starts misrouting once the fault
  // redistributes contention. Observed: ~2.9% post vs ~0.7% pre.
  const double mis_pre =
      window_mean(*panel, "misrouted_pct", "Base", kBefore, 0);
  const double mis_post = window_mean(*panel, "misrouted_pct", "Base", 0, 100);
  out.push_back(outcome(
      doc, "fault-onset-misroute-response",
      std::isfinite(mis_post) &&
          mis_post >= (std::isfinite(mis_pre) ? mis_pre : 0.0) + 1.0,
      "Base mean misrouted % pre-onset " + format_fixed(mis_pre, 1) +
          ", post-onset [0,100) " + format_fixed(mis_post, 1) +
          " (gate: post >= pre + 1)"));
}

void notification_gates(const ResultsDoc& doc,
                        std::vector<GateOutcome>& out) {
  // Panel 0: UN->ADV+1 transient (adaptation speed); panel 1: steady ADV+1
  // load grid (sustained throughput). Registry defaults produce both; a
  // hand-rolled line-up that drops a reference series SKIPs its gate.
  const Panel* transient = panel_at(doc, 0, Panel::Kind::kTransient);
  if (gate_panel(doc, transient, "notify-adaptation", {"Base", "ARN"}, out)) {
    // Notifications must engage within a bounded window of the counter
    // trigger: the first 50 post-switch birth cycles. Observed at
    // tiny/seed 1: ARN ~19% vs Base ~13% (notifications raised during
    // the UN phase give ARN a head start); gate at half the counter
    // trigger's response plus an absolute floor.
    const double arn_a = window_mean(*transient, "misrouted_pct", "ARN", 0, 50);
    const double base_a =
        window_mean(*transient, "misrouted_pct", "Base", 0, 50);
    out.push_back(outcome(
        doc, "notify-adapts-with-counter",
        std::isfinite(arn_a) && std::isfinite(base_a) &&
            arn_a >= 0.5 * base_a && arn_a >= 5.0,
        "mean misrouted % over cycles [0,50): ARN " + format_fixed(arn_a, 1) +
            " vs Base " + format_fixed(base_a, 1) +
            " (gate: ARN >= 0.5x Base and >= 5%)"));
  }
  if (transient && gate_panel(doc, transient, "throttle-suppresses-misroutes",
                              {"ARN", "ARN+thr"}, out)) {
    // The throttle variant refuses exactly the injections ARN would
    // misroute, so its misrouted share must collapse relative to ARN's
    // across the whole post-switch window. Observed: ~1% vs ~40%.
    const double arn_m =
        window_mean(*transient, "misrouted_pct", "ARN", 0, 250);
    const double thr_m =
        window_mean(*transient, "misrouted_pct", "ARN+thr", 0, 250);
    out.push_back(outcome(
        doc, "throttle-suppresses-misroutes",
        std::isfinite(arn_m) && std::isfinite(thr_m) && thr_m <= 0.5 * arn_m,
        "mean misrouted % over cycles [0,250): ARN+thr " +
            format_fixed(thr_m, 1) + " vs ARN " + format_fixed(arn_m, 1) +
            " (gate: ARN+thr <= 0.5x ARN)"));
  }

  const Panel* panel = gate_panel(doc, panel_at(doc, 1, Panel::Kind::kGrid),
                                  "notify-sustains-adv", {"MIN", "VAL", "ARN"},
                                  out);
  if (!panel) return;
  // Sustained ADV+1 throughput at the top load tick: ARN must stay within
  // the Valiant bound's ballpark and clear MIN's collapse decisively.
  // Observed at tiny/seed 1 (load 0.4): ARN 0.370, VAL 0.395, MIN 0.125.
  const std::size_t top = panel->x_labels.size() - 1;
  const double arn_t =
      cell(*panel, "throughput", top, panel->series_index("ARN"));
  const double val_t =
      cell(*panel, "throughput", top, panel->series_index("VAL"));
  const double min_t =
      cell(*panel, "throughput", top, panel->series_index("MIN"));
  out.push_back(outcome(
      doc, "notify-sustains-adv",
      std::isfinite(arn_t) && arn_t >= 0.8 * val_t && arn_t >= 2.0 * min_t,
      "top-load accepted: ARN " + format_fixed(arn_t, 3) + ", VAL " +
          format_fixed(val_t, 3) + ", MIN " + format_fixed(min_t, 3) +
          " (gate: ARN >= 0.8x VAL and >= 2x MIN)"));
}

void congestion_map_gates(const ResultsDoc& doc,
                          std::vector<GateOutcome>& out) {
  const Panel* panel = gate_panel(doc, doc.panel("mechanism summary"),
                                  "min-concentrates-backlog", {}, out);
  if (!panel) return;
  // This panel is transposed relative to the figure panels: the x axis
  // holds the mechanism line-up and there is a single "network" series.
  const std::size_t min_x = panel->x_index("MIN");
  const std::size_t base_x = panel->x_index("Base");
  if (min_x >= panel->x_labels.size() || base_x >= panel->x_labels.size()) {
    out.push_back(
        skip(doc, "min-concentrates-backlog", "MIN/Base columns missing"));
    return;
  }
  // Under ADV+1 every group queues behind its single direct channel, so
  // MIN's worst per-group backlog must dwarf the adaptive mechanisms'.
  // Observed at tiny/seed 1: MIN 479 vs Base 53 phits (9x); the gate's 2x
  // margin trips when the sink or the adversarial funnel breaks, not on
  // noise.
  const double min_peak = cell(*panel, "peak_group_occupancy", min_x, 0);
  const double base_peak = cell(*panel, "peak_group_occupancy", base_x, 0);
  out.push_back(outcome(doc, "min-concentrates-backlog",
                        min_peak >= 2.0 * base_peak,
                        "peak group occupancy MIN " +
                            format_fixed(min_peak, 0) + " vs Base " +
                            format_fixed(base_peak, 0) +
                            " phits (gate: MIN >= 2x Base)"));
  // Cross-check the sink against routing semantics: MIN never records a
  // misroute decision by construction, the counter trigger must record
  // plenty.
  const double min_mis = cell(*panel, "misroute_decisions", min_x, 0);
  const double base_mis = cell(*panel, "misroute_decisions", base_x, 0);
  out.push_back(outcome(doc, "sink-tracks-misroute-decisions",
                        min_mis == 0.0 && base_mis > 0.0,
                        "MIN " + format_fixed(min_mis, 0) + " vs Base " +
                            format_fixed(base_mis, 0) +
                            " decisions (gate: MIN exactly 0, Base > 0)"));
}

std::vector<GateOutcome> check_trend_gates(const ResultsDoc& doc) {
  std::vector<GateOutcome> out;
  const ExperimentSpec* spec = find_experiment(doc.header.experiment);
  if (spec && spec->gates) spec->gates(doc, out);
  return out;
}

// ---------------------------------------------------------------------------
// Golden comparison

std::vector<GateOutcome> check_against_golden(const ResultsDoc& doc,
                                              const ResultsDoc& golden,
                                              double rel_tol, double abs_tol) {
  std::vector<GateOutcome> out;
  const Header& a = doc.header;
  const Header& b = golden.header;
  if (a.experiment != b.experiment) {
    out.push_back(skip(doc, "golden", "golden is for '" + b.experiment + "'"));
    return out;
  }
  if (a.scale != b.scale || a.seed != b.seed || a.warmup != b.warmup ||
      a.measure != b.measure || a.reps != b.reps) {
    out.push_back(skip(doc, "golden",
                       "settings differ from golden (scale/seed/cycles) — "
                       "comparison skipped"));
    return out;
  }
  // A sharded run (engine_threads != 1) may gate against the serial golden
  // it approximates: its config_hash covers engine.threads, but the header
  // carries the hash of the same params with threads forced to 1.
  const bool serial_match = !a.config_hash_serial.empty() &&
                            a.config_hash_serial == b.config_hash;
  if (a.config_hash != b.config_hash && !serial_match) {
    out.push_back(outcome(
        doc, "golden-config", false,
        "config hash " + a.config_hash + " != golden " + b.config_hash +
            " at identical settings — regenerate goldens deliberately"));
    return out;
  }

  std::size_t compared = 0;
  std::size_t mismatches = 0;
  std::string first_mismatch;
  for (const Panel& gp : golden.panels) {
    const Panel* dp = doc.panel(gp.name);
    if (!dp || dp->kind != gp.kind) {
      ++mismatches;
      if (first_mismatch.empty()) {
        first_mismatch = "panel '" + gp.name + "' missing";
      }
      continue;
    }
    if (gp.kind == Panel::Kind::kInfo) continue;
    const double kind_mult = gp.kind == Panel::Kind::kTransient ? 2.0 : 1.0;
    for (const auto& [metric, grows] : gp.metrics) {
      const auto* drows = dp->metric(metric);
      if (!drows || drows->size() != grows.size()) {
        ++mismatches;
        if (first_mismatch.empty()) {
          first_mismatch = gp.name + "/" + metric + ": shape mismatch";
        }
        continue;
      }
      const bool is_latency = metric.rfind("latency", 0) == 0;
      for (std::size_t xi = 0; xi < grows.size(); ++xi) {
        if (grows[xi].size() != (*drows)[xi].size()) {
          ++mismatches;
          if (first_mismatch.empty()) {
            first_mismatch = gp.name + "/" + metric + ": row " +
                             std::to_string(xi) + " shape mismatch";
          }
          continue;
        }
        for (std::size_t si = 0; si < grows[xi].size(); ++si) {
          const double gv = grows[xi][si];
          const double dv = (*drows)[xi][si];
          // Latency past saturation is unstable by design; skip those
          // cells (the renderer prints "sat" for them too).
          if (is_latency &&
              (gp.saturated_cell(xi, si) || dp->saturated_cell(xi, si))) {
            continue;
          }
          if (!std::isfinite(gv) && !std::isfinite(dv)) continue;
          ++compared;
          const bool pass =
              std::isfinite(gv) && std::isfinite(dv) &&
              std::fabs(dv - gv) <=
                  kind_mult * (abs_tol +
                               rel_tol * std::max(std::fabs(gv),
                                                  std::fabs(dv)));
          if (!pass) {
            ++mismatches;
            if (first_mismatch.empty()) {
              first_mismatch = gp.name + "/" + metric + "[" +
                               (xi < gp.x_labels.size() ? gp.x_labels[xi]
                                                        : std::to_string(xi)) +
                               "," +
                               (si < gp.series.size() ? gp.series[si]
                                                      : std::to_string(si)) +
                               "]: " + Json::number_to_string(dv) + " vs " +
                               Json::number_to_string(gv);
            }
          }
        }
      }
    }
  }
  out.push_back(outcome(doc, "golden-curves", mismatches == 0,
                        std::to_string(compared) + " cells compared, " +
                            std::to_string(mismatches) + " outside band" +
                            (first_mismatch.empty()
                                 ? ""
                                 : "; first: " + first_mismatch)));
  return out;
}

bool all_passed(const std::vector<GateOutcome>& outcomes) {
  for (const GateOutcome& o : outcomes) {
    if (o.status == GateStatus::kFail) return false;
  }
  return true;
}

std::string to_string(GateStatus status) {
  switch (status) {
    case GateStatus::kPass: return "PASS";
    case GateStatus::kFail: return "FAIL";
    case GateStatus::kSkip: return "SKIP";
  }
  return "?";
}

}  // namespace dfsim::report
