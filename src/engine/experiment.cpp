#include "engine/experiment.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <string>

namespace dfsim {

namespace {

/// No-progress watchdog: a rep that goes this many consecutive cycles
/// without a single delivery while packets sit in the network (deadlock /
/// total blackout under a fault schedule) stops early and its result is
/// flagged timed_out instead of hanging. Deterministic (cycle-based).
constexpr Cycle kProgressWindow = 50000;

/// Runs `sim` forward `cycles` cycles in kProgressWindow-sized chunks,
/// stopping early when no packet has been delivered over a full window while
/// packets are still in the network (deadlock / total blackout under a fault
/// schedule). Returns false on early stop.
///
/// Chunked stepping is bit-exact with one long run — run(a); run(b) is
/// identical to run(a + b) — so healthy results are unchanged by the window.
bool run_guarded(Simulator& sim, Cycle cycles,
                 const std::function<void(Cycle, std::int64_t, double)>&
                     heartbeat) {
  const auto start = std::chrono::steady_clock::now();
  for (Cycle remaining = cycles; remaining > 0;) {
    const Cycle step = std::min(remaining, kProgressWindow);
    const std::int64_t delivered_before = sim.lifetime_totals().delivered;
    sim.run(step);
    if (heartbeat) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      heartbeat(sim.now(), sim.lifetime_totals().delivered, elapsed.count());
    }
    if (step == kProgressWindow &&
        sim.lifetime_totals().delivered == delivered_before &&
        sim.packets_in_network() > 0) {
      return false;  // a full window with live packets but zero progress
    }
    remaining -= step;
  }
  return true;
}

}  // namespace

void check_reps(std::int32_t reps) {
  if (reps >= 1) return;
  throw std::invalid_argument("reps must be >= 1, got " + std::to_string(reps));
}

SteadyResult run_steady(const SimParams& params, const SteadyOptions& options) {
  check_reps(options.reps);
  const std::int32_t reps = options.reps;
  SteadyResult acc;
  // Tail quantiles are order statistics, not means: averaging per-rep p99s
  // is NOT the p99 of the combined sample (a single congested rep's tail
  // disappears into the average). The reps' histograms are merged and the
  // quantiles read once from the pooled distribution; the remaining metrics
  // are true means and keep the per-rep average.
  LatencyHistogram pooled;
  for (std::int32_t rep = 0; rep < reps; ++rep) {
    SimParams p = params;
    p.seed = params.seed + static_cast<std::uint64_t>(rep) * 7919u;
    Simulator sim(p);
    bool ok = run_guarded(sim, options.warmup, options.heartbeat);
    sim.begin_measurement();
    if (ok) ok = run_guarded(sim, options.measure, options.heartbeat);
    if (!ok) acc.timed_out += 1.0;

    const Simulator::Metrics& m = sim.metrics();
    pooled.merge(m.latency_hist);
    acc.latency_avg += m.mean_latency();
    acc.throughput += sim.throughput();
    acc.misrouted_fraction += m.misrouted_fraction();
    acc.local_misrouted_fraction +=
        m.delivered > 0 ? static_cast<double>(m.local_misrouted) /
                              static_cast<double>(m.delivered)
                        : 0.0;
    acc.minimal_path_fraction += m.minimal_path_fraction();
    acc.backlog_per_node += sim.backlog_per_node();
    // metrics() was reset at begin_measurement, so `generated` covers the
    // measure window only; the accessor guards the zero-length-window case.
    acc.generated_load += sim.generated_load();
    // Fault-overlay columns, from lifetime totals so a fault firing during
    // warmup is still visible in the measured row.
    const Simulator::Totals& t = sim.lifetime_totals();
    const double accepted =
        static_cast<double>(t.generated - t.refused) > 0.0
            ? static_cast<double>(t.generated - t.refused)
            : 1.0;
    acc.dropped_pct += 100.0 * static_cast<double>(t.dropped) / accepted;
    acc.undeliverable_pct +=
        100.0 * static_cast<double>(t.undeliverable) / accepted;
    acc.dead_traversals += static_cast<double>(m.dead_link_hops);
    const std::int64_t cons = sim.conservation_error();
    acc.conservation_error += static_cast<double>(cons < 0 ? -cons : cons);
  }
  const auto n = static_cast<double>(reps);
  acc.latency_avg /= n;
  acc.latency_p50 = pooled.quantile(0.50);
  acc.latency_p95 = pooled.quantile(0.95);
  acc.latency_p99 = pooled.quantile(0.99);
  acc.throughput /= n;
  acc.misrouted_fraction /= n;
  acc.local_misrouted_fraction /= n;
  acc.minimal_path_fraction /= n;
  acc.backlog_per_node /= n;
  acc.generated_load /= n;
  acc.latency_overflow = static_cast<double>(pooled.overflow()) / n;
  acc.dropped_pct /= n;
  acc.undeliverable_pct /= n;
  acc.dead_traversals /= n;
  acc.conservation_error /= n;
  acc.timed_out /= n;
  return acc;
}

TransientResult::TransientResult(Cycle pre, Cycle post)
    : pre_(pre),
      post_(post),
      count_(static_cast<std::size_t>(pre + post), 0),
      misrouted_(static_cast<std::size_t>(pre + post), 0),
      latency_sum_(static_cast<std::size_t>(pre + post), 0.0),
      hist_(static_cast<std::size_t>(pre + post)) {}

void TransientResult::record(Cycle birth_rel, Cycle latency, bool misrouted) {
  if (birth_rel < -pre_ || birth_rel >= post_) return;
  const std::size_t i = index(birth_rel);
  ++count_[i];
  if (misrouted) ++misrouted_[i];
  latency_sum_[i] += static_cast<double>(latency);
  hist_[i].add(latency);
}

void TransientResult::merge(const TransientResult& other) {
  assert(other.pre_ == pre_ && other.post_ == post_);
  timed_out_ = timed_out_ || other.timed_out_;
  for (std::size_t i = 0; i < count_.size(); ++i) {
    count_[i] += other.count_[i];
    misrouted_[i] += other.misrouted_[i];
    latency_sum_[i] += other.latency_sum_[i];
    hist_[i].merge(other.hist_[i]);
  }
}

double TransientResult::latency_at(Cycle t, Cycle window) const {
  const Cycle half = window / 2;
  const Cycle lo = std::max<Cycle>(-pre_, t - half);
  const Cycle hi = std::min<Cycle>(post_, t - half + std::max<Cycle>(1, window));
  std::int64_t n = 0;
  double sum = 0.0;
  for (Cycle c = lo; c < hi; ++c) {
    n += count_[index(c)];
    sum += latency_sum_[index(c)];
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double TransientResult::latency_p99_at(Cycle t, Cycle window) const {
  const Cycle half = window / 2;
  const Cycle lo = std::max<Cycle>(-pre_, t - half);
  const Cycle hi = std::min<Cycle>(post_, t - half + std::max<Cycle>(1, window));
  LatencyHistogram merged;
  for (Cycle c = lo; c < hi; ++c) merged.merge(hist_[index(c)]);
  return merged.total() > 0 ? merged.quantile(0.99) : 0.0;
}

double TransientResult::misrouted_pct_at(Cycle t, Cycle window) const {
  const Cycle half = window / 2;
  const Cycle lo = std::max<Cycle>(-pre_, t - half);
  const Cycle hi = std::min<Cycle>(post_, t - half + std::max<Cycle>(1, window));
  std::int64_t n = 0;
  std::int64_t mis = 0;
  for (Cycle c = lo; c < hi; ++c) {
    n += count_[index(c)];
    mis += misrouted_[index(c)];
  }
  return n > 0 ? 100.0 * static_cast<double>(mis) / static_cast<double>(n)
               : 0.0;
}

BirthWindow transient_birth_window(Cycle start, Cycle pre, Cycle post) {
  return BirthWindow{start - pre, start + pre + post};
}

TransientRun drive_transient(Simulator& sim, const TransientOptions& options) {
  const auto& heartbeat = options.heartbeat;
  const auto accepted = [&sim] {
    const Simulator::Totals& t = sim.lifetime_totals();
    return t.generated - t.refused;
  };
  // The log opens at the window's first birth (cycle 0 when the warmup is
  // shorter than `pre`), so every packet born in the window is logged when
  // it is delivered.
  const Cycle lead = std::min(options.pre, options.warmup);
  bool ok = run_guarded(sim, options.warmup - lead, heartbeat);
  const BirthWindow logged =
      transient_birth_window(sim.now() + lead, options.pre, options.post);
  sim.enable_delivery_log(logged.lo, logged.hi);
  const std::int64_t accepted_lo = accepted();
  if (ok) ok = run_guarded(sim, lead, heartbeat);
  if (ok) ok = run_guarded(sim, options.pre, heartbeat);
  const Cycle switch_cycle = sim.now();
  sim.set_traffic(options.after);
  if (ok) ok = run_guarded(sim, options.post, heartbeat);
  if (ok) {
    // Births in the window are over (now == logged.hi): once the log holds
    // one record per packet born in it, no later delivery can add one.
    const std::int64_t born = accepted() - accepted_lo;
    const auto start = std::chrono::steady_clock::now();
    for (Cycle drained = 0; drained < kTransientDrain &&
                            sim.logged_deliveries() < born;
         drained += kDrainChunk) {
      sim.run(std::min(kDrainChunk, kTransientDrain - drained));
    }
    if (heartbeat) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      heartbeat(sim.now(), sim.lifetime_totals().delivered, elapsed.count());
    }
  }
  return TransientRun{switch_cycle, !ok};
}

TransientResult run_transient_rep(const SimParams& params,
                                  const TransientOptions& options,
                                  std::int32_t rep) {
  SimParams p = params;
  p.seed = params.seed + static_cast<std::uint64_t>(rep) * 7919u;
  p.traffic = options.before;
  Simulator sim(p);
  const TransientRun run = drive_transient(sim, options);
  TransientResult result(options.pre, options.post);
  if (run.timed_out) result.mark_timed_out();
  for (const Simulator::Delivery& d : sim.delivery_log()) {
    result.record(d.birth - run.switch_cycle, d.latency, d.misrouted);
  }
  return result;
}

TransientResult run_transient(const SimParams& params,
                              const TransientOptions& options) {
  check_reps(options.reps);
  TransientResult result(options.pre, options.post);
  for (std::int32_t rep = 0; rep < options.reps; ++rep) {
    result.merge(run_transient_rep(params, options, rep));
  }
  return result;
}

}  // namespace dfsim
