// End-to-end simulator sanity at tiny scale: conservation, routing-mechanism
// invariants (MIN never misroutes, VAL always does), throughput under light
// load, adversarial behavior ordering, transient experiments and their rep
// merge, the sweep's hand-out order, and up-front rejection, by name, of
// every value outside its parameter-table range or a cross-key rule.
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/experiment.hpp"
#include "engine/simulator.hpp"
#include "engine/sweep.hpp"
#include "sim/config_io.hpp"
#include "traffic/trace.hpp"
#include "util/format.hpp"

namespace {

dfsim::SteadyResult steady(dfsim::RoutingKind kind, dfsim::TrafficKind traffic,
                           double load) {
  dfsim::SimParams p = dfsim::presets::tiny();
  p.routing.kind = kind;
  p.traffic.kind = traffic;
  p.traffic.load = load;
  p.traffic.adv_offset = 1;
  dfsim::SteadyOptions opt;
  opt.warmup = 1500;
  opt.measure = 2000;
  return dfsim::run_steady(p, opt);
}

}  // namespace

int main() {
  using namespace dfsim;

  // Light uniform load: every mechanism must deliver close to offered load
  // with sane latencies.
  for (const RoutingKind kind :
       {RoutingKind::kMin, RoutingKind::kValiant, RoutingKind::kUgalL,
        RoutingKind::kPiggyback, RoutingKind::kOlm, RoutingKind::kCbBase,
        RoutingKind::kCbHybrid, RoutingKind::kCbEctn}) {
    const SteadyResult r = steady(kind, TrafficKind::kUniform, 0.2);
    if (r.throughput < 0.15 || r.latency_avg <= 0.0) {
      std::fprintf(stderr, "kind=%s throughput=%.3f latency=%.1f\n",
                   to_string(kind).c_str(), r.throughput, r.latency_avg);
      return EXIT_FAILURE;
    }
    assert(r.backlog_per_node < 4.0);
  }

  // MIN is always fully minimal; VAL misroutes (essentially) all
  // inter-group packets.
  {
    const SteadyResult min = steady(RoutingKind::kMin, TrafficKind::kUniform, 0.2);
    assert(min.misrouted_fraction == 0.0);
    assert(min.minimal_path_fraction == 1.0);
    const SteadyResult val =
        steady(RoutingKind::kValiant, TrafficKind::kAdversarial, 0.2);
    assert(val.misrouted_fraction > 0.9);
    // VAL pays extra hops: strictly higher latency than MIN under UN.
    const SteadyResult val_un =
        steady(RoutingKind::kValiant, TrafficKind::kUniform, 0.2);
    assert(val_un.latency_avg > min.latency_avg);
  }

  // Adversarial traffic: MIN collapses onto the single inter-group link
  // (huge backlog), while Base and VAL keep delivering.
  {
    const SteadyResult min =
        steady(RoutingKind::kMin, TrafficKind::kAdversarial, 0.35);
    const SteadyResult base =
        steady(RoutingKind::kCbBase, TrafficKind::kAdversarial, 0.35);
    const SteadyResult val =
        steady(RoutingKind::kValiant, TrafficKind::kAdversarial, 0.35);
    assert(min.backlog_per_node > 4.0);  // saturated
    if (!(base.throughput > 1.5 * min.throughput)) {
      std::fprintf(stderr, "ADV: base=%.3f min=%.3f val=%.3f\n",
                   base.throughput, min.throughput, val.throughput);
      return EXIT_FAILURE;
    }
    // Base misroutes most adversarial traffic once counters trigger.
    assert(base.misrouted_fraction > 0.3);
  }

  // Transient driver: birth-bucketed stats exist on both sides of the
  // switch, and counter-based misrouting ramps up after it.
  {
    SimParams p = presets::tiny();
    p.routing.kind = RoutingKind::kCbBase;
    TransientOptions topt;
    topt.before.kind = TrafficKind::kUniform;
    topt.before.load = 0.2;
    topt.after.kind = TrafficKind::kAdversarial;
    topt.after.adv_offset = 1;
    topt.after.load = 0.2;
    topt.warmup = 1000;
    topt.pre = 40;
    topt.post = 200;
    topt.reps = 2;
    const TransientResult res = run_transient(p, topt);
    assert(res.latency_at(-20, 20) > 0.0);
    assert(res.latency_at(150, 40) > 0.0);
    const double mis_before = res.misrouted_pct_at(-20, 20);
    const double mis_after = res.misrouted_pct_at(150, 40);
    if (!(mis_after > mis_before + 20.0)) {
      std::fprintf(stderr, "transient: mis before=%.1f after=%.1f\n",
                   mis_before, mis_after);
      return EXIT_FAILURE;
    }
  }

  // Reps merge to the same bits in any order: every merged value is a count
  // or a whole-number sum. run_transient (reps merged in rep order) equals
  // the reps merged in reverse; merging two results equals recording both
  // into one; an empty result merges as a no-op.
  {
    SimParams p = presets::tiny();
    p.routing.kind = RoutingKind::kCbBase;
    TransientOptions topt;
    topt.before.kind = TrafficKind::kUniform;
    topt.before.load = 0.2;
    topt.after = topt.before;
    topt.after.kind = TrafficKind::kAdversarial;
    topt.after.adv_offset = 1;
    topt.warmup = 500;
    topt.pre = 30;
    topt.post = 100;
    topt.reps = 3;
    const TransientResult all = run_transient(p, topt);
    TransientResult reversed(topt.pre, topt.post);
    for (std::int32_t rep = topt.reps - 1; rep >= 0; --rep) {
      reversed.merge(run_transient_rep(p, topt, rep));
    }
    assert(all == reversed);
    TransientResult first = run_transient_rep(p, topt, 0);
    assert(!(first == all));
    const TransientResult copy = first;
    first.merge(TransientResult(topt.pre, topt.post));
    assert(first == copy);

    TransientResult a(2, 3);
    TransientResult b(2, 3);
    TransientResult both(2, 3);
    a.record(-2, 5, true);
    b.record(-2, 7, false);
    b.record(2, 9, true);
    b.mark_timed_out();
    both.record(-2, 5, true);
    both.record(-2, 7, false);
    both.record(2, 9, true);
    both.mark_timed_out();
    a.merge(b);
    assert(a == both && a.timed_out());
    assert(a.latency_at(-2, 1) == 6.0 && a.misrouted_pct_at(2, 1) == 100.0);
  }

  // The transient log's birth window holds every birth TransientResult
  // keeps wherever the switch lands in [start, start + pre]: at start + pre
  // normally, earlier when the watchdog stops the pre run (start itself
  // when it stops the warmup and the pre run is skipped).
  for (const Cycle pre : {Cycle{0}, Cycle{1}, Cycle{50}}) {
    const Cycle start = 1000;
    const Cycle post = 250;
    const BirthWindow logged = transient_birth_window(start, pre, post);
    for (Cycle at = start; at <= start + pre; ++at) {
      assert(logged.lo <= at - pre && at + post <= logged.hi);
    }
  }

  // Sweep engine: results come back in order and match serial runs.
  {
    SimParams p = presets::tiny();
    SteadyOptions opt;
    opt.warmup = 400;
    opt.measure = 600;
    std::vector<SweepPoint> points;
    for (const double load : {0.1, 0.3}) {
      SweepPoint pt{p, opt};
      pt.params.traffic.load = load;
      points.push_back(pt);
    }
    const auto parallel = run_sweep(points, 2);
    const auto serial0 = run_steady(points[0].params, opt);
    const auto serial1 = run_steady(points[1].params, opt);
    assert(parallel.size() == 2);
    assert(parallel[0].throughput == serial0.throughput);
    assert(parallel[1].throughput == serial1.throughput);
    assert(parallel[0].latency_avg == serial0.latency_avg);
    assert(parallel[1].latency_avg == serial1.latency_avg);
  }

  // Points are handed out heaviest first: descending load, input order
  // among equal loads (here 1, 3, 2, 0). Results still land by index, and
  // of two invalid points the one handed out first reports, at every worker
  // count.
  for (const int threads : {1, 2, 4}) {
    SteadyOptions opt;
    opt.warmup = 100;
    opt.measure = 200;
    std::vector<SweepPoint> points;
    for (const double load : {0.1, 0.4, 0.2, 0.4}) {
      SweepPoint pt{presets::tiny(), opt};
      pt.params.traffic.load = load;
      pt.params.seed = points.size() + 1;
      points.push_back(pt);
    }
    const auto results = run_sweep(points, threads);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const SteadyResult serial = run_steady(points[i].params, opt);
      assert(results[i].generated_load == serial.generated_load);
      assert(results[i].latency_avg == serial.latency_avg);
    }
    apply_param(points[0].params, "router.vcs_injection", "0");
    apply_param(points[2].params, "router.vcs_global", "0");
    std::string what;
    try {
      (void)run_sweep(points, threads);
    } catch (const std::invalid_argument& e) {
      what = e.what();
    }
    if (what.find("router.vcs_global") == std::string::npos) {
      std::fprintf(stderr, "run_sweep hand-out at threads=%d: got '%s'\n",
                   threads, what.c_str());
      return EXIT_FAILURE;
    }
  }

  // Multi-rep quantiles come from the POOLED latency histogram, not from
  // averaging per-rep quantiles (the mean of p99s is not the p99 of the
  // combined sample). Reproduce run_steady's reps by hand, merge the
  // histograms, and check the driver reports the merged order statistics.
  {
    SimParams p = presets::tiny();
    p.routing.kind = RoutingKind::kCbBase;
    p.traffic.kind = TrafficKind::kAdversarial;
    p.traffic.adv_offset = 1;
    p.traffic.load = 0.30;  // near saturation: rep-to-rep tails differ
    p.seed = 3;
    SteadyOptions opt;
    opt.warmup = 400;
    opt.measure = 800;
    opt.reps = 3;

    LatencyHistogram pooled;
    double mean_of_p99 = 0.0;
    for (std::int32_t rep = 0; rep < opt.reps; ++rep) {
      SimParams q = p;
      q.seed = p.seed + static_cast<std::uint64_t>(rep) * 7919u;
      Simulator sim(q);
      sim.run(opt.warmup);
      sim.begin_measurement();
      sim.run(opt.measure);
      pooled.merge(sim.metrics().latency_hist);
      mean_of_p99 += sim.metrics().latency_hist.quantile(0.99);
    }
    mean_of_p99 /= static_cast<double>(opt.reps);

    const SteadyResult r = run_steady(p, opt);
    assert(r.latency_p50 == pooled.quantile(0.50));
    assert(r.latency_p95 == pooled.quantile(0.95));
    assert(r.latency_p99 == pooled.quantile(0.99));
    // The old mean-of-quantiles aggregation genuinely differed here.
    assert(r.latency_p99 != mean_of_p99);
  }

  // Every configuration is checked once, against the parameter table:
  // `set` is ';'-separated key=value assignments on tiny, as --set takes
  // them, and the constructor reports the first failing key.
  const auto error_of = [](const std::string& set) {
    SimParams p = presets::tiny();
    std::stringstream ss(set);
    std::string assignment;
    while (std::getline(ss, assignment, ';')) {
      const std::size_t eq = assignment.find('=');
      apply_param(p, assignment.substr(0, eq), assignment.substr(eq + 1));
    }
    try {
      Simulator sim(p);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const auto rejected = [&](const std::string& key, const std::string& set) {
    const std::string what = error_of(set);
    if (what.find(key) != std::string::npos) return true;
    std::fprintf(stderr, "%s not rejected by %s (got '%s')\n", set.c_str(),
                 key.c_str(), what.c_str());
    return false;
  };
  const auto accepted = [&](const std::string& set) {
    const std::string what = error_of(set);
    if (what.empty()) return true;
    std::fprintf(stderr, "%s rejected: %s\n", set.c_str(), what.c_str());
    return false;
  };
  // Each bounded row: its bound runs, one step past it is rejected by name.
  for (const ParamRange& range : param_ranges()) {
    const double step = range.integral ? 1.0 : 1e-9;
    const auto set = [&range](double v) {
      return std::string(range.key) + "=" +
             (range.integral ? std::to_string(static_cast<std::int64_t>(v))
                             : shortest_round_trip(v));
    };
    for (const auto& [bound, past] : {std::pair{range.lo, range.lo - step},
                                      std::pair{range.hi, range.hi + step}}) {
      if (!std::isfinite(bound)) continue;
      if (!accepted(set(bound)) || !rejected(range.key, set(past))) {
        return EXIT_FAILURE;
      }
    }
  }
  // The rules that tie keys together: a buffer holds one packet, a shard
  // owns a router, a flap is down for part of its period, telemetry and
  // tracing run on one shard, the hot set fits the network, and trace
  // replay needs a readable trace.
  const SimParams tiny = presets::tiny();
  const auto with = [](const std::string& key, std::int32_t value) {
    return key + "=" + std::to_string(value);
  };
  const std::string trace_path = "test_simulator_replay.trace";
  write_trace(trace_path, {TraceRecord{10, 0, 5}});
  using Case = std::tuple<std::string, std::string, std::string>;
  const Case cases[] = {
      {"router.buf_local_phits",
       with("router.buf_local_phits", tiny.packet_size_phits),
       with("router.buf_local_phits", tiny.packet_size_phits - 1)},
      {"router.buf_global_phits",
       with("router.buf_global_phits", tiny.packet_size_phits),
       with("router.buf_global_phits", tiny.packet_size_phits - 1)},
      {"engine.threads", with("engine.threads", tiny.routers()),
       with("engine.threads", tiny.routers() + 1)},
      {"fault.flap_down",
       "fault.enabled=1;fault.flap_period=50;fault.flap_down=49",
       "fault.enabled=1;fault.flap_period=50;fault.flap_down=50"},
      {"fault.flap_down", "fault.enabled=1;fault.flap_down=0",
       "fault.enabled=1;fault.flap_period=50;fault.flap_down=0"},
      {"fault.link_fail_fraction",
       "fault.enabled=1;fault.link_fail_fraction=1",
       "fault.enabled=1;fault.link_fail_fraction=1.5"},
      {"telemetry.enabled", "telemetry.enabled=1",
       "telemetry.enabled=1;engine.threads=2"},
      {"trace.enabled", "trace.enabled=1", "trace.enabled=1;engine.threads=2"},
      {"traffic.hotspot_count",
       "traffic.kind=hotspot;" + with("traffic.hotspot_count", tiny.nodes()),
       "traffic.kind=hotspot;" +
           with("traffic.hotspot_count", tiny.nodes() + 1)},
      {"traffic.trace_path", "traffic.trace_path=" + trace_path,
       "traffic.kind=trace"},
      {"traffic.trace_path", "traffic.trace_path=" + trace_path,
       "traffic.trace_path=/nonexistent.trace"},
  };
  for (const auto& [key, good, bad] : cases) {
    if (!accepted(good) || !rejected(key, bad)) return EXIT_FAILURE;
  }
  std::remove(trace_path.c_str());

  // A sweep point that throws stops the pool, and the exception reaches the
  // caller instead of escaping a worker thread (std::terminate). With two
  // invalid points the lower index's exception surfaces at every worker
  // count.
  for (const int threads : {1, 2, 4}) {
    SteadyOptions opt;
    opt.warmup = 100;
    opt.measure = 100;
    std::vector<SweepPoint> points(8, SweepPoint{presets::tiny(), opt});
    apply_param(points[3].params, "router.vcs_injection", "0");
    apply_param(points[6].params, "router.vcs_global", "0");
    std::string what;
    try {
      (void)run_sweep(points, threads);
    } catch (const std::invalid_argument& e) {
      what = e.what();
    }
    if (what.find("router.vcs_injection") == std::string::npos) {
      std::fprintf(stderr, "run_sweep threads=%d: got '%s'\n", threads,
                   what.c_str());
      return EXIT_FAILURE;
    }
  }

  return EXIT_SUCCESS;
}
