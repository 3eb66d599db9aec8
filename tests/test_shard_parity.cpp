// Sharded-engine parity suite (ROADMAP item 1).
//
// (1) threads = 1 must be the serial engine, bit for bit: an explicit
//     engine.threads = 1 run reproduces the default-constructed engine's
//     SteadyResult exactly for every mechanism on all three topologies.
//     (The absolute numbers are pinned by test_engine_equivalence's
//     18-row golden table, which runs with the default engine params —
//     keeping that suite green is the other half of this property.)
// (2) Deterministic-parallel goldens: a sharded run is a pure function of
//     (params, seed, engine.threads). Every randomized configuration is run
//     twice at the same shard count and must match bit for bit, including
//     the fault-overlay conservation columns.
// (3) Cross-shard-count parity: threads = k is NOT bit-exact vs threads = 1
//     (per-shard RNG streams, one-cycle cross-shard credit return,
//     occupancy-snapshot staleness — see ARCHITECTURE.md), but it simulates
//     the same physical network: offered load matches closely and accepted
//     throughput lands within a seed-variation band. Hard invariants
//     (packet conservation, zero dead-link traversals) hold exactly.
// (4) Structural invariants: debug_check_active_state() after a sharded run
//     — per-shard summary masks and link timing wheels, pool accounting
//     across shard-id ranges, lifetime conservation.
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "engine/experiment.hpp"
#include "engine/simulator.hpp"
#include "sim/config.hpp"
#include "util/rng.hpp"

namespace {

using namespace dfsim;

bool bitwise_equal(const SteadyResult& a, const SteadyResult& b) {
  return a.throughput == b.throughput && a.latency_avg == b.latency_avg &&
         a.latency_p50 == b.latency_p50 && a.latency_p95 == b.latency_p95 &&
         a.latency_p99 == b.latency_p99 &&
         a.misrouted_fraction == b.misrouted_fraction &&
         a.local_misrouted_fraction == b.local_misrouted_fraction &&
         a.minimal_path_fraction == b.minimal_path_fraction &&
         a.backlog_per_node == b.backlog_per_node &&
         a.generated_load == b.generated_load &&
         a.dropped_pct == b.dropped_pct &&
         a.undeliverable_pct == b.undeliverable_pct &&
         a.dead_traversals == b.dead_traversals &&
         a.conservation_error == b.conservation_error;
}

SimParams base_params(int topo_pick) {
  switch (topo_pick) {
    case 0: return presets::tiny();
    case 1: return presets::fbfly(4, 2, 4);
    default: return presets::torus(8, 2, 2);
  }
}

SteadyResult run_cfg(const SimParams& p, std::int32_t threads) {
  SimParams q = p;
  q.engine.threads = threads;
  SteadyOptions opt;
  opt.warmup = 300;
  opt.measure = 500;
  return run_steady(q, opt);
}

}  // namespace

int main() {
  // --- (1) explicit threads = 1 is bitwise the default serial engine ------
  for (int topo = 0; topo < 3; ++topo) {
    for (const RoutingKind kind :
         {RoutingKind::kMin, RoutingKind::kUgalL, RoutingKind::kCbBase,
          RoutingKind::kCbHybrid}) {
      SimParams p = base_params(topo);
      p.routing.kind = kind;
      p.traffic.kind = TrafficKind::kAdversarial;
      p.traffic.load = 0.3;
      p.traffic.adv_offset = topo == 2 ? 4 : 1;
      p.seed = 999;
      SimParams serial = p;  // engine params left at their defaults
      const SteadyResult a = run_cfg(p, 1);
      SteadyOptions opt;
      opt.warmup = 300;
      opt.measure = 500;
      const SteadyResult b = run_steady(serial, opt);
      if (!bitwise_equal(a, b)) {
        std::fprintf(stderr, "threads=1 not bit-exact: topo=%d kind=%d\n",
                     topo, static_cast<int>(kind));
        return EXIT_FAILURE;
      }
    }
  }

  // --- (2)+(3) randomized configs: deterministic at fixed shard count,
  // physically consistent across shard counts ------------------------------
  Rng fuzz(0xF0E1D2C3B4A59687ull);
  const RoutingKind kinds[] = {RoutingKind::kMin, RoutingKind::kValiant,
                               RoutingKind::kUgalL, RoutingKind::kUgalG,
                               RoutingKind::kPiggyback, RoutingKind::kOlm,
                               RoutingKind::kCbBase, RoutingKind::kCbHybrid};
  const TrafficKind traffics[] = {TrafficKind::kUniform,
                                  TrafficKind::kAdversarial,
                                  TrafficKind::kShift, TrafficKind::kHotspot};
  const std::int32_t shard_counts[] = {2, 3, 5};
  for (int trial = 0; trial < 12; ++trial) {
    const int topo = static_cast<int>(fuzz.next_below(3));
    SimParams p = base_params(topo);
    p.routing.kind = kinds[fuzz.next_below(8)];
    if (topo != 0 && p.routing.kind == RoutingKind::kUgalG) {
      p.routing.kind = RoutingKind::kUgalL;  // remote probes: dragonfly only
    }
    p.traffic.kind = traffics[fuzz.next_below(4)];
    p.traffic.load = 0.1 + 0.05 * static_cast<double>(fuzz.next_below(5));
    p.traffic.adv_offset = topo == 2 ? 4 : 1;
    p.seed = 1000 + static_cast<std::uint64_t>(trial);
    if (fuzz.next_bool(0.4)) {
      p.fault.enabled = true;
      p.fault.onset = 400;
      p.fault.link_fail_fraction = 0.05;
      if (topo == 0) p.fault.link_class = "global";
    }
    const std::int32_t threads = shard_counts[fuzz.next_below(3)];

    const SteadyResult serial = run_cfg(p, 1);
    const SteadyResult sharded = run_cfg(p, threads);
    const SteadyResult again = run_cfg(p, threads);
    if (!bitwise_equal(sharded, again)) {
      std::fprintf(stderr,
                   "trial %d: threads=%d run is not deterministic "
                   "(thr %.17g vs %.17g, lat %.17g vs %.17g)\n",
                   trial, threads, sharded.throughput, again.throughput,
                   sharded.latency_avg, again.latency_avg);
      return EXIT_FAILURE;
    }

    // Hard invariants hold exactly in both engines.
    assert(serial.conservation_error == 0.0);
    assert(sharded.conservation_error == 0.0);
    assert(serial.dead_traversals == 0.0);
    assert(sharded.dead_traversals == 0.0);

    // Offered load is the same Bernoulli process over the same node count
    // (different streams): equal in expectation, close in any window.
    const double gen_tol = 0.15 * serial.generated_load + 0.01;
    if (std::fabs(sharded.generated_load - serial.generated_load) > gen_tol) {
      std::fprintf(stderr, "trial %d: generated load %.4f vs %.4f\n", trial,
                   sharded.generated_load, serial.generated_load);
      return EXIT_FAILURE;
    }
    // Accepted throughput: same network, seed-variation band. Saturated
    // configs pin to the same capacity; unsaturated ones to the same load.
    const double thr_tol = 0.2 * serial.throughput + 0.02;
    if (std::fabs(sharded.throughput - serial.throughput) > thr_tol) {
      std::fprintf(stderr, "trial %d: throughput %.4f vs %.4f (t=%d)\n",
                   trial, sharded.throughput, serial.throughput, threads);
      return EXIT_FAILURE;
    }
  }

  // --- (4) structural invariants after a sharded run ----------------------
  for (const std::int32_t threads : {1, 2, 5}) {
    SimParams p = presets::tiny();
    p.routing.kind = RoutingKind::kCbBase;
    p.traffic.kind = TrafficKind::kAdversarial;
    p.traffic.load = 0.4;
    p.traffic.adv_offset = 1;
    p.seed = 7;
    p.engine.threads = threads;
    p.fault.enabled = true;
    p.fault.onset = 200;
    p.fault.link_fail_fraction = 0.1;
    p.fault.link_class = "global";
    Simulator sim(p);
    assert(sim.shard_count() == threads);
    sim.run(600);
    assert(sim.debug_check_active_state());
    sim.run(1);  // odd chunking exercises the dispatch path again
    sim.run(399);
    assert(sim.debug_check_active_state());
    assert(sim.conservation_error() == 0);
  }

  // One shard per router is the most the engine runs, and it keeps every
  // invariant; one shard more is rejected by name instead of leaving a
  // shard without routers.
  {
    SimParams p = presets::tiny();
    p.traffic.load = 0.2;
    p.engine.threads = p.topo.routers();  // 36
    Simulator sim(p);
    assert(sim.shard_count() == 36);
    sim.run(400);
    assert(sim.debug_check_active_state());
    assert(sim.conservation_error() == 0);

    p.engine.threads = p.topo.routers() + 1;
    std::string what;
    try {
      Simulator too_many(p);
    } catch (const std::invalid_argument& e) {
      what = e.what();
    }
    if (what.find("engine.threads") == std::string::npos) {
      std::fprintf(stderr, "threads=37 on 36 routers not rejected ('%s')\n",
                   what.c_str());
      return EXIT_FAILURE;
    }
  }

  return EXIT_SUCCESS;
}
