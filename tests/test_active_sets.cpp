// Active-set invariant suite: the engine's O(active) bookkeeping (queue
// occupancy bits + router summary mask + link timing wheel + pool
// accounting) must exactly match a brute-force scan of the dense state on
// EVERY cycle — across all three topologies, under the skewed traffic that
// churns the sets hardest (hotspot destinations with a bursty on/off
// injection process), through the classic stale-active-list trap (drain the
// network to fully idle, then re-activate it), and at the wheel's boundary:
// degraded links whose flight is exactly a power of two plus flapping links
// that purge rings mid-flight, serial and sharded.
//
// debug_check_active_state() performs the brute-force comparison; see
// engine/simulator.hpp. A stale bit (queue drained but still flagged, or
// flagged router with no occupied queue), a missing, duplicated or
// misplaced wheel bit, or a leaked packet all fail the check.
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "engine/simulator.hpp"

namespace {

using namespace dfsim;

SimParams base_for(TopologyKind topo) {
  SimParams p;
  switch (topo) {
    case TopologyKind::kDragonfly:
      p = presets::tiny();
      break;
    case TopologyKind::kFbfly:
      p = presets::fbfly(4, 2, 4);
      break;
    case TopologyKind::kTorus:
      p = presets::torus(8, 2, 2);
      break;
  }
  return p;
}

const char* name_of(TopologyKind topo) {
  switch (topo) {
    case TopologyKind::kDragonfly: return "dragonfly";
    case TopologyKind::kFbfly: return "fbfly";
    case TopologyKind::kTorus: return "torus";
  }
  return "?";
}

int check_every_cycle(Simulator& sim, Cycle cycles, const char* what) {
  for (Cycle c = 0; c < cycles; ++c) {
    sim.step();
    if (!sim.debug_check_active_state() || sim.conservation_error() != 0) {
      std::fprintf(stderr, "active-set mismatch: %s at cycle %lld\n", what,
                   static_cast<long long>(sim.now()));
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main() {
  for (const TopologyKind topo :
       {TopologyKind::kDragonfly, TopologyKind::kFbfly, TopologyKind::kTorus}) {
    // --- per-cycle equivalence under hotspot + bursty churn ---------------
    SimParams p = base_for(topo);
    p.routing.kind = RoutingKind::kCbBase;
    // Hot-set sizing keeps the per-hot-node demand just under the 1
    // phit/cycle ejection bound, so the drain below terminates quickly;
    // the saturated drain (slow, long) is covered in test_saturation.
    p.traffic.kind = TrafficKind::kHotspot;
    p.traffic.hotspot_count = 4;
    p.traffic.hotspot_fraction = 0.2;
    p.traffic.injection = InjectionProcess::kBursty;
    p.traffic.load = 0.25;
    p.seed = 31;
    Simulator sim(p);
    if (check_every_cycle(sim, 1500, name_of(topo))) return EXIT_FAILURE;
    assert(sim.metrics().delivered > 0);

    // --- drain to fully idle, then re-activate ----------------------------
    // A queue bit or wheel bit that survives the drain (the stale-active
    // state bug) either trips the brute-force check while idle or wrongly
    // schedules work on the first cycles after re-activation.
    TrafficParams off = p.traffic;
    off.load = 0.0;
    sim.set_traffic(off);
    // Generously past the longest in-flight latency at these scales.
    if (check_every_cycle(sim, 6000, "drain")) return EXIT_FAILURE;
    sim.begin_measurement();
    sim.run(50);
    // Fully idle: nothing generated, nothing delivered, no backlog.
    assert(sim.metrics().generated == 0);
    assert(sim.metrics().delivered == 0);
    assert(sim.backlog_per_node() == 0.0);
    assert(sim.debug_check_active_state());

    TrafficParams on = p.traffic;
    on.injection = InjectionProcess::kBernoulli;
    on.kind = TrafficKind::kUniform;
    on.load = 0.3;
    sim.set_traffic(on);
    sim.begin_measurement();
    if (check_every_cycle(sim, 1200, "re-activation")) return EXIT_FAILURE;
    // The network genuinely woke up: traffic flows end to end again.
    assert(sim.metrics().generated > 0);
    assert(sim.metrics().delivered > 0);
  }

  // --- wheel boundary: degraded and flapping links, serial and sharded ---
  // The wheel has bit_ceil(longest flight + 1) buckets. Tiny's global
  // flight is pipeline + latency + packet size = 33 cycles; degrading by 31
  // makes the longest flight exactly 64, so a departure's front lands a
  // full power of two ahead of the walk. Degrading by 40 makes it 73, past
  // the 64 buckets the undegraded links alone would need. Flapping links
  // purge rings mid-flight, which must clear their wheel bits.
  for (const std::int32_t degrade : {31, 40}) {
    for (const std::int32_t threads : {1, 2, 4}) {
      SimParams p = presets::tiny();
      assert(p.router.pipeline_cycles + p.link.global_latency +
                 p.packet_size_phits == 33);
      p.routing.kind = RoutingKind::kCbBase;
      p.traffic.load = 0.3;
      p.seed = 7;
      p.engine.threads = threads;
      p.fault.enabled = true;
      p.fault.onset = 100;
      p.fault.degrade_fraction = 0.5;
      p.fault.degrade_latency = degrade;
      p.fault.link_fail_fraction = 0.1;
      p.fault.flap_period = 90;
      p.fault.flap_down = 25;
      Simulator sim(p);
      if (check_every_cycle(sim, 1500, "degraded + flapping links")) {
        std::fprintf(stderr, "  (degrade %d, threads %d)\n", degrade,
                     threads);
        return EXIT_FAILURE;
      }
      // Rings really were purged in flight, and traffic kept flowing.
      assert(sim.lifetime_totals().dropped > 0);
      assert(sim.metrics().delivered > 0);
    }
  }

  return EXIT_SUCCESS;
}
