// Acceptance gate: Simulator::step() at the medium preset performs zero heap
// allocations after warmup. allocation_events() counts packet-pool growth,
// calendar-bucket growth and delivery-log growth; it must be flat across the
// post-warmup window. The last case runs four shards, where every shard's
// pool, mailboxes and rings must hold the same property.
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "engine/simulator.hpp"

int main() {
  using namespace dfsim;

  SimParams params = presets::medium();
  params.routing.kind = RoutingKind::kCbBase;
  params.traffic.kind = TrafficKind::kUniform;
  params.traffic.load = 0.3;

  Simulator sim(params);
  sim.run(1500);  // reach steady occupancy

  const std::int64_t events_after_warmup = sim.allocation_events();
  sim.run(1000);
  const std::int64_t events_after_measure = sim.allocation_events();

  if (events_after_measure != events_after_warmup) {
    std::fprintf(stderr,
                 "allocation events grew after warmup: %lld -> %lld\n",
                 static_cast<long long>(events_after_warmup),
                 static_cast<long long>(events_after_measure));
    return EXIT_FAILURE;
  }

  // The pooled allocator must also actually recycle: packets were delivered
  // and the pool population is bounded by its preallocated upper bound.
  assert(sim.metrics().delivered > 0);
  assert(sim.pool_grow_events() == 0);  // never beyond the reserve

  // Same property for the adversarial pattern with ECtN (exercises the
  // snapshot path).
  SimParams adv = presets::medium();
  adv.routing.kind = RoutingKind::kCbEctn;
  adv.traffic.kind = TrafficKind::kAdversarial;
  adv.traffic.load = 0.25;
  Simulator sim2(adv);
  sim2.run(1500);
  const std::int64_t base2 = sim2.allocation_events();
  sim2.run(1000);
  if (sim2.allocation_events() != base2) {
    std::fprintf(stderr, "ECtN/ADV run allocated after warmup\n");
    return EXIT_FAILURE;
  }

  // And with the traffic subsystem's skewed/bursty models active: hotspot
  // destinations under a bursty on/off injection process must stay on the
  // pre-resolved zero-allocation hot path too.
  SimParams hot = presets::medium();
  hot.routing.kind = RoutingKind::kCbBase;
  hot.traffic.kind = TrafficKind::kHotspot;
  hot.traffic.hotspot_count = 16;
  hot.traffic.injection = InjectionProcess::kBursty;
  hot.traffic.load = 0.25;
  Simulator sim3(hot);
  sim3.run(1500);
  const std::int64_t base3 = sim3.allocation_events();
  sim3.run(1000);
  if (sim3.allocation_events() != base3) {
    std::fprintf(stderr, "hotspot/bursty run allocated after warmup\n");
    return EXIT_FAILURE;
  }
  assert(sim3.metrics().delivered > 0);

  // Four shards under saturated ADV+1, with a global-link fault onset in
  // warmup so the purge walks the in-flight rings. Odd-length run() calls
  // end on both cycle parities, each leaving cross-shard link sends pending
  // in an outbox; the pools, queues, rings and those sends must still
  // account for every packet.
  SimParams sharded = presets::medium();
  sharded.routing.kind = RoutingKind::kCbBase;
  sharded.traffic.kind = TrafficKind::kAdversarial;
  sharded.traffic.adv_offset = 1;
  sharded.traffic.load = 0.6;
  sharded.engine.threads = 4;
  sharded.fault.enabled = true;
  sharded.fault.onset = 1000;
  sharded.fault.link_fail_fraction = 0.05;
  sharded.fault.link_class = "global";
  Simulator sim4(sharded);
  std::int64_t base4 = 0;
  for (const Cycle n : {Cycle{999}, Cycle{501}, Cycle{101}, Cycle{333},
                        Cycle{77}, Cycle{489}}) {
    sim4.run(n);
    if (!sim4.debug_check_active_state() || sim4.conservation_error() != 0) {
      std::fprintf(stderr, "sharded accounting broken at cycle %lld\n",
                   static_cast<long long>(sim4.now()));
      return EXIT_FAILURE;
    }
    if (sim4.now() == 1500) base4 = sim4.allocation_events();  // warm
  }
  if (sim4.allocation_events() != base4) {
    std::fprintf(stderr, "sharded run allocated after warmup: %lld -> %lld\n",
                 static_cast<long long>(base4),
                 static_cast<long long>(sim4.allocation_events()));
    return EXIT_FAILURE;
  }
  assert(sim4.pool_grow_events() == 0);
  assert(sim4.lifetime_totals().dropped > 0);  // the onset purged rings
  assert(sim4.metrics().refused > 0);          // saturated

  return EXIT_SUCCESS;
}
