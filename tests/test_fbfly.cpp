// Flattened butterfly on the unified engine: topology invariants, delivery
// under uniform traffic, MIN collapse vs CB recovery under the row
// adversary, and the delivery log (a feature the old forked fbfly simulator
// had silently lost).
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "engine/simulator.hpp"
#include "topo/fbfly.hpp"

namespace {

dfsim::SimParams make(dfsim::RoutingKind routing, dfsim::TrafficKind kind,
                      double load) {
  dfsim::SimParams p = dfsim::presets::fbfly(4, 2, 4);
  p.routing.kind = routing;
  p.traffic.kind = kind;
  p.traffic.adv_offset = 1;  // row adversary ("ADJ") under the FB grouping
  p.traffic.load = load;
  p.seed = 3;
  return p;
}

}  // namespace

int main() {
  using namespace dfsim;

  const FbflyParams shape{4, 2, 4};
  assert(shape.routers() == 16);
  assert(shape.nodes() == 64);
  assert(shape.channels() == 6);

  // Topology invariants: peer links are symmetric, DOR is minimal and
  // reaches the destination within n hops.
  {
    const FlattenedButterflyTopology topo(shape);
    assert(topo.routers() == 16);
    assert(topo.forward_ports() == 6);
    assert(topo.concentration() == 4);
    for (RouterId r = 0; r < topo.routers(); ++r) {
      for (PortIndex port = 0; port < topo.forward_ports(); ++port) {
        const RouterId peer = topo.peer(r, port);
        const PortIndex back = topo.peer_port(r, port);
        assert(peer != r);
        assert(topo.peer(peer, back) == r);
        assert(topo.peer_port(peer, back) == port);
      }
      for (RouterId dr = 0; dr < topo.routers(); ++dr) {
        RouterId at = r;
        std::int32_t hops = 0;
        while (at != dr) {
          const PortIndex port = topo.route_toward(at, dr);
          assert(port >= 0 && port < topo.forward_ports());
          at = topo.peer(at, port);
          ++hops;
          assert(hops <= shape.n);
        }
        assert(hops == topo.dor_hops(r, dr));
      }
    }
  }

  // Uniform light load: MIN delivers ~offered load, zero misrouting, CB
  // matches it (no false triggers).
  {
    Simulator min_sim(make(RoutingKind::kMin, TrafficKind::kUniform, 0.2));
    min_sim.run(1000);
    min_sim.begin_measurement();
    min_sim.run(2000);
    assert(min_sim.throughput() > 0.15);
    assert(min_sim.metrics().misrouted_fraction() == 0.0);

    Simulator cb_sim(make(RoutingKind::kCbBase, TrafficKind::kUniform, 0.2));
    cb_sim.run(1000);
    cb_sim.begin_measurement();
    cb_sim.run(2000);
    assert(cb_sim.throughput() > 0.15);
    assert(cb_sim.metrics().misrouted_fraction() < 0.05);
  }

  // Row adversary at a load past the single-channel cap (1/c = 0.25): MIN
  // saturates; CB and VAL recover bandwidth through nonminimal paths.
  {
    Simulator min_sim(
        make(RoutingKind::kMin, TrafficKind::kAdversarial, 0.5));
    min_sim.run(1000);
    min_sim.begin_measurement();
    min_sim.run(2000);

    Simulator cb_sim(
        make(RoutingKind::kCbBase, TrafficKind::kAdversarial, 0.5));
    cb_sim.run(1000);
    cb_sim.begin_measurement();
    cb_sim.run(2000);

    if (!(cb_sim.throughput() > 1.15 * min_sim.throughput())) {
      std::fprintf(stderr, "ADJ: cb=%.3f min=%.3f\n", cb_sim.throughput(),
                   min_sim.throughput());
      return EXIT_FAILURE;
    }
    assert(cb_sim.metrics().misrouted_fraction() > 0.3);
    assert(min_sim.backlog_per_node() > cb_sim.backlog_per_node());
  }

  // Delivery log + mid-run traffic switch (the transient bench workflow).
  {
    Simulator sim(make(RoutingKind::kCbBase, TrafficKind::kUniform, 0.3));
    sim.run(500);
    const Cycle switch_cycle = sim.now();
    SimParams adv = make(RoutingKind::kCbBase, TrafficKind::kAdversarial, 0.3);
    sim.set_traffic(adv.traffic);
    sim.enable_delivery_log();
    sim.run(1000);
    assert(!sim.delivery_log().empty());
    bool saw_post_switch_misroute = false;
    for (const Simulator::Delivery& d : sim.delivery_log()) {
      assert(d.latency > 0);
      if (d.birth >= switch_cycle && d.misrouted) {
        saw_post_switch_misroute = true;
      }
    }
    assert(saw_post_switch_misroute);
  }

  // ECtN is dragonfly-shaped; the engine must reject it here loudly rather
  // than run a broken snapshot.
  {
    bool threw = false;
    try {
      Simulator sim(make(RoutingKind::kCbEctn, TrafficKind::kUniform, 0.2));
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    assert(threw);
  }

  return EXIT_SUCCESS;
}
