// Fault-overlay suite: the deterministic FaultModel schedule, the hard
// engine invariants under injected faults, and the crash-safe results
// writer.
//
//  - schedule: same params + seed -> identical fault sets; both directions
//    of a physical link marked; flap windows and next_event_after boundaries
//    exact (malformed params are test_simulator's rejected table).
//  - engine, all three topologies: per-cycle brute-force active-state checks
//    with faults firing mid-run, zero departures onto dead links (the
//    dead_link_hops hard invariant), exact lifetime packet conservation
//    (generated - refused = delivered + dropped + undeliverable + in-flight),
//    and traffic still flowing end to end around the holes.
//  - flap: links dying and reviving repeatedly, then a drain to idle and
//    re-activation — the stale-active-set trap under a changing link set.
//  - dead routers + hop cap: unreachable destinations burn out at the hop
//    cap into `undeliverable` instead of livelocking, conservation intact.
//  - onset beyond the horizon: a fault-enabled run is metric-identical to a
//    fault-free run until the first event (zero overhead when off).
//  - write_file_atomic: readers never observe a partial file; the temp file
//    never outlives the call.
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "engine/simulator.hpp"
#include "fault/fault_model.hpp"
#include "sim/config_io.hpp"
#include "topo/factory.hpp"
#include "util/atomic_file.hpp"

namespace {

using namespace dfsim;

SimParams base_for(TopologyKind topo) {
  switch (topo) {
    case TopologyKind::kFbfly: return presets::fbfly(4, 2, 4);
    case TopologyKind::kTorus: return presets::torus(8, 2, 2);
    case TopologyKind::kDragonfly: break;
  }
  return presets::tiny();
}

const char* name_of(TopologyKind topo) {
  switch (topo) {
    case TopologyKind::kFbfly: return "fbfly";
    case TopologyKind::kTorus: return "torus";
    case TopologyKind::kDragonfly: break;
  }
  return "dragonfly";
}

int check_every_cycle(Simulator& sim, Cycle cycles, const char* what) {
  for (Cycle c = 0; c < cycles; ++c) {
    sim.step();
    if (!sim.debug_check_active_state()) {
      std::fprintf(stderr, "fault active-state mismatch: %s at cycle %lld\n",
                   what, static_cast<long long>(sim.now()));
      return 1;
    }
  }
  return 0;
}

void hard_invariants(const Simulator& sim, const char* what) {
  if (sim.metrics().dead_link_hops != 0) {
    std::fprintf(stderr, "%s: %lld departures onto dead links\n", what,
                 static_cast<long long>(sim.metrics().dead_link_hops));
    std::abort();
  }
  if (sim.conservation_error() != 0) {
    std::fprintf(stderr, "%s: conservation error %lld\n", what,
                 static_cast<long long>(sim.conservation_error()));
    std::abort();
  }
}

// ---------------------------------------------------------------------------

void test_schedule_determinism() {
  const SimParams p = presets::tiny();
  const auto topo = make_topology(p);

  FaultParams fp;
  fp.enabled = true;
  fp.seed = 7;
  fp.link_fail_fraction = 0.2;
  fp.link_class = "global";
  const FaultModel a(fp, *topo, 1);
  const FaultModel b(fp, *topo, 999);  // run seed ignored when fp.seed != 0
  assert(a.faulty_links() == b.faulty_links());
  assert(a.dead_link_count() == b.dead_link_count());
  assert(a.dead_link_count() > 0);
  assert(a.flap_link_count() == 0);

  // fp.seed == 0 falls back to the run seed: different runs, different sets.
  FaultParams fp0 = fp;
  fp0.seed = 0;
  const FaultModel c(fp0, *topo, 1);
  const FaultModel d(fp0, *topo, 2);
  assert(c.dead_link_count() == d.dead_link_count());  // same count either way
  assert(c.faulty_links() != d.faulty_links());

  // Both directions of every failed physical link are down, the class
  // filter held, and healthy links stayed up.
  for (const std::int32_t id : a.faulty_links()) {
    const auto r = static_cast<RouterId>(id / topo->radix());
    const auto port = static_cast<PortIndex>(id % topo->radix());
    assert(topo->port_class(port) == PortClass::kGlobalClass);
    assert(a.link_down(r, port, 0));
    const RouterId pr = topo->peer(r, port);
    const PortIndex pp = topo->peer_port(r, port);
    assert(a.link_down(pr, pp, 0));
  }
}

void test_flap_windows() {
  const SimParams p = presets::tiny();
  const auto topo = make_topology(p);

  FaultParams fp;
  fp.enabled = true;
  fp.seed = 11;
  fp.link_fail_fraction = 0.1;
  fp.onset = 500;
  fp.flap_period = 100;
  fp.flap_down = 30;
  const FaultModel m(fp, *topo, 1);
  assert(m.flap_link_count() > 0);
  assert(m.dead_link_count() == 0);

  const std::int32_t id = m.faulty_links().front();
  const auto r = static_cast<RouterId>(id / topo->radix());
  const auto port = static_cast<PortIndex>(id % topo->radix());
  assert(!m.link_down(r, port, 0));
  assert(!m.link_down(r, port, 499));    // healthy until onset
  assert(m.link_down(r, port, 500));     // down phase of each window
  assert(m.link_down(r, port, 529));
  assert(!m.link_down(r, port, 530));    // back up for the rest
  assert(!m.link_down(r, port, 599));
  assert(m.link_down(r, port, 600));     // next window

  // Event boundaries: onset, then every down->up and up->down edge.
  assert(m.next_event_after(0) == 500);
  assert(m.next_event_after(499) == 500);
  assert(m.next_event_after(500) == 530);
  assert(m.next_event_after(530) == 600);
  assert(m.next_event_after(595) == 600);

  // A permanently-dead schedule has exactly one event: the onset.
  FaultParams fdead = fp;
  fdead.flap_period = 0;
  fdead.flap_down = 0;
  const FaultModel md(fdead, *topo, 1);
  assert(md.next_event_after(0) == 500);
  assert(md.next_event_after(500) == FaultModel::kNoEvent);
}

void test_engine_invariants_all_topologies() {
  for (const TopologyKind topo :
       {TopologyKind::kDragonfly, TopologyKind::kFbfly, TopologyKind::kTorus}) {
    SimParams p = base_for(topo);
    p.routing.kind = RoutingKind::kCbBase;
    p.traffic.kind = TrafficKind::kUniform;
    p.traffic.load = 0.3;
    p.seed = 17;
    p.fault.enabled = true;
    p.fault.seed = 5;
    p.fault.link_fail_fraction = 0.15;
    p.fault.onset = 300;  // the links die under a busy network

    Simulator sim(p);
    if (check_every_cycle(sim, 2000, name_of(topo))) std::exit(EXIT_FAILURE);
    hard_invariants(sim, name_of(topo));
    // Traffic still flows end to end around the dead links.
    assert(sim.metrics().delivered > 0);
    assert(sim.lifetime_totals().delivered > 0);
  }
}

void test_flap_drain_reactivation() {
  SimParams p = presets::tiny();
  p.routing.kind = RoutingKind::kCbBase;
  p.traffic.kind = TrafficKind::kUniform;
  p.traffic.load = 0.3;
  p.seed = 23;
  p.fault.enabled = true;
  p.fault.seed = 3;
  p.fault.link_fail_fraction = 0.15;
  p.fault.onset = 200;
  p.fault.flap_period = 120;
  p.fault.flap_down = 40;

  // Several full die/revive windows under load, checked every cycle.
  Simulator sim(p);
  if (check_every_cycle(sim, 1500, "flap")) std::exit(EXIT_FAILURE);
  hard_invariants(sim, "flap");
  assert(sim.metrics().delivered > 0);

  // Drain to fully idle across more flap windows: dropped in-flight packets
  // must have returned their credits and pool slots, or the drain stalls
  // and the brute-force check trips.
  TrafficParams off = p.traffic;
  off.load = 0.0;
  sim.set_traffic(off);
  if (check_every_cycle(sim, 6000, "flap-drain")) std::exit(EXIT_FAILURE);
  hard_invariants(sim, "flap-drain");
  assert(sim.packets_in_network() == 0);

  // Re-activate: the network wakes up and delivers again through links
  // that died and revived while it was idle.
  sim.begin_measurement();
  TrafficParams on = p.traffic;
  sim.set_traffic(on);
  if (check_every_cycle(sim, 1500, "flap-reactivate")) std::exit(EXIT_FAILURE);
  hard_invariants(sim, "flap-reactivate");
  assert(sim.metrics().generated > 0);
  assert(sim.metrics().delivered > 0);
}

void test_dead_routers_hop_cap() {
  SimParams p = presets::tiny();
  p.routing.kind = RoutingKind::kCbBase;
  p.traffic.kind = TrafficKind::kUniform;
  p.traffic.load = 0.2;
  p.seed = 29;
  p.fault.enabled = true;
  p.fault.seed = 13;
  p.fault.router_fail_fraction = 0.06;  // ~2 of tiny's 36 routers
  p.fault.hop_cap = 24;

  Simulator sim(p);
  if (check_every_cycle(sim, 4000, "dead-routers")) std::exit(EXIT_FAILURE);
  hard_invariants(sim, "dead-routers");
  // Packets for the dead routers' terminals can never arrive: the hop cap
  // must retire them as undeliverable instead of letting them orbit.
  assert(sim.lifetime_totals().undeliverable > 0);
  assert(sim.lifetime_totals().delivered > 0);
}

void test_zero_overhead_until_onset() {
  SimParams off = presets::tiny();
  off.routing.kind = RoutingKind::kCbBase;
  off.traffic.kind = TrafficKind::kUniform;
  off.traffic.load = 0.35;
  off.seed = 41;

  SimParams on = off;
  on.fault.enabled = true;
  on.fault.seed = 9;
  on.fault.link_fail_fraction = 0.2;
  on.fault.onset = 1000000;  // far beyond the horizon

  Simulator a(off);
  Simulator b(on);
  a.run(800);
  b.run(800);
  // Identical decisions cycle for cycle until the first fault event: the
  // overlay must not perturb RNG streams, routing, or timing.
  assert(a.metrics().generated == b.metrics().generated);
  assert(a.metrics().delivered == b.metrics().delivered);
  assert(a.metrics().misrouted == b.metrics().misrouted);
  assert(a.metrics().latency_sum == b.metrics().latency_sum);
  assert(b.metrics().dropped == 0);
  assert(b.metrics().dead_link_hops == 0);
}

void test_fault_config_keys() {
  SimParams p = presets::tiny();
  apply_param(p, "fault.enabled", "true");
  apply_param(p, "fault.seed", "42");
  apply_param(p, "fault.onset", "100");
  apply_param(p, "fault.link_fail_fraction", "0.25");
  apply_param(p, "fault.link_class", "global");
  apply_param(p, "fault.flap_period", "50");
  apply_param(p, "fault.flap_down", "10");
  apply_param(p, "fault.degrade_fraction", "0.1");
  apply_param(p, "fault.degrade_latency", "4");
  apply_param(p, "fault.hop_cap", "32");
  assert(p.fault.enabled);
  assert(p.fault.seed == 42);
  assert(p.fault.onset == 100);
  assert(p.fault.link_fail_fraction == 0.25);
  assert(p.fault.link_class == "global");
  assert(p.fault.flap_period == 50 && p.fault.flap_down == 10);
  assert(p.fault.degrade_latency == 4);
  assert(p.fault.hop_cap == 32);

  bool threw = false;
  try {
    apply_param(p, "fault.link_class", "quantum");
  } catch (const std::exception&) {
    threw = true;
  }
  assert(threw);
}

void test_atomic_write() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "dfsim_test_fault_atomic";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path target = dir / "results.json";

  auto read_all = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };

  // Fresh write, then overwrite: content is complete and the temp file
  // never survives the call.
  write_file_atomic(target.string(), "{\"v\":1}");
  assert(read_all(target) == "{\"v\":1}");
  write_file_atomic(target.string(), "{\"v\":2,\"longer\":true}");
  assert(read_all(target) == "{\"v\":2,\"longer\":true}");
  assert(!fs::exists(target.string() + ".tmp"));

  // Failure path: an unwritable destination throws and must not leave a
  // partial target or stray temp behind.
  const fs::path missing = dir / "no_such_subdir" / "results.json";
  bool threw = false;
  try {
    write_file_atomic(missing.string(), "partial");
  } catch (const std::exception&) {
    threw = true;
  }
  assert(threw);
  assert(!fs::exists(missing));
  assert(!fs::exists(missing.string() + ".tmp"));

  fs::remove_all(dir);
}

}  // namespace

int main() {
  test_schedule_determinism();
  test_flap_windows();
  test_engine_invariants_all_topologies();
  test_flap_drain_reactivation();
  test_dead_routers_hop_cap();
  test_zero_overhead_until_onset();
  test_fault_config_keys();
  test_atomic_write();
  return EXIT_SUCCESS;
}
