// Seeded CHK-ALLOC violation: a push_back in a templated cycle phase,
// reachable from Simulator::step through the topology dispatch.
#include "engine/simulator.hpp"

namespace dfsim {

template <class Topo>
void Simulator::route_and_allocate(Shard& sh, const Topo& topo) {
  sh.scratch.push_back(topo.radix());  // VIOLATION: allocation in the hot path
}

template <class Topo>
void Simulator::cycle(Shard& sh, const Topo& topo) {
  route_and_allocate(sh, topo);
}

void Simulator::run_cycles(Shard& sh, Cycle cycles) {
  visit_topology(params_.topology, topo_, [&](const auto& topo) {
    for (Cycle i = 0; i < cycles; ++i) cycle(sh, topo);
  });
}

void Simulator::run(Cycle cycles) { run_cycles(shards_[0], cycles); }

}  // namespace dfsim
