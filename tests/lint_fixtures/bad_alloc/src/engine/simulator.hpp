// Seeded CHK-ALLOC violation reached through the Simulator::step closure:
// the cycle phases are templates on the concrete topology class.
#pragma once

namespace dfsim {

class Simulator {
 public:
  void step() { run(1); }
  void run(Cycle cycles);

 private:
  void run_cycles(Shard& sh, Cycle cycles);
  template <class Topo>
  void cycle(Shard& sh, const Topo& topo);
  template <class Topo>
  void route_and_allocate(Shard& sh, const Topo& topo);
};

}  // namespace dfsim
