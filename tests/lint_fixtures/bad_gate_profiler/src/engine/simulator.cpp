// Seeded CHK-GATE violation: the cycle loop stamps its shard's phase
// profiler without the profile_on_ guard dominating the access.
namespace dfsim {

void Simulator::cycle(Shard& sh) {
  if (profile_on_) sh.profiler.start_cycle();  // fine: guarded
  deliver_arrivals(sh);
  sh.profiler.lap(Phase::kDeliver);  // VIOLATION: missing `if (profile_on_)`
}

void Simulator::run(Cycle cycles) {
  for (Cycle i = 0; i < cycles; ++i) cycle(shards_[0]);
}

void Simulator::step() { run(1); }

}  // namespace dfsim
