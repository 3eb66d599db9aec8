#include "routing/contention.hpp"

#include <stdexcept>

namespace dfsim::routing {

bool TransitMechanism::local_detour_fires(Rng& rng, std::int32_t, RouterId r,
                                          PortIndex rp) {
  return base_trigger_.fires(counters_.value(flat_port(r, rp)), rng);
}

Decision OlmMechanism::decide_transit(Rng& rng, std::int32_t shard, RouterId r,
                                      NodeId dst, std::int8_t vc_state,
                                      PortIndex min_port, std::int32_t) {
  // Opportunistic: misroute when the minimal output is actually out of
  // credits (blocked) or, on the large global buffers, past the occupancy
  // fraction. Credit exhaustion is what ties OLM's response time to the
  // buffer depth (Figure 8).
  const bool blocked = eng_.free_credits(r, min_port, vc_state) <= 0;
  const bool deep = topo_.port_class(min_port) == PortClass::kGlobalClass &&
                    credit_fires(eng_, shard, r, min_port,
                                 params_.olm_credit_fraction);
  if (!blocked && !deep) return {};
  return transit_decision(rng, r, dst, /*use_occupancy=*/true);
}

bool OlmMechanism::local_detour_fires(Rng&, std::int32_t shard, RouterId r,
                                      PortIndex rp) {
  return credit_fires(eng_, shard, r, rp, params_.olm_credit_fraction);
}

Decision CbBaseMechanism::decide_transit(Rng& rng, std::int32_t, RouterId r,
                                         NodeId dst, std::int8_t,
                                         PortIndex min_port, std::int32_t) {
  if (!base_trigger_.fires(counters_.value(flat_port(r, min_port)), rng)) {
    return {};
  }
  return transit_decision(rng, r, dst, /*use_occupancy=*/false);
}

Decision CbHybridMechanism::decide_transit(Rng& rng, std::int32_t shard,
                                           RouterId r, NodeId dst, std::int8_t,
                                           PortIndex min_port, std::int32_t) {
  // Base's full-threshold trigger, plus an earlier escape hatch when a
  // lower contention threshold and credit occupancy agree — misroutes a
  // little sooner than Base, never less.
  const std::int32_t counter = counters_.value(flat_port(r, min_port));
  const bool fire = base_trigger_.fires(counter, rng) ||
                    (hybrid_trigger_.fires(counter, rng) &&
                     credit_fires(eng_, shard, r, min_port,
                                  params_.hybrid_credit_fraction));
  if (!fire) return {};
  return transit_decision(rng, r, dst, /*use_occupancy=*/true);
}

EctnMechanism::EctnMechanism(const SimParams& params, const Topology& topo,
                             const EngineProbe& engine)
    : TransitMechanism(params, topo, engine) {
  if (!topo.supports_ectn()) {
    throw std::invalid_argument(
        "ECtN routing needs a topology with contention-broadcast support "
        "(dragonfly); pick Base/Hybrid here");
  }
  ectn_.resize(topo.ectn_domains(), topo.ectn_channels());
}

Decision EctnMechanism::decide_transit(Rng& rng, std::int32_t, RouterId r,
                                       NodeId dst, std::int8_t,
                                       PortIndex min_port,
                                       std::int32_t min_channel) {
  const std::int32_t own = counters_.value(flat_port(r, min_port));
  const bool fire = base_trigger_.fires(own, rng) ||
                    own + ectn_.value(topo_.ectn_domain(r), min_channel) >=
                        params_.ectn_combined_threshold;
  if (!fire) return {};
  return transit_decision(rng, r, dst, /*use_occupancy=*/false);
}

std::int64_t EctnMechanism::candidate_bias(Cycle, RouterId r,
                                           const NonminCandidate& c) const {
  return ectn_.value(topo_.ectn_domain(r), c.channel);
}

bool EctnMechanism::update_due(Cycle now) const {
  const Cycle period = params_.ectn_update_period;
  return period > 0 && now % period == 0;
}

void EctnMechanism::update(Cycle, std::int32_t, RouterId r_lo, RouterId r_hi) {
  // Each router's slots map to distinct (domain, channel) cells (the
  // dragonfly assigns channel local_index * h + i), so shards write
  // disjoint parts of the snapshot; the engine's barriers order the writes
  // against every reader.
  const std::int32_t slots = topo_.ectn_router_slots();
  for (RouterId r = r_lo; r < r_hi; ++r) {
    for (std::int32_t i = 0; i < slots; ++i) {
      const EctnSlot slot = topo_.ectn_slot(r, i);
      ectn_.set(slot.domain, slot.channel,
                counters_.value(flat_port(r, slot.port)));
    }
  }
}

}  // namespace dfsim::routing
