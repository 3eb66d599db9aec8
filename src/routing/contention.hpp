// In-transit mechanism family (the paper's contributions plus OLM): decide
// at every head event wherever the topology's in-transit policy allows, and
// participate in the opportunistic local detour.
//
//  - OLM: credit-triggered — fire when the minimal output is actually out
//    of credits or, on deep global buffers, past an occupancy fraction.
//  - Base: contention-counter threshold trigger (optionally statistical).
//  - Hybrid: Base's trigger OR a lower counter threshold agreeing with a
//    credit-occupancy test.
//  - ECtN: Base's trigger OR own counter + the group-broadcast snapshot of
//    the minimal channel's remote contention past a combined threshold;
//    candidate scoring adds the snapshot term (candidate_bias), and the
//    snapshot refreshes in the engine's barrier-fenced update window.
#pragma once

#include "routing/ectn_state.hpp"
#include "routing/mechanism.hpp"

namespace dfsim::routing {

/// Shared base of the in-transit family: opts into transit decisions and
/// the local detour, and owns the Base threshold trigger every member
/// (except OLM, which overrides the detour trigger) consults.
class TransitMechanism : public RoutingMechanism {
 public:
  TransitMechanism(const SimParams& params, const Topology& topo,
                   const EngineProbe& engine)
      : RoutingMechanism(params, topo, engine),
        base_trigger_{params.routing.contention_threshold,
                      params.routing.statistical_trigger,
                      params.routing.statistical_window} {}

  [[nodiscard]] bool decides_in_transit() const override { return true; }
  [[nodiscard]] bool local_detour_fires(Rng& rng, std::int32_t shard,
                                        RouterId r, PortIndex rp) override;

 protected:
  ContentionThresholdTrigger base_trigger_;
};

class OlmMechanism final : public TransitMechanism {
 public:
  using TransitMechanism::TransitMechanism;

  Decision decide_transit(Rng& rng, std::int32_t shard, RouterId r, NodeId dst,
                          std::int8_t vc_state, PortIndex min_port,
                          std::int32_t min_channel) override;
  [[nodiscard]] bool local_detour_fires(Rng& rng, std::int32_t shard,
                                        RouterId r, PortIndex rp) override;
};

class CbBaseMechanism final : public TransitMechanism {
 public:
  using TransitMechanism::TransitMechanism;

  Decision decide_transit(Rng& rng, std::int32_t shard, RouterId r, NodeId dst,
                          std::int8_t vc_state, PortIndex min_port,
                          std::int32_t min_channel) override;
};

class CbHybridMechanism final : public TransitMechanism {
 public:
  CbHybridMechanism(const SimParams& params, const Topology& topo,
                    const EngineProbe& engine)
      : TransitMechanism(params, topo, engine),
        hybrid_trigger_{params.routing.hybrid_contention_threshold, false, 0} {}

  Decision decide_transit(Rng& rng, std::int32_t shard, RouterId r, NodeId dst,
                          std::int8_t vc_state, PortIndex min_port,
                          std::int32_t min_channel) override;

 private:
  ContentionThresholdTrigger hybrid_trigger_;
};

class EctnMechanism final : public TransitMechanism {
 public:
  /// Throws std::invalid_argument when the topology lacks ECtN broadcast
  /// support (construction contract pinned by test_routing_mechanisms).
  EctnMechanism(const SimParams& params, const Topology& topo,
                const EngineProbe& engine);

  Decision decide_transit(Rng& rng, std::int32_t shard, RouterId r, NodeId dst,
                          std::int8_t vc_state, PortIndex min_port,
                          std::int32_t min_channel) override;
  [[nodiscard]] bool update_due(Cycle now) const override;
  void update(Cycle now, std::int32_t shard, RouterId r_lo,
              RouterId r_hi) override;

 private:
  [[nodiscard]] std::int64_t candidate_bias(
      Cycle now, RouterId r, const NonminCandidate& c) const override;

  EctnSnapshot ectn_;
};

}  // namespace dfsim::routing
