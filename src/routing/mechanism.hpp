// Pluggable routing-mechanism layer.
//
// Every misrouting decision family the paper compares (MIN/VAL/UGAL-L/
// UGAL-G/PB/OLM/Base/Hybrid/ECtN) is one RoutingMechanism instance living in
// src/routing/; the engine (src/engine/simulator.cpp) owns queues, credits,
// links, allocation and delivery, and dispatches through this interface
// only — it holds no RoutingKind switch (CHK-DISPATCH) and no mechanism
// state. Mechanism selection happens exactly once, in make_mechanism
// (factory.hpp).
//
// Contract, mirroring the engine's bit-exactness rule (ARCHITECTURE.md):
//  - RNG-draw discipline: a mechanism draws ONLY from the `rng` reference the
//    engine passes in (the owning shard's routing stream), only inside the
//    decision the engine asked for, and every draw site is allowlisted in
//    tools/dfsim_check/rng_sites.txt under the `routing` stream. Parameters
//    must be named `rng` so CHK-RNG can see the sites.
//  - Per-shard state slice: decide_* is invoked only for routers the calling
//    shard owns; update() receives the shard's [r_lo, r_hi) range and may
//    write only state slices that are disjoint per shard (the engine fences
//    the update window with barriers — see "Sharded execution").
//  - Remote reads go through EngineProbe::probe_occupancy_phits, which
//    serves the live value for owned routers and the cycle-start snapshot
//    for remote ones; mechanisms never touch engine queue state directly.
//  - The shared contention counters are owned HERE (every mechanism carries
//    them: telemetry gauges and the ECtN overhead monitor read them even
//    under MIN), maintained by the engine's head/tail hooks.
//
// Decision flow per packet:
//  - decide_injection: once, when an unrouted packet becomes head of an
//    injection queue (engine pre-checks: mechanism opted in, not in-order,
//    a nonminimal option applies).
//  - decide_transit: at every head event while the topology's in-transit
//    policy allows (engine pre-checks: mechanism opted in, not already
//    globally misrouted / in-order, min_channel >= 0).
//  - local_detour_fires: trigger half of the opportunistic local detour; the
//    engine keeps the port-selection loop (it owns link/credit state).
#pragma once

#include <cstdint>
#include <memory>

#include "routing/contention_counters.hpp"
#include "routing/triggers.hpp"
#include "sim/config.hpp"
#include "telemetry/telemetry_sink.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace dfsim::routing {

/// Read-only view of engine state a mechanism may consult. Implemented by
/// Simulator (privately); mechanisms hold it by const reference and never
/// see queue internals. `shard` is the calling shard's index — remote
/// routers' live credit state is unreadable mid-cycle, so probe reads serve
/// the cycle-start snapshot for them (serial: always the live value).
class EngineProbe {
 public:
  /// Buffered phits queued at the downstream of (r, out); 0 for ejection.
  [[nodiscard]] virtual std::int32_t occupancy_phits(RouterId r,
                                                     PortIndex out) const = 0;
  /// Reference capacity for occupancy-fraction triggers (one VC buffer).
  [[nodiscard]] virtual std::int32_t port_capacity_phits(
      PortIndex out) const = 0;
  /// occupancy_phits through the cycle-start snapshot when `r` belongs to
  /// another shard; the live value — serial behavior — otherwise.
  [[nodiscard]] virtual std::int32_t probe_occupancy_phits(
      std::int32_t shard, RouterId r, PortIndex out) const = 0;
  /// Free credits on the VC a packet in state `vc_state` would take on
  /// (r, out) — the per-VC complement of occupancy_phits (OLM's blocked
  /// test). Only meaningful for non-phase-0 packets on owned routers.
  [[nodiscard]] virtual std::int32_t free_credits(
      RouterId r, PortIndex out, std::int8_t vc_state) const = 0;
  /// Extra serialization latency the fault overlay currently imposes on
  /// (r, out); 0 whenever faults are disabled.
  [[nodiscard]] virtual std::int32_t fault_extra_latency(
      RouterId r, PortIndex out) const = 0;
  /// True when the fault overlay is active (mechanisms then add the
  /// observable degradation to their path-latency estimates).
  [[nodiscard]] virtual bool fault_overlay() const = 0;

 protected:
  ~EngineProbe() = default;
};

/// The single credit-occupancy congestion test shared by every mechanism
/// (OLM's deep-buffer trigger, Hybrid's credit half, PB's remote link
/// state, local-detour triggers). Local and remote reads go through the
/// same probe so the two can never drift apart: for routers the calling
/// shard owns, probe_occupancy_phits IS the live occupancy.
[[nodiscard]] inline bool credit_fires(const EngineProbe& eng,
                                       std::int32_t shard, RouterId r,
                                       PortIndex out, double fraction) {
  return CreditOccupancyTrigger{fraction}.fires(
      eng.probe_occupancy_phits(shard, r, out), eng.port_capacity_phits(out));
}

/// Outcome of an injection-time or in-transit decision. For in-transit
/// decisions the engine attributes the cause itself (kTrigger at the source
/// router, kInTransit beyond it), so only injection deciders set `cause`.
struct Decision {
  bool misroute = false;
  telemetry::MisrouteCause cause = telemetry::MisrouteCause::kValiant;
  NonminCandidate cand{};
};

class RoutingMechanism {
 public:
  RoutingMechanism(const SimParams& params, const Topology& topo,
                   const EngineProbe& engine);
  virtual ~RoutingMechanism();
  RoutingMechanism(const RoutingMechanism&) = delete;
  RoutingMechanism& operator=(const RoutingMechanism&) = delete;

  // --- contention counters (engine head/tail hooks; hot path, non-virtual)
  void on_head(std::int32_t flat) { counters_.on_head(flat); }
  void on_tail_departure(std::int32_t flat) {
    counters_.on_tail_departure(flat);
  }
  [[nodiscard]] std::int32_t counter_value(std::int32_t flat) const {
    return counters_.value(flat);
  }

  // --- capabilities (constant per instance; the engine caches them at
  // construction so disabled paths cost one predicted branch)
  /// Mechanism decides global misrouting when a packet is injected.
  [[nodiscard]] virtual bool decides_at_injection() const { return false; }
  /// Mechanism re-decides at head events in transit (also gates the
  /// opportunistic local detour, which only the in-transit family uses).
  [[nodiscard]] virtual bool decides_in_transit() const { return false; }
  /// Mechanism reads remote routers' occupancy, so sharded runs must
  /// publish the cycle-start snapshot (Simulator::snap_on_).
  [[nodiscard]] virtual bool wants_remote_probes() const { return false; }
  /// Mechanism may refuse injections (admit_injection consulted per packet).
  [[nodiscard]] virtual bool throttles_injection() const { return false; }

  // --- decisions
  virtual Decision decide_injection(Rng& rng, Cycle now, std::int32_t shard,
                                    RouterId r, NodeId dst);
  virtual Decision decide_transit(Rng& rng, std::int32_t shard, RouterId r,
                                  NodeId dst, std::int8_t vc_state,
                                  PortIndex min_port, std::int32_t min_channel);
  /// Trigger half of the opportunistic local detour at (r, requested port);
  /// the engine runs the port-selection loop when this fires.
  [[nodiscard]] virtual bool local_detour_fires(Rng& rng, std::int32_t shard,
                                                RouterId r, PortIndex rp);
  /// Consulted per generated packet when throttles_injection(); refusing
  /// counts the packet as refused (same accounting as a full queue).
  [[nodiscard]] virtual bool admit_injection(Cycle now, RouterId r,
                                             NodeId dst) const;

  // --- per-cycle update window (the engine barriers around it when
  // sharded; shards call update() for their own [r_lo, r_hi) ranges and
  // every shard observes the same update_due schedule)
  [[nodiscard]] virtual bool update_due(Cycle now) const;
  virtual void update(Cycle now, std::int32_t shard, RouterId r_lo,
                      RouterId r_hi);

 protected:
  [[nodiscard]] std::int32_t flat_port(RouterId r, PortIndex port) const {
    return r * radix_ + port;
  }
  /// HopEstimate in cycles under this run's link latencies.
  [[nodiscard]] Cycle hops_to_latency(const HopEstimate& est) const {
    return static_cast<Cycle>(est.local_hops) * link_.local_latency +
           static_cast<Cycle>(est.global_hops) * link_.global_latency;
  }
  /// Scored candidate sampling over the topology's nonminimal pool:
  /// contention counters plus candidate_bias() plus (optionally) local
  /// occupancy; false when no candidate was drawn.
  [[nodiscard]] bool pick_misroute_channel(Rng& rng, Cycle now, RouterId r,
                                           NodeId dst, bool use_occupancy,
                                           NonminCandidate& best);
  /// Additional per-candidate score a mechanism contributes at decision
  /// cycle `now` (ECtN: the remote-contention snapshot for the candidate's
  /// channel; ARN: the live-notification penalty). Default 0.
  [[nodiscard]] virtual std::int64_t candidate_bias(
      Cycle now, RouterId r, const NonminCandidate& c) const;
  /// The UGAL comparison: min-path queue*latency vs candidate queue*latency
  /// plus the configured threshold offset (fault degradation and — with
  /// global_info — remote probe terms included).
  [[nodiscard]] bool ugal_prefers_misroute(std::int32_t shard, RouterId r,
                                           NodeId dst,
                                           const NonminCandidate& cand,
                                           bool global_info) const;
  /// pick_misroute_channel wrapped as an (uncaused) transit Decision.
  [[nodiscard]] Decision transit_decision(Rng& rng, RouterId r, NodeId dst,
                                          bool use_occupancy);

  const RoutingParams params_;
  const LinkParams link_;
  const Topology& topo_;
  const EngineProbe& eng_;
  ContentionCounters counters_;
  const std::int32_t radix_;
  const std::int32_t fwd_;
  const std::int32_t psize_;
  const bool fault_on_;
};

}  // namespace dfsim::routing
