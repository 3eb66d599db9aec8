// Topology abstraction consumed by the unified SoA engine.
//
// A Topology instance owns everything topology-shaped the per-cycle loop
// needs — wiring (peer/peer_port), the minimal next-output function, the
// port-class map that selects buffer depth / VC count / link latency per
// port, the VC-for-hop deadlock schedule, and the nonminimal-candidate
// machinery behind every adaptive mechanism (Valiant sampling, scored
// candidate sampling for UGAL/CB, UGAL hop estimates, and remote-queue probe
// points for UGAL-G/PB). The engine itself carries no dragonfly, flattened
// butterfly, or torus specifics: those live in the DragonflyTopology,
// FlattenedButterflyTopology, and TorusTopology subclasses.
//
// Phase-0 convention: a globally misrouted packet first travels to
// `NonminCandidate::inter`. When `via_port >= 0` the nonminimal phase ends
// by taking that output at `inter` (dragonfly: the gateway's global port,
// signalled by HopTransition::end_phase0). When `via_port < 0` the phase
// ends upon *arrival* at `inter` (flattened butterfly / torus Valiant
// intermediates); the engine handles that case when the packet is enqueued.
//
// Dispatch cost model: the shape accessors (routers/nodes/radix/
// router_of_node) are non-virtual. The engine's cycle loop does not call
// the virtual interface: it runs on the concrete `final` class, picked once
// per dispatch (visit_topology in topo/factory.hpp), so per-head-event and
// per-departure calls such as minimal_output, vc_class and on_hop bind
// statically and inline where the class defines them in its header.
// Everything else (setup, the routing mechanisms' candidate-sampling /
// UGAL / probe hooks behind RNG draws and occupancy scans) goes through the
// vtable.
#pragma once

#include <cstdint>
#include <memory>

#include "traffic/model.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace dfsim {

/// Buffering/latency class of a forward port. The engine maps classes to the
/// RouterParams/LinkParams knobs: kLocalClass uses buf_local_phits /
/// vcs_local / local_latency; kGlobalClass uses the *_global knobs.
/// Injection/ejection ports are identified positionally (port >=
/// forward_ports()) and are not classed here.
enum class PortClass : std::uint8_t { kLocalClass, kGlobalClass };

/// One nonminimal route option at a deciding router.
struct NonminCandidate {
  std::int32_t channel = -1;  // id in the topology's candidate space
  RouterId inter = -1;        // phase-0 target router
  PortIndex via_port = -1;    // output to take at `inter`; -1 = phase ends
                              // on arrival at `inter`
  PortIndex first_hop = -1;   // output at the deciding router (counters /
                              // occupancy are scored here)
};

/// Minimal/nonminimal path length split by port class, so the engine can
/// convert to latency with its own LinkParams.
struct HopEstimate {
  std::int32_t local_hops = 0;
  std::int32_t global_hops = 0;
};

/// (router, output port) whose downstream occupancy a mechanism may probe
/// remotely (UGAL-G's idealized global knowledge, PB's piggybacked state).
struct RemoteProbe {
  RouterId router = -1;
  PortIndex port = -1;
};

/// Per-hop packet-state transition. `vc_state` is a topology-interpreted
/// byte carried per packet (dragonfly: global hops taken, torus: current
/// dimension + dateline bit, flattened butterfly: unused).
struct HopTransition {
  std::int8_t vc_state = 0;
  bool end_phase0 = false;   // this hop completes the nonminimal phase
  bool reset_detour = false; // allow a fresh opportunistic local detour
};

/// ECtN broadcast layout: which counter each router contributes to which
/// (domain, channel) snapshot slot. Only topologies with supports_ectn().
struct EctnSlot {
  PortIndex port = -1;        // output port whose counter is broadcast
  std::int32_t domain = -1;   // snapshot row (dragonfly: group)
  std::int32_t channel = -1;  // snapshot column (dragonfly: a*h channel id)
};

/// Current link-health view consumed by topology candidate filtering and by
/// the engine's routing fallback. Implemented by fault/LinkHealthMap; the
/// engine refreshes the concrete map at fault-event cycles, so queries carry
/// no time argument and stay O(1) flat-array loads on the hot path.
class LinkHealth {
 public:
  virtual ~LinkHealth() = default;
  /// False while the directed link out of (r, port) is down.
  [[nodiscard]] virtual bool link_up(RouterId r, PortIndex port) const = 0;
  /// Extra serialization latency (cycles) currently imposed on (r, port).
  [[nodiscard]] virtual std::int32_t extra_latency(RouterId r,
                                                   PortIndex port) const = 0;
};

class Topology {
 public:
  virtual ~Topology() = default;

  // --- shape
  [[nodiscard]] std::int32_t routers() const { return routers_; }
  [[nodiscard]] std::int32_t nodes() const { return nodes_; }
  /// Inter-router ports; injection/ejection ports follow at
  /// [forward_ports(), forward_ports() + concentration()).
  [[nodiscard]] std::int32_t forward_ports() const { return forward_ports_; }
  /// Terminals attached per router.
  [[nodiscard]] std::int32_t concentration() const { return concentration_; }
  /// Full router radix (forward + injection/ejection).
  [[nodiscard]] std::int32_t radix() const {
    return forward_ports_ + concentration_;
  }
  [[nodiscard]] RouterId router_of_node(NodeId n) const {
    return n / concentration_;
  }

  // --- wiring & minimal routing
  [[nodiscard]] virtual PortClass port_class(PortIndex port) const = 0;
  [[nodiscard]] virtual RouterId peer(RouterId r, PortIndex port) const = 0;
  [[nodiscard]] virtual PortIndex peer_port(RouterId r,
                                            PortIndex port) const = 0;
  /// Next output on the (unique) minimal route to `dest`; an ejection port
  /// when `dest` is attached to `r`.
  [[nodiscard]] virtual PortIndex minimal_output(RouterId r,
                                                 NodeId dest) const = 0;
  /// Next output toward router `target` (phase-0 forwarding); kInvalidPort
  /// when `r == target`.
  [[nodiscard]] virtual PortIndex route_toward(RouterId r,
                                               RouterId target) const = 0;

  // --- VC deadlock schedule
  /// VC class for taking `out` with the given packet state; the engine
  /// clamps to the port class's configured VC count.
  [[nodiscard]] virtual VcIndex vc_class(RouterId r, PortIndex out,
                                         std::int8_t vc_state,
                                         bool phase0) const = 0;
  /// State transition when a packet departs `r` via `out`.
  [[nodiscard]] virtual HopTransition on_hop(RouterId r, PortIndex out,
                                             std::int8_t vc_state) const = 0;
  /// State adjustment when the nonminimal phase ends on *arrival* at the
  /// intermediate router (via_port < 0 candidates only).
  [[nodiscard]] virtual std::int8_t phase_end_state(std::int8_t vc_state) const {
    return vc_state;
  }

  // --- nonminimal candidates
  /// Candidate-space id of the minimal route at `r`, or -1 when no
  /// nonminimal decision applies here (dragonfly: intra-group traffic;
  /// fbfly/torus: destination attached to `r`). Doubles as the ECtN
  /// combined-threshold snapshot index on topologies that support ECtN.
  [[nodiscard]] virtual std::int32_t min_channel(RouterId r,
                                                 NodeId dst) const = 0;
  /// Candidate pool size for scored sampling; `own_router_only` is the CRG
  /// policy restriction (candidates via this router's own channels).
  [[nodiscard]] virtual std::int32_t nonmin_pool_size(
      RouterId r, bool own_router_only) const = 0;
  /// False when the restricted pool provably contains no usable candidate
  /// (so the engine skips sampling without consuming RNG draws).
  [[nodiscard]] virtual bool nonmin_viable(RouterId r, NodeId dst,
                                           bool own_router_only) const {
    (void)r;
    (void)dst;
    (void)own_router_only;
    return true;
  }
  /// Draws one candidate; false when the draw hit the minimal route (or an
  /// otherwise unusable option) and should simply be skipped. RNG use must
  /// be identical across calls for determinism.
  [[nodiscard]] virtual bool sample_nonmin(Rng& rng, RouterId r, NodeId dst,
                                           bool own_router_only,
                                           NonminCandidate& out) const = 0;
  /// Enumerated access to the candidate pool for small-pool exhaustive
  /// scoring: option `index` in [0, nonmin_pool_size(r, own_router_only)).
  /// False when that slot is the minimal route (or otherwise unusable).
  /// Draws no RNG; distinct indices yield distinct candidates.
  [[nodiscard]] virtual bool nonmin_candidate_at(RouterId r, NodeId dst,
                                                 bool own_router_only,
                                                 std::int32_t index,
                                                 NonminCandidate& out)
      const = 0;
  /// Uniform Valiant draw over all valid nonminimal options; false when no
  /// candidate could be produced.
  [[nodiscard]] virtual bool sample_valiant(Rng& rng, RouterId r, NodeId dst,
                                            NonminCandidate& out) const = 0;

  // --- UGAL estimates & remote probes
  [[nodiscard]] virtual HopEstimate min_hops(RouterId r,
                                             RouterId dr) const = 0;
  [[nodiscard]] virtual HopEstimate nonmin_hops(
      RouterId r, const NonminCandidate& cand, RouterId dr) const = 0;
  /// UGAL-G: remote queue on the minimal route (skipped when it is `r`'s
  /// own first hop, already counted locally).
  [[nodiscard]] virtual bool min_remote_probe(RouterId r, NodeId dst,
                                              RemoteProbe& out) const {
    (void)r;
    (void)dst;
    (void)out;
    return false;
  }
  /// UGAL-G: remote queue on the candidate path (skipped when that queue is
  /// at `r` itself, already counted via the first hop).
  [[nodiscard]] virtual bool nonmin_remote_probe(RouterId r,
                                                 const NonminCandidate& cand,
                                                 RemoteProbe& out) const {
    (void)r;
    (void)cand;
    (void)out;
    return false;
  }
  /// PB: the link whose congested-bit is piggybacked for the minimal route
  /// (may be `r`'s own port; unlike min_remote_probe it is not skipped).
  [[nodiscard]] virtual bool min_link_probe(RouterId r, NodeId dst,
                                            RemoteProbe& out) const {
    (void)r;
    (void)dst;
    (void)out;
    return false;
  }

  // --- in-transit policy
  /// Whether the in-transit mechanisms (OLM/Base/Hybrid/ECtN) may still
  /// divert a minimal-committed packet at `r` (dragonfly: anywhere in the
  /// source group; fbfly/torus: only at the source router).
  [[nodiscard]] virtual bool can_misroute_in_transit(
      RouterId r, RouterId src_router, std::int8_t vc_state) const = 0;
  /// Ports [0, local_detour_ports(r)) eligible as opportunistic local
  /// detours; 0 disables local misrouting on this topology.
  [[nodiscard]] virtual std::int32_t local_detour_ports(RouterId r) const {
    (void)r;
    return 0;
  }

  // --- ECtN layout (topologies with group-broadcast contention snapshots)
  [[nodiscard]] virtual bool supports_ectn() const { return false; }
  [[nodiscard]] virtual std::int32_t ectn_domains() const { return 0; }
  [[nodiscard]] virtual std::int32_t ectn_channels() const { return 0; }
  [[nodiscard]] virtual std::int32_t ectn_router_slots() const { return 0; }
  [[nodiscard]] virtual std::int32_t ectn_domain(RouterId r) const {
    (void)r;
    return 0;
  }
  [[nodiscard]] virtual EctnSlot ectn_slot(RouterId r, std::int32_t i) const {
    (void)r;
    (void)i;
    return {};
  }

  // --- traffic grouping
  [[nodiscard]] virtual TrafficTopologyInfo traffic_info() const = 0;

  // --- fault overlay
  /// Attach (or detach with nullptr) the link-health view consulted by the
  /// candidate filters and fallback routing. Never attached when faults are
  /// disabled, so the null check below is the only healthy-path cost.
  void attach_link_health(const LinkHealth* health) { health_ = health; }
  [[nodiscard]] const LinkHealth* link_health() const { return health_; }
  /// True when the directed link (r, port) is currently usable.
  [[nodiscard]] bool link_up(RouterId r, PortIndex port) const {
    return health_ == nullptr || health_->link_up(r, port);
  }
  /// True when every link the candidate commits to up front is usable: the
  /// first hop at the deciding router and — for via_port >= 0 candidates —
  /// the phase-ending output at the intermediate router.
  [[nodiscard]] bool candidate_usable(RouterId r,
                                      const NonminCandidate& c) const {
    if (health_ == nullptr) return true;
    if (c.first_hop >= 0 && !health_->link_up(r, c.first_hop)) return false;
    if (c.via_port >= 0 && c.inter != r &&
        !health_->link_up(c.inter, c.via_port)) {
      return false;
    }
    return true;
  }
  /// Alternative output at `r` toward router `target` when the preferred
  /// output `avoid` is down; kInvalidPort when every forward link of `r` is
  /// down. Deterministic (no RNG): the engine may re-evaluate it every cycle
  /// for a blocked head. The base version scans cyclically from `avoid`;
  /// subclasses override with class-aware preferences.
  [[nodiscard]] virtual PortIndex fallback_output(RouterId r, RouterId target,
                                                  PortIndex avoid) const {
    (void)target;
    const std::int32_t fwd = forward_ports();
    for (std::int32_t i = 1; i < fwd; ++i) {
      const PortIndex p = static_cast<PortIndex>((avoid + i) % fwd);
      if (link_up(r, p)) return p;
    }
    return kInvalidPort;
  }

 protected:
  /// Subclasses fill the shape once in their constructor.
  void set_shape(std::int32_t routers, std::int32_t forward_ports,
                 std::int32_t concentration) {
    routers_ = routers;
    forward_ports_ = forward_ports;
    concentration_ = concentration;
    nodes_ = routers * concentration;
  }

 private:
  std::int32_t routers_ = 0;
  std::int32_t nodes_ = 0;
  std::int32_t forward_ports_ = 0;
  std::int32_t concentration_ = 0;
  const LinkHealth* health_ = nullptr;
};

}  // namespace dfsim
