#include "routing/notification.hpp"

namespace dfsim::routing {

ArnMechanism::ArnMechanism(const SimParams& params, const Topology& topo,
                           const EngineProbe& engine)
    : RoutingMechanism(params, topo, engine), notify_(params.notify) {
  const auto slots =
      static_cast<std::size_t>(topo.routers()) *
      static_cast<std::size_t>(topo.radix());
  active_at_.assign(slots, -1);
  expires_at_.assign(slots, 0);
}

Decision ArnMechanism::decide_injection(Rng& rng, Cycle now, std::int32_t,
                                        RouterId r, NodeId dst) {
  // The candidate pick always runs so the RNG draw count per decision
  // stays fixed (bit-exactness rule) even when the route is not hot.
  const bool min_hot = min_route_notified(now, r, dst);
  Decision dec;
  NonminCandidate cand;
  if (pick_misroute_channel(rng, now, r, dst, /*use_occupancy=*/true, cand) &&
      min_hot) {
    dec.misroute = true;
    dec.cause = telemetry::MisrouteCause::kNotify;
    dec.cand = cand;
  }
  return dec;
}

std::int64_t ArnMechanism::candidate_bias(Cycle now, RouterId r,
                                          const NonminCandidate& c) const {
  // Steer the candidate pick away from first hops that are themselves
  // under a live notification; the penalty weighs like a saturated
  // contention counter, so un-notified candidates win ties decisively.
  return notified(now, r, c.first_hop)
             ? static_cast<std::int64_t>(params_.counter_saturation)
             : 0;
}

bool ArnMechanism::min_route_notified(Cycle now, RouterId r,
                                      NodeId dst) const {
  // Two probe points cover the minimal route: the first hop out of the
  // source (where injection backlog pools — the hot buffers under an
  // adversarial pattern sit on the links INTO the bottleneck router, which
  // the flagged-link probe alone cannot see) and the minimal route's
  // flagged remote link (PB's probe point). Either being under a live
  // notification marks the route hot.
  const PortIndex first = topo_.minimal_output(r, dst);
  if (first < fwd_ && notified(now, r, first)) return true;
  RemoteProbe probe;
  return topo_.min_link_probe(r, dst, probe) &&
         notified(now, probe.router, probe.port);
}

bool ArnMechanism::admit_injection(Cycle now, RouterId r, NodeId dst) const {
  return !min_route_notified(now, r, dst);
}

bool ArnMechanism::update_due(Cycle now) const {
  return notify_.update_period > 0 && now % notify_.update_period == 0;
}

void ArnMechanism::update(Cycle now, std::int32_t shard, RouterId r_lo,
                          RouterId r_hi) {
  // Scan own routers' forward links; a hot link's slot is refreshed, a
  // cool one keeps its previous schedule and decays by expiry alone (no
  // retraction message in the ARN design). Writes stay inside this
  // shard's [r_lo, r_hi) slice — disjoint across shards by construction.
  for (RouterId r = r_lo; r < r_hi; ++r) {
    for (PortIndex out = 0; out < fwd_; ++out) {
      if (!credit_fires(eng_, shard, r, out, notify_.threshold)) continue;
      const auto fp = static_cast<std::size_t>(flat_port(r, out));
      const Cycle live_at = now + notify_.propagation_delay;
      // A fresh (or lapsed) notification pays the propagation delay; a
      // refresh of a pending/live one only extends its expiry — resetting
      // active_at_ would push activation ahead of every scan and the
      // notification would never go live at scan periods <= the delay.
      if (active_at_[fp] < 0 || now >= expires_at_[fp]) {
        active_at_[fp] = live_at;
      }
      expires_at_[fp] = live_at + notify_.expiry;
    }
  }
}

}  // namespace dfsim::routing
