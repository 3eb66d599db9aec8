#include "routing/mechanism.hpp"

#include <algorithm>

namespace dfsim::routing {

RoutingMechanism::RoutingMechanism(const SimParams& params,
                                   const Topology& topo,
                                   const EngineProbe& engine)
    : params_(params.routing),
      link_(params.link),
      topo_(topo),
      eng_(engine),
      counters_(topo.routers() * topo.radix(),
                params.routing.counter_saturation),
      radix_(topo.radix()),
      fwd_(topo.forward_ports()),
      psize_(params.packet_size_phits),
      fault_on_(engine.fault_overlay()) {}

RoutingMechanism::~RoutingMechanism() = default;

Decision RoutingMechanism::decide_injection(Rng&, Cycle, std::int32_t,
                                            RouterId, NodeId) {
  return {};
}

Decision RoutingMechanism::decide_transit(Rng&, std::int32_t, RouterId, NodeId,
                                          std::int8_t, PortIndex,
                                          std::int32_t) {
  return {};
}

bool RoutingMechanism::local_detour_fires(Rng&, std::int32_t, RouterId,
                                          PortIndex) {
  return false;
}

bool RoutingMechanism::admit_injection(Cycle, RouterId, NodeId) const {
  return true;
}

bool RoutingMechanism::update_due(Cycle) const { return false; }

void RoutingMechanism::update(Cycle, std::int32_t, RouterId, RouterId) {}

std::int64_t RoutingMechanism::candidate_bias(Cycle, RouterId,
                                              const NonminCandidate&) const {
  return 0;
}

bool RoutingMechanism::pick_misroute_channel(Rng& rng, Cycle now, RouterId r,
                                             NodeId dst, bool use_occupancy,
                                             NonminCandidate& best) {
  // Target number of distinct scored options per decision (the paper's CRG
  // candidate set size at its h=8 router; pools at or below this are
  // enumerated exhaustively).
  constexpr std::int32_t kCandidates = 4;

  const bool crg = params_.global_policy == GlobalMisroutePolicy::kCrg;
  const std::int32_t pool_size = topo_.nonmin_pool_size(r, crg);
  if (!topo_.nonmin_viable(r, dst, crg)) return false;

  bool have = false;
  std::int64_t best_score = 0;
  NonminCandidate cand;
  const auto consider = [&](const NonminCandidate& c) {
    std::int64_t score = counters_.value(flat_port(r, c.first_hop));
    score += candidate_bias(now, r, c);
    if (use_occupancy) {
      score += eng_.occupancy_phits(r, c.first_hop) / psize_;
    }
    if (!have || score < best_score) {
      have = true;
      best = c;
      best_score = score;
    }
  };

  if (pool_size <= kCandidates) {
    // Small pool (e.g. CRG with few global channels per router): enumerate
    // every distinct option. Sampling WITH replacement here double-scored
    // duplicates and compared fewer distinct options than the paper's CRG
    // candidate set.
    for (std::int32_t i = 0; i < pool_size; ++i) {
      if (topo_.nonmin_candidate_at(r, dst, crg, i, cand)) consider(cand);
    }
    return have;
  }

  // Large pool: sample DISTINCT candidates — duplicates are never scored
  // twice and burn a draw slot, with one spare draw beyond the target so a
  // single duplicate/minimal hit still yields a full candidate set. The
  // budget is deliberately tight: chasing full distinctness harder
  // (e.g. 2x draws) measurably herds saturated traffic onto the momentary
  // argmin channel on topologies whose candidate scores are near-uniform
  // (fbfly/torus adversarial saturation loses ~5-10% throughput), while
  // one retry recovers the lost comparison diversity on the dragonfly
  // without that side effect.
  std::int32_t seen[kCandidates];
  std::int32_t n_seen = 0;
  for (std::int32_t draw = 0;
       draw < kCandidates + 1 && n_seen < kCandidates; ++draw) {
    if (!topo_.sample_nonmin(rng, r, dst, crg, cand)) continue;
    bool duplicate = false;
    for (std::int32_t s = 0; s < n_seen; ++s) {
      duplicate |= seen[s] == cand.channel;
    }
    if (duplicate) continue;
    seen[n_seen++] = cand.channel;
    consider(cand);
  }
  return have;
}

bool RoutingMechanism::ugal_prefers_misroute(std::int32_t shard, RouterId r,
                                             NodeId dst,
                                             const NonminCandidate& cand,
                                             bool global_info) const {
  const RouterId dr = topo_.router_of_node(dst);

  const PortIndex min_port = topo_.minimal_output(r, dst);
  std::int64_t q_min = eng_.occupancy_phits(r, min_port);
  Cycle h_min = std::max<Cycle>(1, hops_to_latency(topo_.min_hops(r, dr)));

  std::int64_t q_val = eng_.occupancy_phits(r, cand.first_hop);
  Cycle h_val = hops_to_latency(topo_.nonmin_hops(r, cand, dr));

  if (fault_on_) {
    // Degradation the deciding router can observe: extra serialization on
    // each option's first hop raises that path's latency estimate.
    if (min_port >= 0 && min_port < fwd_) {
      h_min += eng_.fault_extra_latency(r, min_port);
    }
    if (cand.first_hop >= 0 && cand.first_hop < fwd_) {
      h_val += eng_.fault_extra_latency(r, cand.first_hop);
    }
  }

  if (global_info) {
    // Add the remote queues the idealized-global variant may consult —
    // unless a term is this router's own first hop, already counted above.
    RemoteProbe probe;
    if (topo_.min_remote_probe(r, dst, probe)) {
      q_min += eng_.probe_occupancy_phits(shard, probe.router, probe.port);
    }
    if (topo_.nonmin_remote_probe(r, cand, probe)) {
      q_val += eng_.probe_occupancy_phits(shard, probe.router, probe.port);
    }
  }
  const std::int64_t threshold =
      static_cast<std::int64_t>(params_.pb_ugal_threshold) * psize_;
  return q_min * h_min > q_val * h_val + threshold * h_min;
}

Decision RoutingMechanism::transit_decision(Rng& rng, RouterId r, NodeId dst,
                                            bool use_occupancy) {
  Decision dec;
  NonminCandidate cand;
  // decide_transit carries no cycle; no in-transit mechanism's bias reads it.
  if (pick_misroute_channel(rng, /*now=*/0, r, dst, use_occupancy, cand)) {
    dec.misroute = true;
    dec.cand = cand;
  }
  return dec;
}

}  // namespace dfsim::routing
