#include "topo/fbfly.hpp"

namespace dfsim {

FlattenedButterflyTopology::FlattenedButterflyTopology(
    const FbflyParams& params)
    : params_(params) {
  channels_ = params_.n * (params_.k - 1);
  set_shape(params_.routers(), channels_, params_.c);
}

RouterId FlattenedButterflyTopology::peer(RouterId r, PortIndex port) const {
  const std::int32_t k = params_.k;
  const std::int32_t dim = port / (k - 1);
  const std::int32_t idx = port % (k - 1);
  const std::int32_t own = coord(r, dim);
  const std::int32_t v = idx < own ? idx : idx + 1;
  std::int32_t stride = 1;
  for (std::int32_t d = 0; d < dim; ++d) stride *= k;
  return r + (v - own) * stride;
}

PortIndex FlattenedButterflyTopology::peer_port(RouterId r,
                                                PortIndex port) const {
  const std::int32_t k = params_.k;
  const std::int32_t dim = port / (k - 1);
  return channel_to(peer(r, port), dim, coord(r, dim));
}

PortIndex FlattenedButterflyTopology::minimal_output(RouterId r,
                                                     NodeId dest) const {
  const RouterId dr = router_of_node(dest);
  if (dr == r) return forward_ports() + (dest % params_.c);
  return route_toward(r, dr);
}

PortIndex FlattenedButterflyTopology::route_toward(RouterId r,
                                                   RouterId target) const {
  if (r == target) return kInvalidPort;
  for (std::int32_t dim = 0; dim < params_.n; ++dim) {
    const std::int32_t cr = coord(r, dim);
    const std::int32_t ct = coord(target, dim);
    if (cr != ct) return channel_to(r, dim, ct);
  }
  return kInvalidPort;
}

std::int32_t FlattenedButterflyTopology::min_channel(RouterId r,
                                                     NodeId dst) const {
  const RouterId dr = router_of_node(dst);
  return dr == r ? -1 : dr;  // candidate space is router ids
}

bool FlattenedButterflyTopology::make_candidate(RouterId r, RouterId inter,
                                                NonminCandidate& out) const {
  out.channel = inter;
  out.inter = inter;
  out.via_port = -1;  // phase 0 ends on arrival at the intermediate
  out.first_hop = route_toward(r, inter);
  return candidate_usable(r, out);
}

bool FlattenedButterflyTopology::sample_nonmin(Rng& rng, RouterId r,
                                               NodeId dst,
                                               bool own_router_only,
                                               NonminCandidate& out) const {
  (void)own_router_only;
  const RouterId dr = router_of_node(dst);
  const auto inter = static_cast<RouterId>(
      rng.next_below(static_cast<std::uint64_t>(routers())));
  if (inter == r || inter == dr) return false;
  return make_candidate(r, inter, out);
}

bool FlattenedButterflyTopology::nonmin_candidate_at(
    RouterId r, NodeId dst, bool own_router_only, std::int32_t index,
    NonminCandidate& out) const {
  (void)own_router_only;
  const RouterId dr = router_of_node(dst);
  if (index == r || index == dr) return false;  // not a nonminimal option
  return make_candidate(r, index, out);
}

bool FlattenedButterflyTopology::sample_valiant(Rng& rng, RouterId r,
                                                NodeId dst,
                                                NonminCandidate& out) const {
  const RouterId dr = router_of_node(dst);
  for (std::int32_t attempt = 0; attempt < 8; ++attempt) {
    const auto inter = static_cast<RouterId>(
        rng.next_below(static_cast<std::uint64_t>(routers())));
    // With faults attached a drawn candidate may be unusable; keep trying
    // within the attempt budget (draw-for-draw identical when healthy).
    if (inter != r && inter != dr && make_candidate(r, inter, out)) {
      return true;
    }
  }
  return false;
}

PortIndex FlattenedButterflyTopology::fallback_output(RouterId r,
                                                      RouterId target,
                                                      PortIndex avoid) const {
  const std::int32_t k = params_.k;
  // Resolve a different dimension first (still minimal distance overall),
  // then detour to another coordinate of the blocked dimension — that row
  // router keeps a direct channel to the wanted coordinate.
  for (std::int32_t dim = 0; dim < params_.n; ++dim) {
    const std::int32_t ct = coord(target, dim);
    if (coord(r, dim) == ct) continue;
    const PortIndex p = channel_to(r, dim, ct);
    if (p != avoid && link_up(r, p)) return p;
  }
  const std::int32_t dead_dim = avoid / (k - 1);
  for (std::int32_t i = 0; i < k - 1; ++i) {
    const PortIndex p = dead_dim * (k - 1) + i;
    if (p != avoid && link_up(r, p)) return p;
  }
  for (PortIndex p = 0; p < forward_ports(); ++p) {
    if (p != avoid && link_up(r, p)) return p;
  }
  return kInvalidPort;
}

bool FlattenedButterflyTopology::min_link_probe(RouterId r, NodeId dst,
                                                RemoteProbe& out) const {
  // One-hop-lookahead: the next router's own minimal output toward `dst`
  // (an ejection port there reads as zero occupancy).
  const PortIndex first = minimal_output(r, dst);
  if (first >= forward_ports()) return false;
  const RouterId next = peer(r, first);
  out = RemoteProbe{next, minimal_output(next, dst)};
  return true;
}

bool FlattenedButterflyTopology::nonmin_remote_probe(
    RouterId r, const NonminCandidate& cand, RemoteProbe& out) const {
  // One-hop-lookahead on the candidate path: the next router's output
  // continuing toward the intermediate (toward the final destination when
  // the intermediate is already the next router).
  if (cand.first_hop < 0 || cand.first_hop >= forward_ports()) return false;
  const RouterId next = peer(r, cand.first_hop);
  const PortIndex cont = next == cand.inter
                             ? kInvalidPort
                             : route_toward(next, cand.inter);
  if (cont == kInvalidPort) return false;
  out = RemoteProbe{next, cont};
  return true;
}

TrafficTopologyInfo FlattenedButterflyTopology::traffic_info() const {
  TrafficTopologyInfo info;
  info.nodes = nodes();
  info.groups = routers();
  info.nodes_per_group = params_.c;
  const std::int32_t k = params_.k;
  // ADV+o advances the dimension-0 coordinate: ADV+1 is the row adversary
  // of the Section VI-D bench (all nodes of router R target R+1 in dim 0).
  info.adv_group = [k](std::int32_t r, std::int32_t offset) {
    const std::int32_t c0 = r % k;
    return r - c0 + ((c0 + offset) % k + k) % k;
  };
  return info;
}

}  // namespace dfsim
