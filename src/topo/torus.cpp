#include "topo/torus.hpp"

namespace dfsim {

TorusTopology::TorusTopology(const TorusParams& params) : params_(params) {
  set_shape(params_.routers(), 2 * params_.n, params_.c);
}

RouterId TorusTopology::peer(RouterId r, PortIndex port) const {
  const std::int32_t k = params_.k;
  const std::int32_t dim = port / 2;
  const std::int32_t own = coord(r, dim);
  const std::int32_t next =
      (port % 2 == 0) ? (own + 1) % k : (own - 1 + k) % k;
  std::int32_t stride = 1;
  for (std::int32_t d = 0; d < dim; ++d) stride *= k;
  return r + (next - own) * stride;
}

PortIndex TorusTopology::minimal_output(RouterId r, NodeId dest) const {
  const RouterId dr = router_of_node(dest);
  if (dr == r) return forward_ports() + (dest % params_.c);
  return route_toward(r, dr);
}

PortIndex TorusTopology::route_toward(RouterId r, RouterId target) const {
  if (r == target) return kInvalidPort;
  const std::int32_t k = params_.k;
  for (std::int32_t dim = 0; dim < params_.n; ++dim) {
    const std::int32_t cr = coord(r, dim);
    const std::int32_t ct = coord(target, dim);
    if (cr == ct) continue;
    const std::int32_t plus = ((ct - cr) % k + k) % k;
    // Shorter direction wins; ties go to plus, which is what concentrates
    // tornado traffic (offset k/2) on one ring direction.
    return plus <= k - plus ? dim * 2 : dim * 2 + 1;
  }
  return kInvalidPort;
}

std::int32_t TorusTopology::min_channel(RouterId r, NodeId dst) const {
  const RouterId dr = router_of_node(dst);
  return dr == r ? -1 : dr;  // candidate space is router ids
}

bool TorusTopology::make_candidate(RouterId r, RouterId inter,
                                   NonminCandidate& out) const {
  out.channel = inter;
  out.inter = inter;
  out.via_port = -1;  // phase 0 ends on arrival at the intermediate
  out.first_hop = route_toward(r, inter);
  return candidate_usable(r, out);
}

bool TorusTopology::sample_nonmin(Rng& rng, RouterId r, NodeId dst,
                                  bool own_router_only,
                                  NonminCandidate& out) const {
  (void)own_router_only;
  const RouterId dr = router_of_node(dst);
  const auto inter = static_cast<RouterId>(
      rng.next_below(static_cast<std::uint64_t>(routers())));
  if (inter == r || inter == dr) return false;
  return make_candidate(r, inter, out);
}

bool TorusTopology::nonmin_candidate_at(RouterId r, NodeId dst,
                                        bool own_router_only,
                                        std::int32_t index,
                                        NonminCandidate& out) const {
  (void)own_router_only;
  const RouterId dr = router_of_node(dst);
  if (index == r || index == dr) return false;  // not a nonminimal option
  return make_candidate(r, index, out);
}

bool TorusTopology::sample_valiant(Rng& rng, RouterId r, NodeId dst,
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

PortIndex TorusTopology::fallback_output(RouterId r, RouterId target,
                                         PortIndex avoid) const {
  // The opposite direction of the blocked ring first (the long way round
  // that dimension), then the preferred direction of any other unresolved
  // dimension, then anything live. DOR is memoryless, so a detour can
  // ping-pong in pathological cut sets; the engine's hop cap bounds that.
  const PortIndex opposite = avoid ^ 1;
  if (link_up(r, opposite)) return opposite;
  const std::int32_t k = params_.k;
  for (std::int32_t dim = 0; dim < params_.n; ++dim) {
    const std::int32_t cr = coord(r, dim);
    const std::int32_t ct = coord(target, dim);
    if (cr == ct) continue;
    const std::int32_t plus = ((ct - cr) % k + k) % k;
    const PortIndex pref = plus <= k - plus ? dim * 2 : dim * 2 + 1;
    if (pref != avoid && link_up(r, pref)) return pref;
    if ((pref ^ 1) != avoid && link_up(r, pref ^ 1)) return pref ^ 1;
  }
  for (PortIndex p = 0; p < forward_ports(); ++p) {
    if (p != avoid && link_up(r, p)) return p;
  }
  return kInvalidPort;
}

bool TorusTopology::min_link_probe(RouterId r, NodeId dst,
                                   RemoteProbe& out) const {
  // One-hop-lookahead: the next router's minimal output toward `dst` — on a
  // ring the congestion of interest is a few hops downstream, and the
  // neighbor's same-direction queue is the closest observable proxy.
  const PortIndex first = minimal_output(r, dst);
  if (first >= forward_ports()) return false;
  const RouterId next = peer(r, first);
  out = RemoteProbe{next, minimal_output(next, dst)};
  return true;
}

bool TorusTopology::nonmin_remote_probe(RouterId r,
                                        const NonminCandidate& cand,
                                        RemoteProbe& out) const {
  // One-hop-lookahead on the candidate path, mirroring min_remote_probe.
  if (cand.first_hop < 0 || cand.first_hop >= forward_ports()) return false;
  const RouterId next = peer(r, cand.first_hop);
  const PortIndex cont = next == cand.inter
                             ? kInvalidPort
                             : route_toward(next, cand.inter);
  if (cont == kInvalidPort) return false;
  out = RemoteProbe{next, cont};
  return true;
}

TrafficTopologyInfo TorusTopology::traffic_info() const {
  TrafficTopologyInfo info;
  info.nodes = nodes();
  info.groups = routers();
  info.nodes_per_group = params_.c;
  const std::int32_t k = params_.k;
  // ADV+o advances the dimension-0 ring coordinate; offset k/2 is the
  // tornado adversary (every router sends halfway around its row ring).
  info.adv_group = [k](std::int32_t r, std::int32_t offset) {
    const std::int32_t c0 = r % k;
    return r - c0 + ((c0 + offset) % k + k) % k;
  };
  return info;
}

}  // namespace dfsim
