#include "topo/dragonfly.hpp"

#include <cassert>

namespace dfsim {

DragonflyTopology::DragonflyTopology(const TopoParams& params)
    : params_(params), groups_(params.groups()) {
  set_shape(params_.routers(), params_.forward_ports(), params_.p);

  const auto n_routers = static_cast<std::size_t>(routers());
  const auto n_groups = static_cast<std::size_t>(groups_);
  const auto fwd = static_cast<std::size_t>(forward_ports());

  peer_.assign(n_routers * fwd, -1);
  peer_port_.assign(n_routers * fwd, -1);
  global_src_.assign(n_groups * n_groups, -1);
  global_port_.assign(n_groups * n_groups, -1);

  const std::int32_t a = params_.a;
  const std::int32_t h = params_.h;

  // Peer tables.
  for (RouterId r = 0; r < routers(); ++r) {
    const GroupId g = group_of(r);
    const std::int32_t lr = local_index(r);
    // Local ports: port i reaches local index (i < lr ? i : i + 1).
    for (PortIndex port = 0; port < a - 1; ++port) {
      const std::int32_t li = port < lr ? port : port + 1;
      const RouterId dest = g * a + li;
      peer_[static_cast<std::size_t>(r) * fwd + static_cast<std::size_t>(port)] = dest;
      peer_port_[static_cast<std::size_t>(r) * fwd +
                 static_cast<std::size_t>(port)] =
          static_cast<std::int16_t>(local_port_to(dest, r));
    }
    // Global ports: channel j = lr*h + gp of group g reaches group
    // (j < g ? j : j+1); the far end is that group's channel for g.
    for (PortIndex gp = 0; gp < h; ++gp) {
      const std::int32_t j = lr * h + gp;
      const GroupId gd = global_channel_dest(g, j);
      const std::int32_t j_back = g < gd ? g : g - 1;  // gd's channel to g
      const RouterId dest = gd * a + j_back / h;
      const PortIndex dest_port = (a - 1) + (j_back % h);
      const PortIndex port = (a - 1) + gp;
      peer_[static_cast<std::size_t>(r) * fwd + static_cast<std::size_t>(port)] = dest;
      peer_port_[static_cast<std::size_t>(r) * fwd +
                 static_cast<std::size_t>(port)] =
          static_cast<std::int16_t>(dest_port);
      // Group-level gateway tables.
      global_src_[static_cast<std::size_t>(g) * n_groups +
                  static_cast<std::size_t>(gd)] = r;
      global_port_[static_cast<std::size_t>(g) * n_groups +
                   static_cast<std::size_t>(gd)] =
          static_cast<std::int16_t>(port);
    }
  }

  // Minimal next-output table over router pairs. Route shape is
  // local?(to gateway) -> global -> local?(to dest router).
  min_port_.assign(n_routers * n_routers, kEject);
  for (RouterId r = 0; r < routers(); ++r) {
    const GroupId g = group_of(r);
    for (RouterId dr = 0; dr < routers(); ++dr) {
      const std::size_t idx =
          static_cast<std::size_t>(r) * n_routers + static_cast<std::size_t>(dr);
      if (dr == r) continue;  // stays kEject
      const GroupId gd = group_of(dr);
      if (gd == g) {
        min_port_[idx] = static_cast<std::int16_t>(local_port_to(r, dr));
        continue;
      }
      const RouterId gateway = minimal_global_source(g, gd);
      if (r == gateway) {
        min_port_[idx] = static_cast<std::int16_t>(minimal_global_port(g, gd));
      } else {
        min_port_[idx] = static_cast<std::int16_t>(local_port_to(r, gateway));
      }
    }
  }
}

std::int32_t DragonflyTopology::minimal_hops(RouterId from, RouterId to) const {
  std::int32_t hops = 0;
  RouterId r = from;
  while (r != to) {
    const PortIndex port = minimal_router_output(r, to);
    assert(port != kInvalidPort);
    r = peer(r, port);
    ++hops;
    assert(hops <= 3);
  }
  return hops;
}

// ---------------------------------------------------------------------------
// Nonminimal candidate machinery (moved from the engine's dragonfly-specific
// routing; RNG draw sequences are preserved exactly).

std::int32_t DragonflyTopology::min_channel(RouterId r, NodeId dst) const {
  const GroupId g = group_of(r);
  const GroupId gd = group_of(router_of_node(dst));
  if (gd == g) return -1;  // intra-group traffic stays minimal
  return gd < g ? gd : gd - 1;
}

std::int32_t DragonflyTopology::nonmin_pool_size(RouterId r,
                                                 bool own_router_only) const {
  (void)r;
  return own_router_only ? params_.h : params_.a * params_.h;
}

bool DragonflyTopology::nonmin_viable(RouterId r, NodeId dst,
                                      bool own_router_only) const {
  if (!own_router_only || params_.h > 1) return true;
  // CRG with a single global channel per router: unusable when that channel
  // is the minimal one.
  return local_index(r) * params_.h != min_channel(r, dst);
}

void DragonflyTopology::fill_candidate(RouterId r, std::int32_t channel,
                                       NonminCandidate& out) const {
  const GroupId g = group_of(r);
  const std::int32_t a = params_.a;
  const std::int32_t h = params_.h;
  out.channel = channel;
  out.inter = g * a + channel / h;
  out.via_port = (a - 1) + channel % h;
  out.first_hop = out.inter == r ? out.via_port : local_port_to(r, out.inter);
}

bool DragonflyTopology::sample_nonmin(Rng& rng, RouterId r, NodeId dst,
                                      bool own_router_only,
                                      NonminCandidate& out) const {
  const std::int32_t h = params_.h;
  const std::int32_t channels = params_.a * h;
  const std::int32_t jmin = min_channel(r, dst);
  const std::int32_t j =
      own_router_only
          ? local_index(r) * h + static_cast<std::int32_t>(rng.next_below(
                                     static_cast<std::uint64_t>(h)))
          : static_cast<std::int32_t>(
                rng.next_below(static_cast<std::uint64_t>(channels)));
  if (j == jmin) return false;
  fill_candidate(r, j, out);
  return candidate_usable(r, out);
}

bool DragonflyTopology::nonmin_candidate_at(RouterId r, NodeId dst,
                                            bool own_router_only,
                                            std::int32_t index,
                                            NonminCandidate& out) const {
  const std::int32_t j =
      own_router_only ? local_index(r) * params_.h + index : index;
  if (j == min_channel(r, dst)) return false;
  fill_candidate(r, j, out);
  return candidate_usable(r, out);
}

bool DragonflyTopology::sample_valiant(Rng& rng, RouterId r, NodeId dst,
                                       NonminCandidate& out) const {
  const std::int32_t channels = params_.a * params_.h;
  const std::int32_t jmin = min_channel(r, dst);
  std::int32_t j = static_cast<std::int32_t>(
      rng.next_below(static_cast<std::uint64_t>(channels - 1)));
  if (j >= jmin) ++j;
  fill_candidate(r, j, out);
  return candidate_usable(r, out);
}

PortIndex DragonflyTopology::fallback_output(RouterId r, RouterId /*target*/,
                                             PortIndex avoid) const {
  // A dead global link has no minimal replacement (one link per group
  // pair), but any other live global port reaches a group that still has
  // its own link toward the destination group; a dead local hop detours via
  // another local router, which — groups being fully connected — keeps a
  // direct link to the gateway. So prefer same-class alternatives, scanning
  // cyclically from just past the dead port so rerouted traffic spreads
  // instead of re-converging on one substitute.
  const std::int32_t a = params_.a;
  const std::int32_t fwd = forward_ports();
  const bool global_dead = avoid >= a - 1;
  const PortIndex lo = global_dead ? a - 1 : 0;
  const PortIndex hi = global_dead ? fwd : a - 1;
  const std::int32_t span = hi - lo;
  for (std::int32_t i = 1; i < span; ++i) {
    const PortIndex p = lo + static_cast<PortIndex>((avoid - lo + i) % span);
    if (link_up(r, p)) return p;
  }
  for (PortIndex p = 0; p < fwd; ++p) {
    if (p != avoid && link_up(r, p)) return p;
  }
  return kInvalidPort;
}

HopEstimate DragonflyTopology::min_hops(RouterId r, RouterId dr) const {
  if (r == dr) return {0, 0};
  const GroupId g = group_of(r);
  const GroupId gd = group_of(dr);
  if (g == gd) return {1, 0};
  HopEstimate est{0, 1};
  const RouterId gateway = minimal_global_source(g, gd);
  if (r != gateway) ++est.local_hops;
  const RouterId entry = peer(gateway, minimal_global_port(g, gd));
  if (entry != dr) ++est.local_hops;
  return est;
}

HopEstimate DragonflyTopology::nonmin_hops(RouterId r,
                                           const NonminCandidate& cand,
                                           RouterId dr) const {
  const RouterId entry = peer(cand.inter, cand.via_port);
  HopEstimate est = min_hops(entry, dr);
  ++est.global_hops;
  if (cand.inter != r) ++est.local_hops;
  return est;
}

bool DragonflyTopology::min_remote_probe(RouterId r, NodeId dst,
                                         RemoteProbe& out) const {
  const GroupId g = group_of(r);
  const GroupId gd = group_of(router_of_node(dst));
  if (gd == g) return false;
  const RouterId min_gw = minimal_global_source(g, gd);
  if (min_gw == r) return false;  // first-hop term already covers it
  out = RemoteProbe{min_gw, minimal_global_port(g, gd)};
  return true;
}

bool DragonflyTopology::nonmin_remote_probe(RouterId r,
                                            const NonminCandidate& cand,
                                            RemoteProbe& out) const {
  if (cand.inter < 0 || cand.inter == r) return false;
  out = RemoteProbe{cand.inter, cand.via_port};
  return true;
}

bool DragonflyTopology::min_link_probe(RouterId r, NodeId dst,
                                       RemoteProbe& out) const {
  const GroupId g = group_of(r);
  const GroupId gd = group_of(router_of_node(dst));
  if (gd == g) return false;
  out = RemoteProbe{minimal_global_source(g, gd), minimal_global_port(g, gd)};
  return true;
}

TrafficTopologyInfo DragonflyTopology::traffic_info() const {
  TrafficTopologyInfo info;
  info.nodes = nodes();
  info.groups = groups_;
  info.nodes_per_group = params_.a * params_.p;
  return info;  // default ring adv_group matches ADV+o on the dragonfly
}

}  // namespace dfsim
