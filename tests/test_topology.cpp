// DragonflyTopology invariants: peer symmetry, unique group pair links,
// minimal path shape (<= 3 router hops, <= 1 global hop), gateway tables —
// plus the nonminimal candidate-pool enumeration contract
// (nonmin_candidate_at) all three topologies must honor for the engine's
// small-pool exhaustive scoring.
#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <set>

#include "topo/dragonfly.hpp"
#include "topo/fbfly.hpp"
#include "topo/torus.hpp"

namespace {

void check_preset(const dfsim::SimParams& params) {
  using namespace dfsim;
  const DragonflyTopology topo(params.topo);
  const std::int32_t a = params.topo.a;

  // Peer symmetry: following a link and its reported reverse port returns.
  for (RouterId r = 0; r < topo.routers(); ++r) {
    for (PortIndex port = 0; port < topo.forward_ports(); ++port) {
      const RouterId peer = topo.peer(r, port);
      const PortIndex back = topo.peer_port(r, port);
      assert(peer != r);
      assert(topo.peer(peer, back) == r);
      assert(topo.peer_port(peer, back) == port);
      // Local links stay in the group; global links leave it.
      if (topo.is_local_port(port)) {
        assert(topo.group_of(peer) == topo.group_of(r));
      } else {
        assert(topo.group_of(peer) != topo.group_of(r));
      }
    }
  }

  // Every ordered group pair has exactly one gateway, consistent with peers.
  for (GroupId g = 0; g < topo.groups(); ++g) {
    for (GroupId gd = 0; gd < topo.groups(); ++gd) {
      if (g == gd) continue;
      const RouterId gw = topo.minimal_global_source(g, gd);
      const PortIndex gp = topo.minimal_global_port(g, gd);
      assert(topo.group_of(gw) == g);
      assert(topo.is_global_port(gp));
      assert(topo.group_of(topo.peer(gw, gp)) == gd);
    }
  }

  // Minimal routes: walking min_port reaches the destination router within
  // 3 hops using at most 1 global hop, and minimal_output agrees.
  for (RouterId r = 0; r < topo.routers(); ++r) {
    for (RouterId dr = 0; dr < topo.routers(); ++dr) {
      RouterId cur = r;
      std::int32_t hops = 0;
      std::int32_t globals = 0;
      while (cur != dr) {
        const PortIndex port = topo.minimal_router_output(cur, dr);
        assert(port != kInvalidPort);
        if (topo.is_global_port(port)) ++globals;
        cur = topo.peer(cur, port);
        ++hops;
        assert(hops <= 3);
      }
      assert(globals <= 1);
      assert(hops == topo.minimal_hops(r, dr));
      // Cross-group paths have at least the global hop.
      if (topo.group_of(r) != topo.group_of(dr)) assert(globals == 1);
    }
  }

  // minimal_output at the destination router is the right ejection port.
  for (NodeId n = 0; n < topo.nodes(); ++n) {
    const RouterId dr = topo.router_of_node(n);
    const PortIndex port = topo.minimal_output(dr, n);
    assert(topo.is_ejection_port(port));
    assert(port - topo.forward_ports() == n % params.topo.p);
  }

  // local_port_to round-trip across the whole group.
  for (RouterId r = 0; r < topo.routers(); ++r) {
    const GroupId g = topo.group_of(r);
    for (std::int32_t li = 0; li < a; ++li) {
      const RouterId other = g * a + li;
      if (other == r) continue;
      const PortIndex port = topo.local_port_to(r, other);
      assert(topo.is_local_port(port));
      assert(topo.peer(r, port) == other);
    }
  }
}

// Enumeration contract of nonmin_candidate_at: distinct indices yield
// distinct channels, every usable index fills a candidate whose channel is
// never the minimal one, and (for the dragonfly) the CRG pool enumerates
// exactly this router's own global channels. The engine's small-pool
// exhaustive scoring (pick_misroute_channel) relies on all of this.
void check_candidate_enumeration(const dfsim::Topology& topo,
                                 bool has_crg_restriction) {
  using namespace dfsim;
  for (RouterId r = 0; r < topo.routers(); r += std::max(1, topo.routers() / 7)) {
    for (NodeId dst = 0; dst < topo.nodes();
         dst += std::max(1, topo.nodes() / 5)) {
      if (topo.router_of_node(dst) == r) continue;
      if (topo.min_channel(r, dst) < 0) continue;  // no nonminimal decision
      for (const bool crg : {false, true}) {
        if (crg && !has_crg_restriction) continue;
        const std::int32_t pool = topo.nonmin_pool_size(r, crg);
        assert(pool > 0);
        std::set<std::int32_t> channels;
        for (std::int32_t i = 0; i < pool; ++i) {
          NonminCandidate cand;
          if (!topo.nonmin_candidate_at(r, dst, crg, i, cand)) continue;
          assert(cand.channel != topo.min_channel(r, dst));
          assert(cand.first_hop >= 0);
          const bool fresh = channels.insert(cand.channel).second;
          assert(fresh);  // distinct indices -> distinct candidates
        }
        // The pool loses at most the minimal slot plus (router-id candidate
        // spaces) the self/destination routers; everything else is usable.
        assert(static_cast<std::int32_t>(channels.size()) >= pool - 2);
        assert(!channels.empty());
      }
    }
  }
}

}  // namespace

int main() {
  check_preset(dfsim::presets::tiny());
  check_preset(dfsim::presets::small());

  {
    using namespace dfsim;
    const DragonflyTopology dragonfly(presets::small().topo);
    check_candidate_enumeration(dragonfly, /*has_crg_restriction=*/true);
    const FlattenedButterflyTopology fbfly(FbflyParams{4, 2, 4});
    check_candidate_enumeration(fbfly, /*has_crg_restriction=*/false);
    const TorusTopology torus(TorusParams{8, 2, 2});
    check_candidate_enumeration(torus, /*has_crg_restriction=*/false);
  }
  return EXIT_SUCCESS;
}
