#include "layer_probes.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "router/allocator.hpp"
#include "routing/factory.hpp"
#include "traffic/model.hpp"
#include "util/rng.hpp"

namespace dfsim::bench {

namespace {

using Clock = std::chrono::steady_clock;

/// Checksums of replayed results land here so no timed call is dead code.
volatile std::int64_t g_sink = 0;

double ns_since(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

struct RoutePair {
  RouterId router = 0;
  NodeId src = 0;
  NodeId dst = 0;
};

/// `n` (source router, destination) pairs: uniform sources, destinations
/// from the workload's own traffic model.
std::vector<RoutePair> draw_pairs(const ReplayInputs& in, std::size_t n) {
  TrafficModel model(in.params.traffic, in.topo.traffic_info(),
                     in.params.packet_size_phits, in.seed);
  Rng rng(in.seed ^ 0x5bd1e995u);
  std::vector<RoutePair> pairs(n);
  for (RoutePair& p : pairs) {
    p.src = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(in.topo.nodes())));
    p.dst = model.draw_dest(p.src);
    p.router = in.topo.router_of_node(p.src);
  }
  return pairs;
}

std::int32_t max_vcs(const RouterParams& r) {
  return std::max({r.vcs_local, r.vcs_global, r.vcs_injection});
}

std::int32_t port_vcs(const SimParams& params, const Topology& topo,
                      PortIndex port) {
  if (port >= topo.forward_ports()) return params.router.vcs_injection;
  return topo.port_class(port) == PortClass::kLocalClass
             ? params.router.vcs_local
             : params.router.vcs_global;
}

/// Serves one uniform occupancy for every forward port: the measured
/// packets in the network per router spread over its forward ports.
class OccupancyStub final : public routing::EngineProbe {
 public:
  OccupancyStub(const SimParams& params, const Topology& topo,
                double in_network_per_router)
      : params_(params),
        fwd_(topo.forward_ports()),
        psize_(params.packet_size_phits),
        local_class_(static_cast<std::size_t>(fwd_)),
        occupancy_(static_cast<std::int32_t>(std::lround(
            in_network_per_router * params.packet_size_phits /
            std::max(1, topo.forward_ports())))) {
    for (PortIndex p = 0; p < fwd_; ++p) {
      local_class_[static_cast<std::size_t>(p)] =
          topo.port_class(p) == PortClass::kLocalClass;
    }
  }

  [[nodiscard]] std::int32_t occupancy_phits(RouterId,
                                             PortIndex out) const override {
    return out >= fwd_ ? 0 : occupancy_;
  }
  [[nodiscard]] std::int32_t port_capacity_phits(
      PortIndex out) const override {
    if (out >= fwd_) return psize_;
    return std::max(psize_, local_class_[static_cast<std::size_t>(out)]
                                ? params_.router.buf_local_phits
                                : params_.router.buf_global_phits);
  }
  [[nodiscard]] std::int32_t probe_occupancy_phits(
      std::int32_t, RouterId r, PortIndex out) const override {
    return occupancy_phits(r, out);
  }
  [[nodiscard]] std::int32_t free_credits(RouterId r, PortIndex out,
                                          std::int8_t) const override {
    return std::max(0, (port_capacity_phits(out) - occupancy_phits(r, out)) /
                           psize_);
  }
  [[nodiscard]] std::int32_t fault_extra_latency(RouterId,
                                                 PortIndex) const override {
    return 0;
  }
  [[nodiscard]] bool fault_overlay() const override { return false; }

 private:
  const SimParams& params_;
  std::int32_t fwd_;
  std::int32_t psize_;
  std::vector<bool> local_class_;
  std::int32_t occupancy_;
};

}  // namespace

AllocatorReplay replay_allocator(const ReplayInputs& in, SpanRecorder& rec) {
  constexpr std::size_t kBatches = 256;
  constexpr std::int64_t kCycles = 40000;
  const std::int32_t radix = in.topo.radix();
  const std::int32_t vmax = max_vcs(in.params.router);
  const double request_p =
      std::min(1.0, in.in_network_per_router / (radix * vmax));

  Rng rng(in.seed);
  std::vector<AllocRequestBatch> batches(kBatches);
  for (AllocRequestBatch& batch : batches) {
    batch.reserve(radix, vmax);
    for (PortIndex port = 0; port < radix; ++port) {
      for (VcIndex vc = 0; vc < port_vcs(in.params, in.topo, port); ++vc) {
        if (rng.next_double() < request_p) {
          batch.add(port, vc,
                    static_cast<PortIndex>(rng.next_below(
                        static_cast<std::uint64_t>(radix))));
        }
      }
    }
  }

  SeparableAllocator alloc(radix, radix, vmax);
  if (in.params.router.through_priority) {
    alloc.set_through_priority(in.topo.forward_ports());
  }
  std::int64_t requests = 0;
  std::int64_t grants = 0;
  const auto scope = rec.scope("router.allocate");
  const Clock::time_point t0 = Clock::now();
  for (std::int64_t c = 0; c < kCycles; ++c) {
    const AllocRequestBatch& batch =
        batches[static_cast<std::size_t>(c) % kBatches];
    if (batch.empty()) continue;
    alloc.begin_cycle();
    for (std::int32_t it = 0; it < in.params.router.speedup; ++it) {
      if (alloc.iterate(batch).empty() && it > 0) break;
    }
    requests += static_cast<std::int64_t>(batch.reqs().size());
    grants += static_cast<std::int64_t>(alloc.cycle_grants().size());
  }
  const double ns = ns_since(t0);
  g_sink = grants;
  if (requests == 0) return {};
  return AllocatorReplay{ns / static_cast<double>(requests),
                         static_cast<double>(grants) /
                             static_cast<double>(requests)};
}

double replay_routing_decide_ns(const ReplayInputs& in, SpanRecorder& rec) {
  constexpr std::size_t kPairs = 1u << 16;
  constexpr int kPasses = 4;
  const OccupancyStub probe(in.params, in.topo, in.in_network_per_router);
  const std::unique_ptr<routing::RoutingMechanism> mech =
      routing::make_mechanism(in.params, in.topo, probe);

  // Contention counters: the measured head population per router (capped
  // at one head per input VC), each counted on its minimal output.
  const std::int32_t radix = in.topo.radix();
  const auto heads = static_cast<std::int32_t>(std::min<double>(
      std::lround(in.in_network_per_router),
      radix * max_vcs(in.params.router)));
  TrafficModel model(in.params.traffic, in.topo.traffic_info(),
                     in.params.packet_size_phits, in.seed + 1);
  Rng rng(in.seed + 2);
  const std::int32_t conc = in.topo.concentration();
  for (RouterId r = 0; r < in.topo.routers(); ++r) {
    for (std::int32_t h = 0; h < heads; ++h) {
      const auto src = static_cast<NodeId>(
          r * conc + static_cast<NodeId>(rng.next_below(
                         static_cast<std::uint64_t>(conc))));
      const NodeId dst = model.draw_dest(src);
      mech->on_head(r * radix + in.topo.minimal_output(r, dst));
    }
  }

  // The engine asks only where a nonminimal option applies.
  struct Ask {
    RoutePair pair;
    PortIndex min_port = 0;
    std::int32_t min_channel = -1;
  };
  std::vector<Ask> asks;
  for (const RoutePair& p : draw_pairs(in, kPairs)) {
    const std::int32_t channel = in.topo.min_channel(p.router, p.dst);
    if (channel < 0) continue;
    asks.push_back(
        Ask{p, in.topo.minimal_output(p.router, p.dst), channel});
  }
  const bool at_injection = mech->decides_at_injection();
  if (asks.empty() || (!at_injection && !mech->decides_in_transit())) {
    return 0.0;
  }

  std::int64_t misroutes = 0;
  const auto scope = rec.scope("routing.decide");
  const Clock::time_point t0 = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const Ask& a : asks) {
      const routing::Decision d =
          at_injection
              ? mech->decide_injection(rng, 0, 0, a.pair.router, a.pair.dst)
              : mech->decide_transit(rng, 0, a.pair.router, a.pair.dst, 0,
                                     a.min_port, a.min_channel);
      misroutes += d.misroute ? 1 : 0;
    }
  }
  const double ns = ns_since(t0);
  g_sink = misroutes;
  return ns / static_cast<double>(asks.size() * kPasses);
}

TopologyReplay replay_topology(const ReplayInputs& in, SpanRecorder& rec) {
  constexpr std::size_t kPairs = 1u << 16;
  constexpr int kPasses = 16;
  const std::vector<RoutePair> pairs = draw_pairs(in, kPairs);
  const double calls = static_cast<double>(pairs.size() * kPasses);
  TopologyReplay out;
  std::int64_t sum = 0;
  {
    const auto scope = rec.scope("topo.minimal_output");
    const Clock::time_point t0 = Clock::now();
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const RoutePair& p : pairs) {
        sum += in.topo.minimal_output(p.router, p.dst);
      }
    }
    out.minimal_output_ns = ns_since(t0) / calls;
  }
  {
    Rng rng(in.seed + 3);
    NonminCandidate cand;
    const auto scope = rec.scope("topo.sample_nonmin");
    const Clock::time_point t0 = Clock::now();
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const RoutePair& p : pairs) {
        if (in.topo.sample_nonmin(rng, p.router, p.dst, false, cand)) {
          sum += cand.channel;
        }
      }
    }
    out.sample_nonmin_ns = ns_since(t0) / calls;
  }
  g_sink = sum;
  return out;
}

TrafficReplay replay_traffic(const ReplayInputs& in, SpanRecorder& rec) {
  // ~2e7 node-cycles whatever the scale.
  const std::int64_t nodes = in.topo.nodes();
  const std::int64_t cycles = std::max<std::int64_t>(100, 20000000 / nodes);
  TrafficModel model(in.params.traffic, in.topo.traffic_info(),
                     in.params.packet_size_phits, in.seed);
  std::int64_t injections = 0;
  std::int64_t sum = 0;
  const auto scope = rec.scope("traffic.next");
  const Clock::time_point t0 = Clock::now();
  Injection inj;
  for (Cycle c = 0; c < cycles; ++c) {
    model.begin_cycle(c);
    while (model.next(inj)) {
      ++injections;
      sum += inj.dst;
    }
  }
  const double ns = ns_since(t0);
  g_sink = sum;
  return TrafficReplay{
      ns / static_cast<double>(cycles * nodes),
      static_cast<double>(injections) / static_cast<double>(cycles)};
}

}  // namespace dfsim::bench
