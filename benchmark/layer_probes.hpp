// Per-layer replays for the traced run. Each one drives a single src/
// module through its public API with inputs taken from the workload — its
// SimParams, its traffic model, and the queue population the measured run
// reached — and times the calls from outside, inside a span named after
// the layer. Nothing here reaches into engine internals.
#pragma once

#include <cstdint>

#include "sim/config.hpp"
#include "spans.hpp"
#include "topo/topology.hpp"

namespace dfsim::bench {

/// What the replays take from a measured workload run.
struct ReplayInputs {
  const SimParams& params;
  const Topology& topo;
  /// Packets in the network per router, averaged over the measured chunks.
  double in_network_per_router = 0.0;
  std::uint64_t seed = 1;
};

struct AllocatorReplay {
  double ns_per_request = 0.0;
  double grant_ratio = 0.0;  // grants / requests
};
/// SeparableAllocator::begin_cycle + up to `speedup` iterate() calls on
/// request batches over the workload's radix and VCs. Each (input port, VC)
/// requests with probability in_network_per_router / (radix * VCs), capped
/// at 1, toward a uniformly drawn output.
[[nodiscard]] AllocatorReplay replay_allocator(const ReplayInputs& in,
                                               SpanRecorder& rec);

/// Time per routing decision at the source router: decide_injection for
/// mechanisms that decide at injection, decide_transit (vc_state 0) for the
/// in-transit family (Base). The mechanism comes from routing::make_mechanism
/// over a probe stub that serves the measured occupancy, with contention
/// counters seeded by in_network_per_router heads per router whose
/// destinations follow the workload's traffic pattern.
[[nodiscard]] double replay_routing_decide_ns(const ReplayInputs& in,
                                              SpanRecorder& rec);

struct TopologyReplay {
  double minimal_output_ns = 0.0;
  double sample_nonmin_ns = 0.0;
};
/// Topology::minimal_output and sample_nonmin over (router, destination)
/// pairs drawn from the workload's traffic model.
[[nodiscard]] TopologyReplay replay_topology(const ReplayInputs& in,
                                             SpanRecorder& rec);

struct TrafficReplay {
  double ns_per_node_cycle = 0.0;
  double injections_per_cycle = 0.0;
};
/// A standalone TrafficModel for the workload's spec, pulled through
/// begin_cycle/next as the engine does.
[[nodiscard]] TrafficReplay replay_traffic(const ReplayInputs& in,
                                           SpanRecorder& rec);

}  // namespace dfsim::bench
