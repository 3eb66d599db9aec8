// Topology factory: instantiates the Topology plugin SimParams selects, and
// the visitor that hands a topology to generic code as its concrete class.
#pragma once

#include <cassert>
#include <memory>

#include "sim/config.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fbfly.hpp"
#include "topo/topology.hpp"
#include "topo/torus.hpp"

namespace dfsim {

/// Builds the topology named by `params.topology` from the matching shape
/// struct, whose fields must be in their validate() ranges
/// (sim/config_io.hpp).
[[nodiscard]] std::unique_ptr<Topology> make_topology(const SimParams& params);

/// Calls `fn(topo)` with `topo` cast to the `final` class that `kind` names,
/// the class make_topology builds for it; `topo` must have been built that
/// way. Generic code written against the Topology interface then calls the
/// concrete class directly, and its topology calls inline. The engine's
/// cycle loop goes through here once per dispatch.
template <class Fn>
decltype(auto) visit_topology(TopologyKind kind, const Topology& topo,
                              Fn&& fn) {
  switch (kind) {
    case TopologyKind::kFbfly:
      assert(dynamic_cast<const FlattenedButterflyTopology*>(&topo));
      return fn(static_cast<const FlattenedButterflyTopology&>(topo));
    case TopologyKind::kTorus:
      assert(dynamic_cast<const TorusTopology*>(&topo));
      return fn(static_cast<const TorusTopology&>(topo));
    case TopologyKind::kDragonfly:
      break;
  }
  assert(dynamic_cast<const DragonflyTopology*>(&topo));
  return fn(static_cast<const DragonflyTopology&>(topo));
}

}  // namespace dfsim
