#include "topo/factory.hpp"

namespace dfsim {

std::unique_ptr<Topology> make_topology(const SimParams& params) {
  switch (params.topology) {
    case TopologyKind::kFbfly:
      return std::make_unique<FlattenedButterflyTopology>(params.fbfly);
    case TopologyKind::kTorus:
      return std::make_unique<TorusTopology>(params.torus);
    case TopologyKind::kDragonfly:
      break;
  }
  return std::make_unique<DragonflyTopology>(params.topo);
}

}  // namespace dfsim
