#include "routing/ugal.hpp"

namespace dfsim::routing {

Decision UgalMechanism::decide_injection(Rng& rng, Cycle now,
                                         std::int32_t shard,
                                         RouterId r, NodeId dst) {
  Decision dec;
  NonminCandidate cand;
  if (pick_misroute_channel(rng, now, r, dst, /*use_occupancy=*/true, cand) &&
      ugal_prefers_misroute(shard, r, dst, cand, global_info_)) {
    dec.misroute = true;
    dec.cause = telemetry::MisrouteCause::kUgal;
    dec.cand = cand;
  }
  return dec;
}

Decision PiggybackMechanism::decide_injection(Rng& rng, Cycle now,
                                              std::int32_t shard, RouterId r,
                                              NodeId dst) {
  // Remote link-state flag for the minimal route (piggybacked state in the
  // paper; read directly here) OR the local UGAL estimate.
  RemoteProbe probe;
  const bool min_congested =
      topo_.min_link_probe(r, dst, probe) &&
      credit_fires(eng_, shard, probe.router, probe.port,
                   params_.olm_credit_fraction);
  Decision dec;
  NonminCandidate cand;
  if (pick_misroute_channel(rng, now, r, dst, /*use_occupancy=*/true, cand) &&
      (min_congested ||
       ugal_prefers_misroute(shard, r, dst, cand, false))) {
    dec.misroute = true;
    // The piggybacked flag gets its own cause so heatmap per-cause panels
    // can separate PB's remote-state misroutes from the UGAL estimate's.
    dec.cause = min_congested ? telemetry::MisrouteCause::kPiggyback
                              : telemetry::MisrouteCause::kUgal;
    dec.cand = cand;
  }
  return dec;
}

}  // namespace dfsim::routing
