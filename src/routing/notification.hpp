// ARN: the adaptive-routing-notification mechanism family (arxiv
// 2502.00616, with the injection-throttling variant of arxiv 2502.00597).
//
// Every notify.update_period cycles each router scans its own forward
// links; a link whose downstream occupancy exceeds notify.threshold of its
// buffer broadcasts a congestion notification. The notification becomes
// live at every source notify.propagation_delay cycles later and expires
// notify.expiry cycles after arrival unless a later scan refreshes it —
// there is no retraction message, staleness is the only decay (the ARN
// papers' design point, and the reason the mechanism reacts to onsets fast
// but releases pressure only on the expiry timescale).
//
// Decisions are injection-time only: a source misroutes a packet (UGAL-style
// candidate pick, biased away from notified first hops) when its minimal
// route crosses a live-notified link — the first hop out of the source or
// the route's flagged remote link — tagged MisrouteCause::kNotify. The
// throttle variant additionally refuses such injections outright.
//
// Sharded execution: the scan runs inside the engine's barrier-fenced
// mechanism-update window — each shard writes only its own routers'
// notification slots (disjoint), and every shard reads the full table
// outside the window (cross-shard reads see values fenced by the update
// barriers, so (seed, threads) byte-reproducibility holds).
#pragma once

#include <vector>

#include "routing/mechanism.hpp"

namespace dfsim::routing {

class ArnMechanism final : public RoutingMechanism {
 public:
  ArnMechanism(const SimParams& params, const Topology& topo,
               const EngineProbe& engine);

  [[nodiscard]] bool decides_at_injection() const override { return true; }
  [[nodiscard]] bool wants_remote_probes() const override { return true; }
  [[nodiscard]] bool throttles_injection() const override {
    return notify_.throttle_injection;
  }

  Decision decide_injection(Rng& rng, Cycle now, std::int32_t shard,
                            RouterId r, NodeId dst) override;
  [[nodiscard]] bool admit_injection(Cycle now, RouterId r,
                                     NodeId dst) const override;

  [[nodiscard]] bool update_due(Cycle now) const override;
  void update(Cycle now, std::int32_t shard, RouterId r_lo,
              RouterId r_hi) override;

  /// True while the notification for (r, out) is live at the sources:
  /// arrived (now >= active cycle) and not yet expired. Exposed for tests.
  [[nodiscard]] bool notified(Cycle now, RouterId r, PortIndex out) const {
    const auto fp = static_cast<std::size_t>(flat_port(r, out));
    return active_at_[fp] >= 0 && now >= active_at_[fp] &&
           now < expires_at_[fp];
  }

 private:
  /// Whether the minimal route for (r, dst) crosses a live-notified link:
  /// the first hop out of the source or the flagged remote link.
  [[nodiscard]] bool min_route_notified(Cycle now, RouterId r,
                                        NodeId dst) const;

  [[nodiscard]] std::int64_t candidate_bias(
      Cycle now, RouterId r, const NonminCandidate& c) const override;

  const NotifyParams notify_;
  // Per-(router, forward port) notification slots, flat_port-indexed:
  // the cycle the latest broadcast goes live at the sources and the cycle
  // it expires. -1 = never notified. Written only by the owning shard
  // inside the update window; read by every shard outside it.
  std::vector<Cycle> active_at_;
  std::vector<Cycle> expires_at_;
};

}  // namespace dfsim::routing
