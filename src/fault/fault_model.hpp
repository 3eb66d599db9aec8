// Deterministic, seed-reproducible fault schedule for the unified engine.
//
// FaultModel is pure schedule: at construction it selects which physical
// links fail / flap / degrade (and which routers die) from the wiring of a
// Topology, using its own Rng so the routing and traffic RNG streams are
// untouched. Queries answer "is directed link (r, port) down at cycle t"
// in O(1) from flat per-directed-link tables. Faults on a physical link
// always affect both directions.
//
// LinkHealthMap is the materialized *current* view the engine attaches to
// the topology (topo/topology.hpp LinkHealth): the engine refreshes it only
// at state-change cycles (next_event_after), so every hot-path query is a
// flat byte load with no time arithmetic.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/config.hpp"
#include "topo/topology.hpp"
#include "util/types.hpp"

namespace dfsim {

class FaultModel {
 public:
  /// Scheduled behaviour of a directed link.
  enum class Kind : std::uint8_t { kNone, kDead, kFlap };

  static constexpr Cycle kNoEvent = std::numeric_limits<Cycle>::max();

  FaultModel() = default;  // disabled: no link ever down

  /// Builds the schedule from `params` over the wiring of `topo`. Selection
  /// uses params.seed, or `run_seed` mixed with a fixed constant when
  /// params.seed == 0. `params` must pass validate() (sim/config_io.hpp).
  FaultModel(const FaultParams& params, const Topology& topo,
             std::uint64_t run_seed);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::int32_t stride() const { return stride_; }

  /// True when the directed link (r, port) rejects traffic at `now`.
  [[nodiscard]] bool link_down(RouterId r, PortIndex port, Cycle now) const {
    const Kind k = kind_[flat(r, port)];
    if (k == Kind::kNone || now < onset_) return false;
    if (k == Kind::kDead) return true;
    return (now - onset_) % flap_period_ < flap_down_;
  }

  /// Extra latency on (r, port) at `now` (0 before onset; dead links keep
  /// their value but never carry traffic anyway).
  [[nodiscard]] std::int32_t extra_latency(RouterId r, PortIndex port,
                                           Cycle now) const {
    return now < onset_ ? 0 : extra_[flat(r, port)];
  }
  /// Largest scheduled extra latency — sizing bound for in-flight rings.
  [[nodiscard]] std::int32_t max_extra_latency() const { return max_extra_; }

  /// First cycle strictly after `now` at which any link changes up/down or
  /// degradation state; kNoEvent when the schedule is static from here on.
  [[nodiscard]] Cycle next_event_after(Cycle now) const;

  /// Flat (r * stride + port) ids of every directed link with any scheduled
  /// fault (dead, flap, or degraded) — the only entries a health map
  /// refresh or in-flight purge needs to visit.
  [[nodiscard]] const std::vector<std::int32_t>& faulty_links() const {
    return faulty_;
  }

  // Schedule introspection (tests / reporting).
  [[nodiscard]] std::int32_t dead_link_count() const { return dead_links_; }
  [[nodiscard]] std::int32_t flap_link_count() const { return flap_links_; }
  [[nodiscard]] std::int32_t degraded_link_count() const {
    return degraded_links_;
  }
  [[nodiscard]] std::int32_t dead_router_count() const {
    return dead_routers_;
  }

 private:
  [[nodiscard]] std::size_t flat(RouterId r, PortIndex port) const {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(stride_) +
           static_cast<std::size_t>(port);
  }
  void mark_both(const Topology& topo, RouterId r, PortIndex port, Kind kind);

  bool enabled_ = false;
  std::int32_t stride_ = 0;  // topology radix; forward ports only are used
  Cycle onset_ = 0;
  Cycle flap_period_ = 0;
  Cycle flap_down_ = 0;
  std::int32_t max_extra_ = 0;
  std::int32_t dead_links_ = 0;
  std::int32_t flap_links_ = 0;
  std::int32_t degraded_links_ = 0;
  std::int32_t dead_routers_ = 0;
  std::vector<Kind> kind_;
  std::vector<std::int32_t> extra_;
  std::vector<std::int32_t> faulty_;
};

/// Materialized link-health view (see LinkHealth in topo/topology.hpp).
/// init() sets everything healthy; apply() folds in the schedule state at a
/// given cycle, touching only the scheduled-faulty entries.
class LinkHealthMap final : public LinkHealth {
 public:
  void init(std::int32_t routers, std::int32_t stride) {
    stride_ = stride;
    up_.assign(static_cast<std::size_t>(routers) *
                   static_cast<std::size_t>(stride),
               1);
    extra_.assign(up_.size(), 0);
  }

  void apply(const FaultModel& model, Cycle now) {
    for (const std::int32_t id : model.faulty_links()) {
      const auto l = static_cast<std::size_t>(id);
      const auto r = static_cast<RouterId>(id / stride_);
      const auto port = static_cast<PortIndex>(id % stride_);
      up_[l] = model.link_down(r, port, now) ? 0 : 1;
      extra_[l] = model.extra_latency(r, port, now);
    }
  }

  [[nodiscard]] bool link_up(RouterId r, PortIndex port) const override {
    return up_[static_cast<std::size_t>(r) * stride_ +
               static_cast<std::size_t>(port)] != 0;
  }
  [[nodiscard]] std::int32_t extra_latency(RouterId r,
                                           PortIndex port) const override {
    return extra_[static_cast<std::size_t>(r) * stride_ +
                  static_cast<std::size_t>(port)];
  }

 private:
  std::size_t stride_ = 0;
  std::vector<std::uint8_t> up_;
  std::vector<std::int32_t> extra_;
};

}  // namespace dfsim
