#include "fault/fault_model.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace dfsim {

namespace {

/// round(fraction * pool), a count in [0, pool] for a fraction in [0, 1].
std::int32_t count_of(double fraction, std::size_t pool) {
  return static_cast<std::int32_t>(
      std::llround(fraction * static_cast<double>(pool)));
}

/// Partial Fisher-Yates: permutes the first `count` slots of `pool` into a
/// uniform distinct sample.
void sample_prefix(std::vector<std::int32_t>& pool, std::int32_t count,
                   Rng& rng) {
  for (std::int32_t i = 0; i < count; ++i) {
    const auto j = i + static_cast<std::int32_t>(
                           rng.next_below(pool.size() - static_cast<std::size_t>(i)));
    std::swap(pool[static_cast<std::size_t>(i)],
              pool[static_cast<std::size_t>(j)]);
  }
}

}  // namespace

FaultModel::FaultModel(const FaultParams& params, const Topology& topo,
                       std::uint64_t run_seed) {
  enabled_ = params.enabled;
  stride_ = topo.radix();
  onset_ = params.onset;
  flap_period_ = params.flap_period;
  flap_down_ = params.flap_down;
  kind_.assign(static_cast<std::size_t>(topo.routers()) *
                   static_cast<std::size_t>(stride_),
               Kind::kNone);
  extra_.assign(kind_.size(), 0);
  if (!enabled_) return;

  // Canonical one-entry-per-physical-link enumeration: the (r, port) end
  // with the smaller router id (ties by port for the hypothetical r == peer
  // case). Faults always hit both directions via mark_both.
  const std::int32_t fwd = topo.forward_ports();
  std::vector<std::int32_t> physical;
  for (RouterId r = 0; r < topo.routers(); ++r) {
    for (PortIndex port = 0; port < fwd; ++port) {
      const RouterId other = topo.peer(r, port);
      if (other < r || (other == r && topo.peer_port(r, port) < port)) {
        continue;
      }
      if (params.link_class == "local" &&
          topo.port_class(port) != PortClass::kLocalClass) {
        continue;
      }
      if (params.link_class == "global" &&
          topo.port_class(port) != PortClass::kGlobalClass) {
        continue;
      }
      physical.push_back(static_cast<std::int32_t>(flat(r, port)));
    }
  }

  Rng rng(params.seed != 0 ? params.seed
                           : run_seed + 0x9e3779b97f4a7c15ull);

  // Failed (or flapping) links.
  const Kind link_kind = flap_period_ > 0 ? Kind::kFlap : Kind::kDead;
  {
    std::vector<std::int32_t> pool = physical;
    const std::int32_t n = count_of(params.link_fail_fraction, pool.size());
    sample_prefix(pool, n, rng);
    for (std::int32_t i = 0; i < n; ++i) {
      const std::int32_t id = pool[static_cast<std::size_t>(i)];
      mark_both(topo, id / stride_, id % stride_, link_kind);
    }
  }

  // Degraded links: selected independently from the same class-filtered
  // pool; a link can be both degraded and dead (dead wins — it never
  // carries traffic while down).
  if (params.degrade_latency > 0) {
    std::vector<std::int32_t> pool = physical;
    const std::int32_t n = count_of(params.degrade_fraction, pool.size());
    sample_prefix(pool, n, rng);
    for (std::int32_t i = 0; i < n; ++i) {
      const std::int32_t id = pool[static_cast<std::size_t>(i)];
      const RouterId r = id / stride_;
      const PortIndex port = id % stride_;
      extra_[flat(r, port)] = params.degrade_latency;
      extra_[flat(topo.peer(r, port), topo.peer_port(r, port))] =
          params.degrade_latency;
      max_extra_ = std::max(max_extra_, params.degrade_latency);
    }
  }

  // Dead routers: every forward link of the router fails permanently in
  // both directions (overrides flapping on those links).
  {
    std::vector<std::int32_t> pool(static_cast<std::size_t>(topo.routers()));
    for (std::size_t i = 0; i < pool.size(); ++i) {
      pool[i] = static_cast<std::int32_t>(i);
    }
    const std::int32_t n = count_of(params.router_fail_fraction, pool.size());
    sample_prefix(pool, n, rng);
    dead_routers_ = n;
    for (std::int32_t i = 0; i < n; ++i) {
      const RouterId r = pool[static_cast<std::size_t>(i)];
      for (PortIndex port = 0; port < fwd; ++port) {
        mark_both(topo, r, port, Kind::kDead);
      }
    }
  }

  // Physical-link tallies + the faulty directed-link index.
  for (const std::int32_t id : physical) {
    switch (kind_[static_cast<std::size_t>(id)]) {
      case Kind::kDead: ++dead_links_; break;
      case Kind::kFlap: ++flap_links_; break;
      case Kind::kNone:
        if (extra_[static_cast<std::size_t>(id)] > 0) ++degraded_links_;
        break;
    }
  }
  for (std::size_t l = 0; l < kind_.size(); ++l) {
    if (kind_[l] != Kind::kNone || extra_[l] > 0) {
      faulty_.push_back(static_cast<std::int32_t>(l));
    }
  }
}

void FaultModel::mark_both(const Topology& topo, RouterId r, PortIndex port,
                           Kind kind) {
  Kind& fwd = kind_[flat(r, port)];
  Kind& rev = kind_[flat(topo.peer(r, port), topo.peer_port(r, port))];
  // kDead overrides kFlap (router death beats a link flap schedule).
  if (fwd != Kind::kDead) fwd = kind;
  if (rev != Kind::kDead) rev = kind;
}

Cycle FaultModel::next_event_after(Cycle now) const {
  if (!enabled_ || faulty_.empty()) return kNoEvent;
  if (now < onset_) return onset_;
  if (flap_links_ == 0) return kNoEvent;
  const Cycle t = (now - onset_) % flap_period_;
  return t < flap_down_ ? now + (flap_down_ - t) : now + (flap_period_ - t);
}

}  // namespace dfsim
