#include "engine/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "engine/head_wait.hpp"
#include "routing/factory.hpp"
#include "sim/config_io.hpp"
#include "topo/factory.hpp"

namespace dfsim {

std::atomic<std::int32_t> Simulator::jitter_us_{0};

void Simulator::debug_set_shard_jitter(std::int32_t us) {
  jitter_us_.store(us, std::memory_order_relaxed);
}

// Library callers reach the engine without dfsim_run's up-front check, so
// the configuration is validated before anything is built from it.
Simulator::Simulator(const SimParams& params)
    : params_((validate(params), params)),
      topo_owner_(make_topology(params)),
      topo_(*topo_owner_) {
  radix_ = topo_.radix();
  fwd_ = topo_.forward_ports();
  vmax_ = std::max({params_.router.vcs_local, params_.router.vcs_global,
                    params_.router.vcs_injection});
  psize_ = params_.packet_size_phits;
  n_shards_ = params_.engine.threads;

  if (params_.fault.enabled) {
    // Built before build_layout: ring capacities must cover the extra
    // in-flight time degraded links impose.
    fault_on_ = true;
    fault_ = FaultModel(params_.fault, topo_, params_.seed);
    health_.init(topo_.routers(), radix_);
    hop_cap_ = params_.fault.hop_cap;
    fault_next_event_ = params_.fault.onset;
    // Attaching the health overlay is the one mutation of the topology the
    // simulator owns, and only happens when faults are enabled.
    topo_owner_->attach_link_health(&health_);
  }

  // After the fault block (fault_overlay() must already answer truthfully),
  // before build_shards (snap_on_ reads wants_remote_probes()).
  routing_ = routing::make_mechanism(params_, topo_, *this);
  inject_decides_ = routing_->decides_at_injection();
  transit_decides_ = routing_->decides_in_transit();
  throttle_on_ = routing_->throttles_injection();

  build_layout();
  build_shards();

  if (params_.telemetry.enabled) {
    telemetry_on_ = true;
    sink_.configure(topo_.routers(), radix_, fwd_,
                    params_.telemetry.sample_period,
                    params_.telemetry.max_samples);
    // First frame closes at the end of the first sample period.
    telemetry_next_sample_ = sink_.sample_period() - 1;
  }
  if (params_.trace.enabled) {
    // Sized to the pool's structural bound (build_shards' reserve; tracing
    // runs one shard): every live packet id indexes the slot map directly.
    trace_on_ = true;
    tracer_.configure(params_.trace, params_.seed,
                      slab_.size() + ring_slab_.size());
  }

  ectn_bits_per_counter_ = bits_for_value(params_.routing.counter_saturation);
  ectn_scratch_.assign(
      static_cast<std::size_t>(std::max<std::int32_t>(
          1, topo_.ectn_router_slots())),
      0);
}

Simulator::~Simulator() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void Simulator::build_layout() {
  const std::int32_t routers = topo_.routers();
  const auto n_q = static_cast<std::size_t>(routers) *
                   static_cast<std::size_t>(radix_) *
                   static_cast<std::size_t>(vmax_);

  q_offset_.assign(n_q, 0);
  q_cap_.assign(n_q, 0);
  q_head_.assign(n_q, 0);
  q_size_.assign(n_q, 0);
  q_free_.assign(n_q, 0);
  q_counted_.assign(n_q, -1);
  q_request_.assign(n_q, -1);
  q_wait_.assign(n_q, 0);

  const std::int32_t cap_local = params_.router.buf_local_phits / psize_;
  const std::int32_t cap_global = params_.router.buf_global_phits / psize_;
  const std::int32_t cap_inj = params_.router.injection_queue_packets;

  std::int32_t offset = 0;
  for (RouterId r = 0; r < routers; ++r) {
    for (PortIndex ip = 0; ip < radix_; ++ip) {
      for (VcIndex vc = 0; vc < vmax_; ++vc) {
        const std::int32_t q = queue_index(r, ip, vc);
        std::int32_t cap = 0;
        if (ip >= fwd_) {
          if (vc < params_.router.vcs_injection) cap = cap_inj;
        } else if (topo_.port_class(ip) == PortClass::kLocalClass) {
          if (vc < params_.router.vcs_local) cap = cap_local;
        } else {
          if (vc < params_.router.vcs_global) cap = cap_global;
        }
        q_offset_[static_cast<std::size_t>(q)] = offset;
        q_cap_[static_cast<std::size_t>(q)] = cap;
        if (ip >= fwd_) q_free_[static_cast<std::size_t>(q)] = cap;
        offset += cap;
      }
    }
  }
  slab_.assign(static_cast<std::size_t>(offset), kInvalidPacket);

  // Port tables. A link's downstream queues start out with cap free slots,
  // counted at the upstream output port that spends them; every forward
  // input port is fed by exactly one link.
  const auto n_out = static_cast<std::size_t>(routers) *
                     static_cast<std::size_t>(radix_);
  out_busy_until_.assign(n_out, 0);
  down_port_.assign(n_out, -1);
  credit_port_.assign(n_out, -1);
  link_delay_.assign(n_out, 0);
  for (RouterId r = 0; r < routers; ++r) {
    for (PortIndex port = 0; port < radix_; ++port) {
      const std::size_t idx = static_cast<std::size_t>(flat_port(r, port));
      if (port >= fwd_) {
        credit_port_[idx] = static_cast<std::int32_t>(idx);
        continue;
      }
      const std::int32_t down =
          flat_port(topo_.peer(r, port), topo_.peer_port(r, port));
      assert(credit_port_[static_cast<std::size_t>(down)] == -1);
      down_port_[idx] = down;
      credit_port_[static_cast<std::size_t>(down)] =
          static_cast<std::int32_t>(idx);
      for (VcIndex vc = 0; vc < vmax_; ++vc) {
        q_free_[credit_index(idx, vc)] =
            q_cap_[static_cast<std::size_t>(down * vmax_ + vc)];
      }
      const std::int32_t lat =
          topo_.port_class(port) == PortClass::kLocalClass
              ? params_.link.local_latency
              : params_.link.global_latency;
      link_delay_[idx] = params_.router.pipeline_cycles + lat + psize_;
    }
  }

  // Allocators.
  allocators_.reserve(static_cast<std::size_t>(routers));
  for (RouterId r = 0; r < routers; ++r) {
    allocators_.emplace_back(radix_, radix_, vmax_);
    if (params_.router.through_priority) {
      allocators_.back().set_through_priority(fwd_);
    }
  }

  // Active-set masks: all queues empty at construction. The router summary
  // masks are per shard (build_shards).
  queue_words_per_router_ = (radix_ * vmax_ + 63) / 64;
  queue_active_.assign(static_cast<std::size_t>(routers) *
                           static_cast<std::size_t>(queue_words_per_router_),
                       0);

  // Shard partition (every shard count; the rings are laid out by it).
  shard_of_router_.assign(static_cast<std::size_t>(routers), 0);
  for (std::int32_t i = 0; i < n_shards_; ++i) {
    for (RouterId r = shard_begin(i); r < shard_begin(i + 1); ++r) {
      shard_of_router_[static_cast<std::size_t>(r)] = i;
    }
  }

  // Per-link in-flight rings: sends on a link are spaced >= psize cycles
  // apart and stay on it for link_delay cycles, so delay/psize + 2 slots is
  // a strict capacity bound. The slab holds one block per shard, each with
  // the rings that shard owns (downstream router's shard) in link order;
  // with one shard it is plain link order.
  ring_span_.assign(n_out, RingSpan{});
  std::vector<std::int32_t> block(static_cast<std::size_t>(n_shards_) + 1, 0);
  std::int32_t max_flight = 0;
  for (std::size_t l = 0; l < n_out; ++l) {
    if (down_port_[l] < 0) continue;
    // Degraded links hold packets up to max_extra_latency longer.
    const std::int32_t extra = fault_on_ ? fault_.max_extra_latency() : 0;
    ring_span_[l].cap = (link_delay_[l] + extra) / psize_ + 2;
    const auto owner = static_cast<std::size_t>(port_owner(down_port_[l]));
    block[owner + 1] += ring_span_[l].cap;
    max_flight = std::max(max_flight, link_delay_[l] + extra);
  }
  std::partial_sum(block.begin(), block.end(), block.begin());
  for (std::size_t l = 0; l < n_out; ++l) {
    if (down_port_[l] < 0) continue;
    std::int32_t& next =
        block[static_cast<std::size_t>(port_owner(down_port_[l]))];
    ring_span_[l].offset = next;
    next += ring_span_[l].cap;
  }
  ring_slab_.assign(static_cast<std::size_t>(block.back()), LinkEvent{});

  // Timing-wheel shape (the per-shard buckets are zeroed in build_shards).
  wheel_mask_ = static_cast<Cycle>(
      std::bit_ceil(static_cast<std::uint32_t>(max_flight) + 1) - 1);
  const std::size_t link_words = (n_out + 63) / 64;
  wheel_sum_words_ = (link_words + 63) / 64;
  wheel_stride_ = wheel_sum_words_ + link_words;
}

void Simulator::build_shards() {
  const std::int32_t routers = topo_.routers();
  const std::int32_t conc = topo_.concentration();
  const auto n_out = static_cast<std::size_t>(routers) *
                     static_cast<std::size_t>(radix_);

  if (n_shards_ > 1) {
    // Snapshot-based remote probes exist only for mechanisms that declare
    // them (the idealized-global estimate and Piggyback's remote link-state
    // flag).
    snap_on_ = routing_->wants_remote_probes();
    if (snap_on_) occ_snap_.assign(n_out, 0);
  }

  // Ring slots each shard owns: its pool's share of the slab.
  std::vector<std::size_t> ring_slots(static_cast<std::size_t>(n_shards_), 0);
  for (std::size_t l = 0; l < n_out; ++l) {
    if (down_port_[l] < 0) continue;
    ring_slots[static_cast<std::size_t>(port_owner(down_port_[l]))] +=
        static_cast<std::size_t>(ring_span_[l].cap);
  }

  shards_.reserve(static_cast<std::size_t>(n_shards_));
  for (std::int32_t i = 0; i < n_shards_; ++i) {
    // Contiguous balanced ranges; boundaries need not be 64-aligned because
    // each shard's summary mask is indexed by (r - r_lo).
    const RouterId r_lo = shard_begin(i);
    const RouterId r_hi = shard_begin(i + 1);
    Shard sh;
    sh.index = i;
    sh.r_lo = r_lo;
    sh.r_hi = r_hi;
    sh.n_lo = r_lo * conc;
    sh.n_hi = r_hi * conc;
    // Shard 0 draws the raw seed: with one shard both streams ARE the
    // serial streams, which is what keeps threads = 1 bit-exact.
    const std::uint64_t seed =
        params_.seed + kShardSeedStride * static_cast<std::uint64_t>(i);
    sh.rng = Rng(seed);
    sh.traffic = std::make_unique<TrafficModel>(
        params_.traffic, topo_.traffic_info(), params_.packet_size_phits,
        seed);
    if (n_shards_ > 1) sh.traffic->restrict_nodes(sh.n_lo, sh.n_hi);
    // Every packet a shard holds sits in one of its queue slots (a range of
    // the router-ordered queue slab) or ring slots (its slab block). With
    // one shard this is the whole structural bound.
    const auto queue_slots_before = [&](RouterId r) {
      return r < routers ? static_cast<std::size_t>(q_offset_[
                               static_cast<std::size_t>(queue_index(r, 0, 0))])
                         : slab_.size();
    };
    sh.pool.reserve(queue_slots_before(r_hi) - queue_slots_before(r_lo) +
                    ring_slots[static_cast<std::size_t>(i)]);
    sh.rings.assign(n_out, RingCursor{});
    sh.request_batch.reserve(radix_, vmax_);
    sh.router_active.assign(
        static_cast<std::size_t>((r_hi - r_lo + 63) / 64), 0);
    sh.wheel.assign(static_cast<std::size_t>(wheel_mask_ + 1) * wheel_stride_,
                    0);
    // The merge walks the mailboxes at every shard count; only sharded runs
    // send, so only they reserve (below).
    for (std::vector<Mailbox>& boxes : sh.outbox) {
      boxes.resize(static_cast<std::size_t>(n_shards_));
    }
    shards_.push_back(std::move(sh));
  }

  barrier_ = std::make_unique<SpinBarrier>(n_shards_);
  if (n_shards_ == 1) return;

  for (Shard& sh : shards_) {
    // Reserving these at one shard too, after the per-queue arrays, raised
    // registry_medium peak RSS ~13% through heap placement alone.
    for (std::vector<Mailbox>& boxes : sh.outbox) {
      for (Mailbox& box : boxes) box.msgs.reserve(64);
    }
  }

  workers_.reserve(static_cast<std::size_t>(n_shards_) - 1);
  for (std::int32_t i = 1; i < n_shards_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

// ---------------------------------------------------------------------------
// Queue primitives

void Simulator::activate_queue(Shard& sh, std::int32_t q) {
  const RouterId r = q / (radix_ * vmax_);
  const std::int32_t bit = q - r * radix_ * vmax_;
  queue_active_[static_cast<std::size_t>(r) *
                    static_cast<std::size_t>(queue_words_per_router_) +
                static_cast<std::size_t>(bit >> 6)] |=
      std::uint64_t{1} << (bit & 63);
  const std::int32_t rl = r - sh.r_lo;
  sh.router_active[static_cast<std::size_t>(rl >> 6)] |= std::uint64_t{1}
                                                         << (rl & 63);
}

void Simulator::deactivate_queue(Shard& sh, std::int32_t q) {
  const RouterId r = q / (radix_ * vmax_);
  const std::int32_t bit = q - r * radix_ * vmax_;
  const std::size_t base = static_cast<std::size_t>(r) *
                           static_cast<std::size_t>(queue_words_per_router_);
  queue_active_[base + static_cast<std::size_t>(bit >> 6)] &=
      ~(std::uint64_t{1} << (bit & 63));
  std::uint64_t any = 0;
  for (std::int32_t w = 0; w < queue_words_per_router_; ++w) {
    any |= queue_active_[base + static_cast<std::size_t>(w)];
  }
  if (any == 0) {
    const std::int32_t rl = r - sh.r_lo;
    sh.router_active[static_cast<std::size_t>(rl >> 6)] &=
        ~(std::uint64_t{1} << (rl & 63));
  }
}

template <class Topo>
void Simulator::push_queue(Shard& sh, const Topo& topo, std::int32_t q,
                           std::int32_t packet) {
  const auto qi = static_cast<std::size_t>(q);
  assert(q_size_[qi] < q_cap_[qi]);
  const std::int32_t slot =
      q_offset_[qi] + (q_head_[qi] + q_size_[qi]) % q_cap_[qi];
  slab_[static_cast<std::size_t>(slot)] = packet;
  if (++q_size_[qi] == 1) {
    activate_queue(sh, q);
    on_new_head(sh, topo, q);
  }
}

template <class Topo>
std::int32_t Simulator::pop_queue(Shard& sh, const Topo& topo, std::int32_t q,
                                  std::int32_t port, VcIndex vc) {
  const auto qi = static_cast<std::size_t>(q);
  assert(q_size_[qi] > 0);
  assert(q == port * vmax_ + vc);
  const std::int32_t packet =
      slab_[static_cast<std::size_t>(q_offset_[qi] + q_head_[qi])];
  q_head_[qi] = (q_head_[qi] + 1) % q_cap_[qi];
  --q_size_[qi];
  return_credit(sh, port, vc);
  if (q_size_[qi] > 0) {
    on_new_head(sh, topo, q);
  } else {
    deactivate_queue(sh, q);
  }
  return packet;
}

void Simulator::return_credit(Shard& sh, std::int32_t port, VcIndex vc) {
  // The credit belongs to the upstream shard; a remote owner gets it through
  // its inbox at its next merge (the one-cycle credit delay documented in
  // ARCHITECTURE.md).
  const std::int32_t up = credit_port_[static_cast<std::size_t>(port)];
  const std::size_t c = credit_index(static_cast<std::size_t>(up), vc);
  if (owns_port(sh, up)) {
    ++q_free_[c];
    return;
  }
  ShardMessage m;
  m.kind = ShardMessage::Kind::kCredit;
  m.queue = static_cast<std::int32_t>(c);
  push_msg(sh, port_owner(up), m);
}

template <class Topo>
void Simulator::on_new_head(Shard& sh, const Topo& topo, std::int32_t q) {
  const auto qi = static_cast<std::size_t>(q);
  const RouterId r = q / (radix_ * vmax_);
  const PortIndex ip = (q / vmax_) % radix_;
  const std::int32_t packet =
      slab_[static_cast<std::size_t>(q_offset_[qi] + q_head_[qi])];
  const auto pi = static_cast<std::size_t>(packet);
  PacketPool& pool = sh.pool;

  // Valiant phase ending on arrival at the intermediate router (candidates
  // with via_port < 0; dragonfly phases end on the global hop instead).
  if ((pool.flags[pi] & PacketPool::kPhase0) && pool.via_port[pi] < 0 &&
      pool.target_router[pi] == r) {
    pool.flags[pi] &= static_cast<std::uint8_t>(~PacketPool::kPhase0);
    pool.target_router[pi] = topo.router_of_node(pool.dst[pi]);
    pool.g_hops[pi] = topo.phase_end_state(pool.g_hops[pi]);
  }

  if (trace_on_) {
    tracer_.record_hop(now_, packet, r, telemetry::TraceEvent::kQueueHead,
                       static_cast<std::uint8_t>(ip));
  }

  if (ip >= fwd_ && !(pool.flags[pi] & PacketPool::kRouted)) {
    decide_injection(sh, topo, r, packet);
  }
  maybe_transit_misroute(sh, topo, r, q, packet);

  const PortIndex counted = topo.minimal_output(r, pool.dst[pi]);
  q_counted_[qi] = static_cast<std::int16_t>(counted);
  q_request_[qi] =
      static_cast<std::int16_t>(routed_output(topo, pool, r, packet));
  q_wait_[qi] = 0;
  routing_->on_head(flat_port(r, counted));
}

// ---------------------------------------------------------------------------
// Routing decisions

template <class Topo>
PortIndex Simulator::route_output(const Topo& topo, const PacketPool& pool,
                                  RouterId r, std::int32_t packet) const {
  const auto pi = static_cast<std::size_t>(packet);
  PortIndex out;
  RouterId target;
  if (pool.flags[pi] & PacketPool::kPhase0) {
    target = pool.target_router[pi];
    out = r == target ? static_cast<PortIndex>(pool.via_port[pi])
                      : topo.route_toward(r, target);
  } else {
    target = topo.router_of_node(pool.dst[pi]);
    out = topo.minimal_output(r, pool.dst[pi]);
  }
  if (fault_on_ && out >= 0 && out < fwd_ && !health_.link_up(r, out)) {
    // Preferred link is down: deterministic topology fallback (no RNG — a
    // blocked head may re-evaluate this every cycle). kInvalidPort when
    // every forward link of `r` is down.
    out = topo.fallback_output(r, target, out);
  }
  return out;
}

template <class Topo>
PortIndex Simulator::routed_output(const Topo& topo, const PacketPool& pool,
                                   RouterId r, std::int32_t packet) {
  const PortIndex out = route_output(topo, pool, r, packet);
  if (telemetry_on_ && fault_on_ && out >= 0) {
    // Re-derive the healthy-path preference; route_output only diverges
    // from it when it fell back around a dead link.
    const auto pi = static_cast<std::size_t>(packet);
    PortIndex pref;
    if (pool.flags[pi] & PacketPool::kPhase0) {
      const RouterId target = pool.target_router[pi];
      pref = r == target ? static_cast<PortIndex>(pool.via_port[pi])
                         : topo.route_toward(r, target);
    } else {
      pref = topo.minimal_output(r, pool.dst[pi]);
    }
    if (pref != out) {
      sink_.count_misroute(r, telemetry::MisrouteCause::kFaultFallback);
    }
  }
  return out;
}

std::int32_t Simulator::occupancy_phits(RouterId r, PortIndex out) const {
  if (out >= fwd_) return 0;  // ejection: modeled as an ideal sink
  const auto flat = static_cast<std::size_t>(flat_port(r, out));
  const std::int32_t down = down_port_[flat] * vmax_;
  std::int32_t occupied = 0;
  for (VcIndex vc = 0; vc < vmax_; ++vc) {
    occupied += q_cap_[static_cast<std::size_t>(down + vc)] -
                q_free_[credit_index(flat, vc)];
  }
  return occupied * psize_;
}

std::int32_t Simulator::probe_occupancy_phits(std::int32_t shard, RouterId r,
                                              PortIndex out) const {
  // Remote routers' live credit state is owned by another shard; the
  // cycle-start snapshot (refreshed at each owner's merge point) stands in
  // for it. With one shard every router is local, so this is exactly
  // occupancy_phits and the serial draw sequence is untouched.
  const Shard& sh = shards_[static_cast<std::size_t>(shard)];
  if (snap_on_ && (r < sh.r_lo || r >= sh.r_hi)) {
    if (out >= fwd_) return 0;
    return occ_snap_[static_cast<std::size_t>(flat_port(r, out))];
  }
  return occupancy_phits(r, out);
}

std::int32_t Simulator::free_credits(RouterId r, PortIndex out,
                                     std::int8_t vc_state) const {
  // The VC a non-phase-0 packet in hop state `vc_state` would take on
  // (r, out), clamped like vc_for; OLM's exact-blocked test reads this.
  const VcIndex cls = topo_.vc_class(r, out, vc_state, false);
  const VcIndex vcn = std::min<VcIndex>(cls, class_vcs(topo_, out) - 1);
  return q_free_[credit_index(static_cast<std::size_t>(flat_port(r, out)),
                              vcn)];
}

std::int32_t Simulator::fault_extra_latency(RouterId r, PortIndex out) const {
  if (!fault_on_) return 0;
  return health_.extra_latency(r, out);
}

std::int32_t Simulator::port_capacity_phits(PortIndex out) const {
  // Reference capacity for occupancy-fraction triggers: a single VC buffer.
  // Traffic on a link concentrates in its hop-class VC, so fractions of the
  // all-VC capacity would almost never be reached.
  if (out >= fwd_) return psize_;
  if (topo_.port_class(out) == PortClass::kLocalClass) {
    return std::max(psize_, params_.router.buf_local_phits);
  }
  return std::max(psize_, params_.router.buf_global_phits);
}

template <class Topo>
VcIndex Simulator::vc_for(const Topo& topo, const PacketPool& pool, RouterId r,
                          PortIndex out, std::int32_t packet) const {
  const auto pi = static_cast<std::size_t>(packet);
  const VcIndex cls =
      topo.vc_class(r, out, pool.g_hops[pi],
                    (pool.flags[pi] & PacketPool::kPhase0) != 0);
  return std::min<VcIndex>(cls, class_vcs(topo, out) - 1);
}

void Simulator::apply_global_misroute(PacketPool& pool, std::int32_t packet,
                                      const NonminCandidate& cand) {
  const auto pi = static_cast<std::size_t>(packet);
  pool.flags[pi] |= PacketPool::kMisGlobal | PacketPool::kPhase0;
  pool.target_router[pi] = cand.inter;
  pool.via_port[pi] = static_cast<std::int16_t>(cand.via_port);
}

template <class Topo>
void Simulator::decide_injection(Shard& sh, const Topo& topo, RouterId r,
                                 std::int32_t packet) {
  const auto pi = static_cast<std::size_t>(packet);
  PacketPool& pool = sh.pool;
  pool.flags[pi] |= PacketPool::kRouted;
  const NodeId d = pool.dst[pi];
  pool.target_router[pi] = topo.router_of_node(d);

  if (!inject_decides_ || (pool.flags[pi] & PacketPool::kInorder)) return;
  if (topo.min_channel(r, d) < 0) return;  // no nonminimal option applies

  const routing::Decision dec =
      routing_->decide_injection(sh.rng, now_, sh.index, r, d);
  if (dec.misroute) {
    apply_global_misroute(pool, packet, dec.cand);
    note_misroute(r, packet, dec.cause);
  }
}

template <class Topo>
void Simulator::maybe_transit_misroute(Shard& sh, const Topo& topo,
                                       RouterId r, std::int32_t q,
                                       std::int32_t packet) {
  // In-transit mechanisms re-decide at injection and wherever the
  // topology's in-transit policy still allows it, so backlogged
  // minimal-committed packets can divert when the counters are hot.
  if (!transit_decides_) return;
  const auto pi = static_cast<std::size_t>(packet);
  PacketPool& pool = sh.pool;
  const std::uint8_t flags = pool.flags[pi];
  if (flags & (PacketPool::kMisGlobal | PacketPool::kInorder)) return;
  if (!topo.can_misroute_in_transit(
          r, topo.router_of_node(pool.src[pi]), pool.g_hops[pi])) {
    return;
  }
  const NodeId d = pool.dst[pi];
  const std::int32_t min_ch = topo.min_channel(r, d);
  if (min_ch < 0) return;

  const PortIndex mp = topo.minimal_output(r, d);
  const routing::Decision dec = routing_->decide_transit(
      sh.rng, sh.index, r, d, pool.g_hops[pi], mp, min_ch);
  if (!dec.misroute) return;
  apply_global_misroute(pool, packet, dec.cand);
  q_request_[static_cast<std::size_t>(q)] =
      static_cast<std::int16_t>(routed_output(topo, pool, r, packet));
  if (telemetry_on_ || trace_on_) {
    note_misroute(r, packet,
                  r == topo.router_of_node(pool.src[pi])
                      ? telemetry::MisrouteCause::kTrigger
                      : telemetry::MisrouteCause::kInTransit);
  }
}

template <class Topo>
void Simulator::maybe_local_detour(Shard& sh, const Topo& topo, RouterId r,
                                   std::int32_t q) {
  if (!params_.routing.allow_local_misroute || !transit_decides_) return;
  const std::int32_t locals = topo.local_detour_ports(r);
  const auto qi = static_cast<std::size_t>(q);
  const PortIndex rp = q_request_[qi];
  if (rp < 0 || rp >= locals) return;  // detour-eligible hops only
  const std::int32_t packet =
      slab_[static_cast<std::size_t>(q_offset_[qi] + q_head_[qi])];
  const auto pi = static_cast<std::size_t>(packet);
  PacketPool& pool = sh.pool;
  if (pool.flags[pi] & (PacketPool::kDetoured | PacketPool::kInorder)) return;

  if (!routing_->local_detour_fires(sh.rng, sh.index, r, rp)) return;
  Rng& rng = sh.rng;

  // Pick a random alternative local port with a free link and credits.
  for (std::int32_t attempt = 0; attempt < 4; ++attempt) {
    const auto ap = static_cast<PortIndex>(
        rng.next_below(static_cast<std::uint64_t>(locals)));
    if (ap == rp) continue;
    if (fault_on_ && !health_.link_up(r, ap)) continue;
    const std::size_t flat = static_cast<std::size_t>(flat_port(r, ap));
    if (out_busy_until_[flat] > now_) continue;
    if (q_free_[credit_index(flat, vc_for(topo, pool, r, ap, packet))] <= 1) {
      continue;  // require slack so detours do not fill the last slot
    }
    q_request_[qi] = static_cast<std::int16_t>(ap);
    pool.flags[pi] |= PacketPool::kMisLocal | PacketPool::kDetoured;
    note_misroute(r, packet, telemetry::MisrouteCause::kLocalDetour);
    return;
  }
}

// ---------------------------------------------------------------------------
// Per-cycle phases

void Simulator::wheel_mark(Shard& sh, std::size_t l, Cycle arrival,
                           bool arm) {
  std::uint64_t* bucket =
      sh.wheel.data() +
      static_cast<std::size_t>(arrival & wheel_mask_) * wheel_stride_;
  std::uint64_t& word = bucket[wheel_sum_words_ + (l >> 6)];
  std::uint64_t& sum = bucket[l >> 12];  // summary word of link word l >> 6
  const std::uint64_t bit = std::uint64_t{1} << (l & 63);
  const std::uint64_t sum_bit = std::uint64_t{1} << ((l >> 6) & 63);
  word = arm ? word | bit : word & ~bit;
  sum = word != 0 ? sum | sum_bit : sum & ~sum_bit;
}

void Simulator::ring_insert(Shard& sh, std::size_t flat,
                            const LinkEvent& ev) {
  const RingSpan span = ring_span_[flat];
  RingCursor& ring = sh.rings[flat];
  assert(ring.count < span.cap);
  assert(ev.arrival >= now_ && ev.arrival - now_ <= wheel_mask_);
  const std::int32_t slot = span.offset + (ring.head + ring.count) % span.cap;
  ring_slab_[static_cast<std::size_t>(slot)] = ev;
  // A ring going non-empty arms its front; later entries wait behind it.
  if (ring.count++ == 0) wheel_mark(sh, flat, ev.arrival, true);
}

template <class Topo>
void Simulator::deliver_arrivals(Shard& sh, const Topo& topo) {
  // Per-link FIFO rings: arrivals on a link are strictly increasing and
  // spaced >= psize cycles, so only the front entry can be due, and it is
  // due exactly when its bit sits in this cycle's bucket (every front lies
  // in [now, now + W)). Summary, words and bits are walked ascending, so
  // same-cycle arrivals pop in ascending link order, matching the
  // pre-active-set full scan bit-exactly. A re-armed next front is strictly
  // later and under W cycles out, so it never lands in this bucket.
  std::uint64_t* bucket =
      sh.wheel.data() +
      static_cast<std::size_t>(now_ & wheel_mask_) * wheel_stride_;
  for (std::size_t s = 0; s < wheel_sum_words_; ++s) {
    for (std::uint64_t sum = std::exchange(bucket[s], 0); sum != 0;
         sum &= sum - 1) {
      const std::size_t w = s * 64 + std::countr_zero(sum);
      for (std::uint64_t bits = std::exchange(bucket[wheel_sum_words_ + w], 0);
           bits != 0; bits &= bits - 1) {
        const std::size_t l = w * 64 + std::countr_zero(bits);
        const RingSpan span = ring_span_[l];
        RingCursor& ring = sh.rings[l];
        const LinkEvent ev =
            ring_slab_[static_cast<std::size_t>(span.offset + ring.head)];
        assert(ev.arrival == now_);
        ring.head = (ring.head + 1) % span.cap;
        if (--ring.count > 0) {
          const LinkEvent& next =
              ring_slab_[static_cast<std::size_t>(span.offset + ring.head)];
          wheel_mark(sh, l, next.arrival, true);
        }
        if (trace_on_) {
          tracer_.record_hop(
              now_, ev.packet, ev.down_queue / (radix_ * vmax_),
              telemetry::TraceEvent::kLinkArrive,
              static_cast<std::uint8_t>((ev.down_queue / vmax_) % radix_));
        }
        push_queue(sh, topo, ev.down_queue, ev.packet);
      }
    }
  }
}

template <class Topo>
void Simulator::inject_traffic(Shard& sh, const Topo& topo) {
  // All pattern logic lives in the traffic model (pre-resolved tables, own
  // RNG); the engine just places whatever the model emits. Each shard's
  // model instance is restricted to the shard's terminals.
  Rng& rng = sh.rng;
  TrafficModel& traffic = *sh.traffic;
  traffic.begin_cycle(now_);
  Injection inj;
  while (traffic.next(inj)) {
    ++sh.metrics.generated;
    ++sh.totals.generated;

    const RouterId r = topo.router_of_node(inj.src);
    if (throttle_on_ && !routing_->admit_injection(now_, r, inj.dst)) {
      // Source throttle (ARN variant): same accounting as a full queue.
      ++sh.metrics.refused;
      ++sh.totals.refused;
      if (telemetry_on_) sink_.count_refusal(r);
      continue;
    }
    const PortIndex ip = fwd_ + (inj.src % topo.concentration());
    const std::int32_t q = queue_index(r, ip, 0);
    if (q_free_[static_cast<std::size_t>(q)] <= 0) {
      ++sh.metrics.refused;
      ++sh.totals.refused;
      if (telemetry_on_) sink_.count_refusal(r);
      continue;
    }

    // The free slot bounds the pool: it is reserved to the shard's queue
    // and ring slots, so it never grows.
    const std::int32_t packet = sh.pool.allocate();
    sh.pool.store(packet, {.birth = now_, .src = inj.src, .dst = inj.dst});
    if (telemetry_on_) sink_.count_injection(r);
    if (trace_on_) tracer_.on_inject(now_, packet, r, inj.dst);
    if (params_.traffic.inorder_fraction > 0.0 &&
        rng.next_bool(params_.traffic.inorder_fraction)) {
      sh.pool.flags[static_cast<std::size_t>(packet)] |= PacketPool::kInorder;
    }
    --q_free_[static_cast<std::size_t>(q)];
    push_queue(sh, topo, q, packet);
  }
}

template <class Topo>
void Simulator::route_and_allocate(Shard& sh, const Topo& topo) {
  // Active-set walk: routers with any occupied queue, then that router's
  // occupied queues in ascending (port, vc) bit order — exactly the dense
  // triple loop's visit order over non-empty queues, so head-wait
  // re-evaluation (and its RNG draws) happen in the original sequence.
  // Grants mutate only the router being processed (depart pops its own
  // input queues; departures land on link rings or outboxes, not queues),
  // so iterating over word copies is safe.
  const std::int32_t qwpr = queue_words_per_router_;
  for (std::size_t rw = 0; rw < sh.router_active.size(); ++rw) {
    std::uint64_t rbits = sh.router_active[rw];
    while (rbits != 0) {
      const int rbit = std::countr_zero(rbits);
      rbits &= rbits - 1;
      const auto r =
          sh.r_lo + static_cast<RouterId>(rw * 64 + static_cast<std::size_t>(
                                                        rbit));
      const std::size_t qbase =
          static_cast<std::size_t>(r) * static_cast<std::size_t>(qwpr);
      const std::int32_t q0 = r * radix_ * vmax_;
      sh.request_batch.clear();
      for (std::int32_t w = 0; w < qwpr; ++w) {
        std::uint64_t qbits = queue_active_[qbase + static_cast<std::size_t>(w)];
        while (qbits != 0) {
          const int qbit = std::countr_zero(qbits);
          qbits &= qbits - 1;
          const std::int32_t local = w * 64 + qbit;
          const std::int32_t q = q0 + local;
          const auto qi = static_cast<std::size_t>(q);
          assert(q_size_[qi] > 0);

          if (head_wait_due(q_wait_[qi])) {
            // The head has been blocked for a while: re-evaluate in-transit
            // global misrouting and consider an opportunistic local detour.
            const std::int32_t packet = slab_[static_cast<std::size_t>(
                q_offset_[qi] + q_head_[qi])];
            maybe_transit_misroute(sh, topo, r, q, packet);
            maybe_local_detour(sh, topo, r, q);
          }
          q_wait_[qi] = advance_head_wait(q_wait_[qi]);

          PortIndex out = q_request_[qi];
          if (fault_on_ &&
              (out < 0 || (out < fwd_ && !health_.link_up(r, out)))) {
            // The requested link died (or no live option existed when the
            // head was last routed): re-route via the topology fallback.
            // Heads with no live output wait in place — a flap may revive
            // the link, and head-wait re-evaluation above still lets the
            // adaptive mechanisms divert the packet.
            const std::int32_t packet = slab_[static_cast<std::size_t>(
                q_offset_[qi] + q_head_[qi])];
            out = routed_output(topo, sh.pool, r, packet);
            q_request_[qi] = static_cast<std::int16_t>(out);
            if (out < 0) continue;
          }
          const std::size_t flat = static_cast<std::size_t>(flat_port(r, out));
          if (out_busy_until_[flat] > now_) continue;
          if (out < fwd_) {
            const std::int32_t packet = slab_[static_cast<std::size_t>(
                q_offset_[qi] + q_head_[qi])];
            if (q_free_[credit_index(
                    flat, vc_for(topo, sh.pool, r, out, packet))] <= 0) {
              if (telemetry_on_) sink_.count_credit_stall(r);
              continue;
            }
          }
          sh.request_batch.add(static_cast<PortIndex>(local / vmax_),
                               static_cast<VcIndex>(local % vmax_), out);
        }
      }
      if (sh.request_batch.empty()) continue;

      for (const AllocGrant& grant :
           allocators_[static_cast<std::size_t>(r)].allocate(
               sh.request_batch, params_.router.speedup)) {
        depart(sh, topo, r, grant);
      }
    }
  }
}

template <class Topo>
void Simulator::depart(Shard& sh, const Topo& topo, RouterId r,
                       const AllocGrant& grant) {
  const std::int32_t q = queue_index(r, grant.in, grant.vc);
  const auto qi = static_cast<std::size_t>(q);
  const std::int16_t counted = q_counted_[qi];
  const std::int32_t packet =
      pop_queue(sh, topo, q, flat_port(r, grant.in), grant.vc);
  routing_->on_tail_departure(flat_port(r, counted));

  const PortIndex out = grant.out;
  const std::size_t flat = static_cast<std::size_t>(flat_port(r, out));
  out_busy_until_[flat] = now_ + psize_;

  if (out >= fwd_) {
    deliver(sh, r, packet);
    return;
  }

  const auto pi = static_cast<std::size_t>(packet);
  PacketPool& pool = sh.pool;
  if (fault_on_) {
    // Hard invariant (gated == 0): the request filter in route_and_allocate
    // never lets a head depart onto a down link.
    if (!health_.link_up(r, out)) ++sh.metrics.dead_link_hops;
    if (pool.hops[pi] >= hop_cap_) {
      // Livelock guard: rerouted around faults past any plausible path
      // length; drop rather than circulate forever.
      ++sh.metrics.undeliverable;
      ++sh.totals.undeliverable;
      if (telemetry_on_) sink_.count_undeliverable();
      if (trace_on_) {
        tracer_.close(now_, packet, r, telemetry::TraceEvent::kDrop);
      }
      pool.release(packet);
      return;
    }
    pool.hops[pi] = static_cast<std::uint16_t>(pool.hops[pi] + 1);
  }
  if (telemetry_on_) {
    sink_.count_link_departure(static_cast<std::int32_t>(flat));
  }
  if (trace_on_) {
    tracer_.record_hop(now_, packet, r, telemetry::TraceEvent::kLinkDepart,
                       static_cast<std::uint8_t>(out));
  }
  // The VC for the packet's pre-transition state.
  const VcIndex vcn = vc_for(topo, pool, r, out, packet);
  const std::int32_t down_in = down_port_[flat];
  const std::int32_t down = down_in * vmax_ + vcn;
  --q_free_[credit_index(flat, vcn)];

  const HopTransition hop = topo.on_hop(r, out, pool.g_hops[pi]);
  pool.g_hops[pi] = hop.vc_state;
  if (hop.reset_detour) {
    pool.flags[pi] &= static_cast<std::uint8_t>(~PacketPool::kDetoured);
  }
  if (hop.end_phase0 && (pool.flags[pi] & PacketPool::kPhase0)) {
    pool.flags[pi] &= static_cast<std::uint8_t>(~PacketPool::kPhase0);
    pool.target_router[pi] = topo.router_of_node(pool.dst[pi]);
  }

  Cycle arrival = now_ + link_delay_[flat];
  if (fault_on_) arrival += health_.extra_latency(r, out);
  if (owns_port(sh, down_in)) {
    ring_insert(sh, flat, LinkEvent{arrival, packet, down});
  } else {
    // The ring belongs to the downstream shard: hand the traversal over
    // through its inbox, packet state included; it takes an id from its own
    // pool and ring-inserts at its next merge point. Arrivals are several
    // cycles out, so the one-cycle handoff loses nothing.
    ShardMessage m;
    m.kind = ShardMessage::Kind::kLinkSend;
    m.link = static_cast<std::int32_t>(flat);
    m.queue = down;
    m.arrival = arrival;
    m.packet = pool.load(packet);
    pool.release(packet);
    push_msg(sh, port_owner(down_in), m);
  }
}

void Simulator::deliver(Shard& sh, RouterId r, std::int32_t packet) {
  const auto pi = static_cast<std::size_t>(packet);
  const Cycle latency =
      now_ + params_.router.pipeline_cycles + psize_ - sh.pool.birth[pi];
  const std::uint8_t flags = sh.pool.flags[pi];
  const bool mis_global = (flags & PacketPool::kMisGlobal) != 0;
  const bool mis_local = (flags & PacketPool::kMisLocal) != 0;

  ++sh.metrics.delivered;
  ++sh.totals.delivered;
  sh.metrics.delivered_phits += psize_;
  sh.metrics.latency_sum += static_cast<double>(latency);
  sh.metrics.latency_hist.add(latency);
  if (mis_global) ++sh.metrics.misrouted;
  if (mis_local) ++sh.metrics.local_misrouted;
  if (!mis_global && !mis_local) ++sh.metrics.minimal_path;

  if (log_deliveries_) {
    const Cycle birth = sh.pool.birth[pi];
    if (birth >= sh.log_birth_lo && birth < sh.log_birth_hi) {
      if (sh.deliveries.size() == sh.deliveries.capacity()) ++sh.log_growth;
      // dfsim-check: allow(CHK-ALLOC): growth is counted in log_growth
      sh.deliveries.push_back(
          Delivery{birth, latency, mis_global, !mis_global && !mis_local});
    }
  }
  if (telemetry_on_) sink_.count_delivery(r);
  if (trace_on_) {
    tracer_.close(now_, packet, r, telemetry::TraceEvent::kDeliver,
                  static_cast<std::uint32_t>(latency));
  }
  sh.pool.release(packet);
}

void Simulator::update_mechanism(Shard& sh) {
  const bool mech_due = routing_->update_due(now_);
  const bool monitor_due = ectn_monitor_enabled_ && monitor_update_due();
  if (!mech_due && !monitor_due) return;

  // The mechanism's update window: shards call it for their own router
  // ranges and may write only per-shard-disjoint state slices; the
  // surrounding barriers order the writes against every reader.
  if (mech_due) routing_->update(now_, sh.index, sh.r_lo, sh.r_hi);

  if (ectn_monitor_enabled_ && monitor_due) {
    // Broadcast-overhead measurement over the same counter gauges the ECtN
    // snapshot serializes (runs under any mechanism — Section VI-B compares
    // against non-ECtN baselines too). Serial engine only.
    const std::int32_t slots = topo_.ectn_router_slots();
    for (RouterId r = sh.r_lo; r < sh.r_hi; ++r) {
      for (std::int32_t i = 0; i < slots; ++i) {
        const EctnSlot slot = topo_.ectn_slot(r, i);
        ectn_scratch_[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(
            routing_->counter_value(flat_port(r, slot.port)));
      }
      ectn_monitor_.on_update(r, ectn_scratch_.data());
    }
  }
  if (telemetry_on_) {
    for (RouterId r = sh.r_lo; r < sh.r_hi; ++r) sink_.count_ectn_update();
  }
}

// ---------------------------------------------------------------------------
// Fault overlay

void Simulator::advance_faults_serial() {
  health_.apply(fault_, now_);
  fault_next_event_ = fault_.next_event_after(now_);
}

void Simulator::purge_faulted_rings(Shard& sh) {
  // Drop in-flight packets on links that just went down: each drop returns
  // the reserved downstream credit and releases the packet, so conservation
  // (generated - refused == delivered + dropped + undeliverable +
  // in-network) keeps holding exactly. Sharded: each shard purges only the
  // rings it owns; credits whose upstream is remote ride the inbox and land
  // at the next merge.
  for (const std::int32_t id : fault_.faulty_links()) {
    const auto l = static_cast<std::size_t>(id);
    const std::int32_t down = down_port_[l];
    if (!owns_port(sh, down)) continue;
    const RingSpan span = ring_span_[l];
    RingCursor& ring = sh.rings[l];
    if (ring.count == 0 || health_.link_up(id / radix_, id % radix_)) continue;
    // The ring's one wheel bit sits in its front's bucket.
    wheel_mark(sh, l,
               ring_slab_[static_cast<std::size_t>(span.offset + ring.head)]
                   .arrival,
               false);
    while (ring.count > 0) {
      const LinkEvent& ev =
          ring_slab_[static_cast<std::size_t>(span.offset + ring.head)];
      return_credit(sh, down, ev.down_queue - down * vmax_);
      ++sh.metrics.dropped;
      ++sh.totals.dropped;
      if (telemetry_on_) sink_.count_drop();
      if (trace_on_) {
        tracer_.close(now_, ev.packet,
                      static_cast<RouterId>(l / static_cast<std::size_t>(
                                                    radix_)),
                      telemetry::TraceEvent::kDrop);
      }
      sh.pool.release(ev.packet);
      ring.head = (ring.head + 1) % span.cap;
      --ring.count;
    }
  }
}

// ---------------------------------------------------------------------------
// Cycle loop and cross-shard messages

void Simulator::push_msg(Shard& sh, std::int32_t dst,
                         const ShardMessage& msg) {
  std::vector<ShardMessage>& box =
      sh.outbox[static_cast<std::size_t>(now_ & 1)]
               [static_cast<std::size_t>(dst)].msgs;
  if (box.size() == box.capacity()) ++sh.msg_growth;
  // dfsim-check: allow(CHK-ALLOC): growth is counted in msg_growth
  box.push_back(msg);
}

void Simulator::merge_inboxes(Shard& sh) {
  // Fixed merge order — ascending source shard, FIFO within each box — is
  // what makes a sharded run a pure function of (params, seed, shards).
  // The boxes read are last cycle's parity: their senders now write the
  // other one, and only the sender clears a box (at its next cycle start).
  const auto parity = static_cast<std::size_t>((now_ - 1) & 1);
  for (const Shard& src : shards_) {
    const std::vector<ShardMessage>& box =
        src.outbox[parity][static_cast<std::size_t>(sh.index)].msgs;
    for (const ShardMessage& m : box) {
      if (m.kind == ShardMessage::Kind::kCredit) {
        ++q_free_[static_cast<std::size_t>(m.queue)];
        continue;
      }
      // A link send: the packet takes an id in this shard's pool, which the
      // ring it enters bounds.
      const std::int32_t packet = sh.pool.allocate();
      sh.pool.store(packet, m.packet);
      ring_insert(sh, static_cast<std::size_t>(m.link),
                  LinkEvent{m.arrival, packet, m.queue});
    }
  }
  if (snap_on_) {
    // Publish this shard's forward-port occupancy (credits just applied)
    // for the remote probes of other shards this cycle.
    for (RouterId r = sh.r_lo; r < sh.r_hi; ++r) {
      for (PortIndex out = 0; out < fwd_; ++out) {
        occ_snap_[static_cast<std::size_t>(flat_port(r, out))] =
            occupancy_phits(r, out);
      }
    }
  }
}

void Simulator::schedule_cycle() {
  fault_cycle_ = fault_on_ && now_ == fault_next_event_;
  mech_cycle_ = routing_->update_due(now_) ||
                (ectn_monitor_enabled_ && monitor_update_due());
}

bool Simulator::monitor_update_due() const {
  if (!topo_.supports_ectn()) return false;
  const Cycle period = params_.routing.ectn_update_period;
  return period > 0 && now_ % period == 0;
}

template <class Topo>
void Simulator::cycle(Shard& sh, const Topo& topo) {
  using telemetry::Phase;
  if (profile_on_) sh.profiler.start_cycle();
  // Phase schedule for this cycle, published with now_ by the previous
  // cycle's end-of-cycle completion (or by run() for the first), so every
  // shard executes the same barrier count.
  const bool fault_cycle = fault_cycle_;
  const bool mech_cycle = mech_cycle_;

  // This cycle's outboxes were merged during the previous cycle, which the
  // end-of-cycle barrier closed: recycle them before anything is sent.
  for (Mailbox& box : sh.outbox[static_cast<std::size_t>(now_ & 1)]) {
    box.msgs.clear();
  }
  // Merge point: apply cross-shard events from the previous cycle. Their
  // senders finished writing them before that barrier, and this cycle's
  // sends go to the other parity, so no barrier is needed after the merge
  // — except to publish occ_snap_ to the snapshot probes.
  merge_inboxes(sh);
  profile_lap(sh, Phase::kDeliver);

  if (fault_on_ && fault_cycle) {
    // The health map is global: one shard refreshes it while the rest wait.
    if (sh.index == 0) advance_faults_serial();
    profile_lap(sh, Phase::kFaults);
    barrier_->arrive_and_wait();
    profile_lap(sh, Phase::kBarrier);
    purge_faulted_rings(sh);
    profile_lap(sh, Phase::kFaults);
  }

  if (snap_on_) {
    barrier_->arrive_and_wait();  // occ_snap_ published
    profile_lap(sh, Phase::kBarrier);
  }
  deliver_arrivals(sh, topo);
  profile_lap(sh, Phase::kDeliver);
  inject_traffic(sh, topo);
  profile_lap(sh, Phase::kInject);
  if (mech_cycle) {
    // Mechanism update window: counters stop changing at the first barrier,
    // and no shard reads the refreshed state until the second.
    barrier_->arrive_and_wait();
    profile_lap(sh, Phase::kBarrier);
    update_mechanism(sh);
    profile_lap(sh, Phase::kEctn);
    barrier_->arrive_and_wait();
    profile_lap(sh, Phase::kBarrier);
  }
  route_and_allocate(sh, topo);
  profile_lap(sh, Phase::kRoute);
  // Telemetry runs with one shard only (constructor check), so the flush
  // reads the whole network without a barrier.
  if (telemetry_on_ && now_ == telemetry_next_sample_) {
    flush_telemetry();
    profile_lap(sh, Phase::kTelemetry);
  }

  // Route done everywhere and this cycle's outboxes complete; the last
  // shard to arrive advances the clock and the schedule for everyone. The
  // others draw their own traffic ahead while they wait.
  barrier_->arrive_and_wait(
      [this, &sh] {
        ++now_;
        schedule_cycle();
        if (profile_on_) sh.profiler.count_last_arrival();
      },
      [this, &sh] { return draw_traffic_ahead(sh); });
  profile_lap(sh, Phase::kBarrier);
}

bool Simulator::draw_traffic_ahead(Shard& sh) {
  // ~32 Bernoulli draws, under 100 ns: a waiter sees the release promptly.
  constexpr std::int64_t kIdleDrawNodes = 32;
  profile_lap(sh, telemetry::Phase::kBarrier);
  const bool drew = sh.traffic->draw_ahead(kIdleDrawNodes, sh.dispatch_end);
  if (drew) profile_lap(sh, telemetry::Phase::kInject);
  return drew;
}

void Simulator::worker_loop(std::int32_t shard_index) {
  Shard& sh = shards_[static_cast<std::size_t>(shard_index)];
  std::uint64_t seen = 0;
  for (;;) {
    Cycle cycles = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      cycles = pending_cycles_;
    }
    const std::int32_t jitter = jitter_us_.load(std::memory_order_relaxed);
    if (jitter > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(jitter * shard_index));
    }
    run_cycles(sh, cycles);
    std::lock_guard<std::mutex> lock(mu_);
    if (++done_count_ == n_shards_ - 1) cv_.notify_all();
  }
}

void Simulator::run_cycles(Shard& sh, Cycle cycles) {
  // One dispatch per run() call and shard: the whole loop runs on the
  // concrete topology class, so no topology call inside it is virtual.
  visit_topology(params_.topology, topo_, [&](const auto& topo) {
    for (Cycle i = 0; i < cycles; ++i) cycle(sh, topo);
  });
}

// ---------------------------------------------------------------------------
// Public driver

void Simulator::run(Cycle cycles) {
  if (cycles <= 0) return;
  schedule_cycle();  // the first cycle's; each completion sets the next
  for (Shard& sh : shards_) sh.dispatch_end = now_ + cycles;
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_cycles_ = cycles;
      done_count_ = 0;
      ++epoch_;
    }
    cv_.notify_all();
  }
  run_cycles(shards_[0], cycles);
  if (!workers_.empty()) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_count_ == n_shards_ - 1; });
  }
}

void Simulator::flush_telemetry() {
  const std::int32_t routers = topo_.routers();
  const std::int32_t queues_per_router = radix_ * vmax_;
  for (RouterId r = 0; r < routers; ++r) {
    std::int32_t occupied = 0;
    const std::int32_t q0 = r * queues_per_router;
    for (std::int32_t i = 0; i < queues_per_router; ++i) {
      occupied += q_size_[static_cast<std::size_t>(q0 + i)];
    }
    sink_.set_gauge_occupancy(r, occupied);
    for (PortIndex port = 0; port < fwd_; ++port) {
      const std::int32_t flat = flat_port(r, port);
      sink_.set_gauge_counter(flat, routing_->counter_value(flat));
    }
  }
  if (fault_on_) {
    std::int32_t down = 0;
    for (RouterId r = 0; r < routers; ++r) {
      for (PortIndex port = 0; port < fwd_; ++port) {
        if (!health_.link_up(r, port)) ++down;
      }
    }
    sink_.set_links_down(down);
  }
  sink_.commit_frame(now_);
  telemetry_next_sample_ = now_ + sink_.sample_period();
}

// ---------------------------------------------------------------------------
// Measurement & merged views

void Simulator::begin_measurement() {
  for (Shard& sh : shards_) sh.metrics = Metrics{};
  measure_start_ = now_;
}

const Simulator::Metrics& Simulator::metrics() const {
  if (n_shards_ == 1) return shards_[0].metrics;
  merged_metrics_ = Metrics{};
  for (const Shard& sh : shards_) {
    const Metrics& m = sh.metrics;
    merged_metrics_.delivered += m.delivered;
    merged_metrics_.delivered_phits += m.delivered_phits;
    merged_metrics_.latency_sum += m.latency_sum;
    merged_metrics_.misrouted += m.misrouted;
    merged_metrics_.local_misrouted += m.local_misrouted;
    merged_metrics_.minimal_path += m.minimal_path;
    merged_metrics_.generated += m.generated;
    merged_metrics_.refused += m.refused;
    merged_metrics_.dropped += m.dropped;
    merged_metrics_.undeliverable += m.undeliverable;
    merged_metrics_.dead_link_hops += m.dead_link_hops;
    merged_metrics_.latency_hist.merge(m.latency_hist);
  }
  return merged_metrics_;
}

const telemetry::PhaseProfiler& Simulator::phase_profiler() const {
  if (n_shards_ == 1) return shards_[0].profiler;
  merged_profiler_.reset();
  for (const Shard& sh : shards_) merged_profiler_.merge(sh.profiler);
  return merged_profiler_;
}

const Simulator::Totals& Simulator::lifetime_totals() const {
  if (n_shards_ == 1) return shards_[0].totals;
  merged_totals_ = Totals{};
  for (const Shard& sh : shards_) {
    merged_totals_.generated += sh.totals.generated;
    merged_totals_.refused += sh.totals.refused;
    merged_totals_.delivered += sh.totals.delivered;
    merged_totals_.dropped += sh.totals.dropped;
    merged_totals_.undeliverable += sh.totals.undeliverable;
  }
  return merged_totals_;
}

std::int64_t Simulator::packets_in_network() const {
  // Every packet sits in one shard's pool, except a cross-shard link send
  // that its sender has released and its receiver not yet merged: those
  // wait in the parity the last completed cycle wrote.
  const auto pending = static_cast<std::size_t>((now_ - 1) & 1);
  std::int64_t n = 0;
  for (const Shard& sh : shards_) {
    n += static_cast<std::int64_t>(sh.pool.in_use());
    for (const Mailbox& box : sh.outbox[pending]) {
      for (const ShardMessage& m : box.msgs) {
        if (m.kind == ShardMessage::Kind::kLinkSend) ++n;
      }
    }
  }
  return n;
}

const std::vector<Simulator::Delivery>& Simulator::delivery_log() const {
  if (n_shards_ == 1) return shards_[0].deliveries;
  merged_deliveries_.clear();
  std::size_t total = 0;
  for (const Shard& sh : shards_) total += sh.deliveries.size();
  merged_deliveries_.reserve(total);
  for (const Shard& sh : shards_) {
    merged_deliveries_.insert(merged_deliveries_.end(), sh.deliveries.begin(),
                              sh.deliveries.end());
  }
  return merged_deliveries_;
}

std::int64_t Simulator::logged_deliveries() const {
  std::int64_t n = 0;
  for (const Shard& sh : shards_) {
    n += static_cast<std::int64_t>(sh.deliveries.size());
  }
  return n;
}

double Simulator::throughput() const {
  const Cycle cycles = measured_cycles();
  if (cycles <= 0) return 0.0;
  return static_cast<double>(metrics().delivered_phits) /
         (static_cast<double>(topo_.nodes()) * static_cast<double>(cycles));
}

double Simulator::generated_load() const {
  const Cycle cycles = measured_cycles();
  if (cycles <= 0) return 0.0;
  return static_cast<double>(metrics().generated) *
         static_cast<double>(psize_) /
         (static_cast<double>(topo_.nodes()) * static_cast<double>(cycles));
}

double Simulator::backlog_per_node() const {
  std::int64_t waiting = 0;
  for (RouterId r = 0; r < topo_.routers(); ++r) {
    for (std::int32_t i = 0; i < topo_.concentration(); ++i) {
      waiting += q_size_[static_cast<std::size_t>(
          queue_index(r, fwd_ + i, 0))];
    }
  }
  return static_cast<double>(waiting) / static_cast<double>(topo_.nodes());
}

void Simulator::set_traffic(const TrafficParams& traffic) {
  SimParams next = params_;
  next.traffic = traffic;
  validate(next);
  params_.traffic = traffic;
  for (Shard& sh : shards_) sh.traffic->reset_spec(traffic);
}

void Simulator::start_trace_recording(std::size_t reserve_records) {
  if (n_shards_ > 1) {
    throw std::invalid_argument(
        "trace recording requires engine.threads = 1 (a shard sees only its "
        "own sources)");
  }
  shards_[0].traffic->start_recording(reserve_records);
}

void Simulator::enable_delivery_log(Cycle birth_lo, Cycle birth_hi) {
  log_deliveries_ = true;
  for (Shard& sh : shards_) {
    sh.deliveries.clear();
    sh.log_birth_lo = birth_lo;
    sh.log_birth_hi = birth_hi;
  }
}

void Simulator::enable_ectn_monitor(std::int32_t async_mult,
                                    std::int32_t urgent_delta) {
  if (!topo_.supports_ectn()) {
    throw std::invalid_argument(
        "ECtN overhead monitor needs a topology with contention-broadcast "
        "support");
  }
  if (n_shards_ > 1) {
    throw std::invalid_argument(
        "ECtN overhead monitor requires engine.threads = 1");
  }
  const std::int32_t channels = topo_.ectn_channels();
  const std::int32_t id_bits = bits_for_value(channels - 1);
  ectn_monitor_.configure(topo_.routers(), topo_.ectn_router_slots(),
                          ectn_bits_per_counter_, id_bits, async_mult,
                          urgent_delta);
  ectn_monitor_enabled_ = true;
}

std::int64_t Simulator::allocation_events() const {
  std::int64_t events = 0;
  for (const Shard& sh : shards_) {
    events += sh.pool.grow_events + sh.log_growth + sh.msg_growth +
              sh.traffic->record_growth_events();
  }
  return events;
}

std::int64_t Simulator::pool_grow_events() const {
  std::int64_t events = 0;
  for (const Shard& sh : shards_) events += sh.pool.grow_events;
  return events;
}

bool Simulator::debug_check_active_state() const {
  const std::int32_t routers = topo_.routers();
  const std::int32_t qwpr = queue_words_per_router_;
  const auto shard_of = [&](RouterId r) {
    return static_cast<std::size_t>(
        shard_of_router_[static_cast<std::size_t>(r)]);
  };
  // Packets each shard holds in its queues and rings, for (3).
  std::vector<std::int64_t> held(shards_.size(), 0);

  // (1) Queue-occupancy bits mirror q_size exactly; the owning shard's
  // router summary bit mirrors the OR of the router's queue words.
  for (RouterId r = 0; r < routers; ++r) {
    const Shard& sh = shards_[shard_of(r)];
    const std::size_t qbase =
        static_cast<std::size_t>(r) * static_cast<std::size_t>(qwpr);
    std::uint64_t any = 0;
    for (PortIndex ip = 0; ip < radix_; ++ip) {
      for (VcIndex vc = 0; vc < vmax_; ++vc) {
        const std::int32_t bit = ip * vmax_ + vc;
        const bool set =
            (queue_active_[qbase + static_cast<std::size_t>(bit >> 6)] >>
             (bit & 63)) & 1;
        const std::int32_t size =
            q_size_[static_cast<std::size_t>(queue_index(r, ip, vc))];
        if (set != (size > 0)) return false;
        held[shard_of(r)] += size;
      }
    }
    for (std::int32_t w = 0; w < qwpr; ++w) {
      any |= queue_active_[qbase + static_cast<std::size_t>(w)];
    }
    const std::int32_t rl = r - sh.r_lo;
    const bool rset =
        (sh.router_active[static_cast<std::size_t>(rl >> 6)] >> (rl & 63)) & 1;
    if (rset != (any != 0)) return false;
  }

  // (2) Wheel: every summary bit mirrors (link word != 0) and every set bit
  // is a non-empty ring the shard owns, in its front arrival's bucket; each
  // non-empty ring has exactly one bit and a front in [now, now + W).
  const std::size_t links = down_port_.size();
  const auto front_arrival = [&](std::size_t l) {
    const Shard& owner =
        shards_[static_cast<std::size_t>(port_owner(down_port_[l]))];
    return ring_slab_[static_cast<std::size_t>(ring_span_[l].offset +
                                               owner.rings[l].head)]
        .arrival;
  };
  std::vector<std::int32_t> wheel_bits(links, 0);
  for (const Shard& sh : shards_) {
    for (Cycle b = 0; b <= wheel_mask_; ++b) {
      const std::uint64_t* bucket =
          sh.wheel.data() + static_cast<std::size_t>(b) * wheel_stride_;
      for (std::size_t w = 0; w + wheel_sum_words_ < wheel_stride_; ++w) {
        const std::uint64_t word = bucket[wheel_sum_words_ + w];
        if ((((bucket[w >> 6] >> (w & 63)) & 1) != 0) != (word != 0)) {
          return false;
        }
        for (std::uint64_t m = word; m != 0; m &= m - 1) {
          const std::size_t l = w * 64 + std::countr_zero(m);
          if (l >= links || down_port_[l] < 0 ||
              !owns_port(sh, down_port_[l]) ||
              sh.rings[l].count == 0 ||
              (front_arrival(l) & wheel_mask_) != b) {
            return false;
          }
          ++wheel_bits[l];
        }
      }
    }
  }
  for (std::size_t l = 0; l < links; ++l) {
    if (down_port_[l] < 0) continue;  // no link leaves an ejection port
    const auto r = static_cast<RouterId>(l / static_cast<std::size_t>(radix_));
    const auto port =
        static_cast<PortIndex>(l % static_cast<std::size_t>(radix_));
    // Every flight a departure could take now is shorter than W.
    if (link_delay_[l] + (fault_on_ ? health_.extra_latency(r, port) : 0) >
        wheel_mask_) {
      return false;
    }
    // Only the owner's cursor of a ring ever moves.
    const auto owner = static_cast<std::size_t>(port_owner(down_port_[l]));
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (i != owner && shards_[i].rings[l].count != 0) return false;
    }
    const std::int32_t count = shards_[owner].rings[l].count;
    held[owner] += count;
    if (count == 0) continue;
    // Fault overlay: nothing may remain in flight on a down link (purged at
    // the fault event, never re-entered by the allocator filter).
    if (fault_on_ && !health_.link_up(r, port)) return false;
    const Cycle front = front_arrival(l);
    if (wheel_bits[l] != 1 || front < now_ || front - now_ > wheel_mask_) {
      return false;
    }
  }

  // (3) Pool accounting: each shard's live packets are exactly the ones in
  // its queues and rings (a pending cross-shard send is in neither pool).
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (static_cast<std::int64_t>(shards_[i].pool.in_use()) != held[i]) {
      return false;
    }
  }

  // (4) Between dispatches no traffic model holds a cycle drawn ahead.
  for (const Shard& sh : shards_) {
    if (sh.traffic->cycles_ahead() != 0) return false;
  }

  // (5) Lifetime packet conservation, drops and pending sends included.
  return conservation_error() == 0;
}

}  // namespace dfsim
