// Topology-generic cycle-driven simulator with flat (structure-of-arrays)
// state. The topology (dragonfly, flattened butterfly, torus — see
// topo/topology.hpp) is a plugin: the engine owns queues, credits, links,
// allocation, metrics, delivery logging, and trace hooks; the Topology
// instance owns wiring, minimal routing, the VC deadlock schedule, and the
// nonminimal-candidate machinery; the routing mechanism (src/routing/) owns
// every misrouting decision and the state behind it (contention counters,
// triggers, the ECtN snapshot), reading engine state only through the
// routing::EngineProbe surface this class implements. The cycle loop is
// compiled once per topology class: run() picks the concrete class once
// per dispatch, and every phase below it calls that class directly.
//
// Model summary
//  - Packet granularity, virtual cut-through-ish: a packet occupies its link
//    for packet_size cycles and arrives whole after link latency + router
//    pipeline + serialization.
//  - Input-queued routers: per (port, VC) fixed-capacity rings over one
//    shared slab; credits are tracked as free slots (reserved at grant time,
//    returned when the packet moves on downstream).
//  - A separable input-first allocator arbitrates the crossbar each cycle;
//    the router frequency speedup of Table I is modeled as extra allocator
//    iterations per cycle.
//  - Contention counters (owned by the routing mechanism, maintained by the
//    engine's head/tail hooks) track, per output port, how many packet
//    heads' *minimal* route uses that port — deliberately independent of
//    the actual routing decision (the property behind the paper's Figure 9).
//  - Global misrouting is decided by the mechanism at injection
//    (CB/UGAL/PB/VAL) or in transit (OLM/CB, where the topology's
//    in-transit policy allows); opportunistic local misrouting diverts a
//    blocked head one extra local hop on topologies that expose detour
//    ports.
//
// After warmup the steady-state step performs zero heap allocations: packets
// come from a pooled free list, queues and scratch are preallocated, and the
// link timing wheel reuses its buckets. `allocation_events()` exposes every
// growth event so tests can verify this.
//
// Active-set stepping: the per-cycle phases iterate only non-empty state.
// Occupied queues are tracked as per-router bitmask words plus a router
// summary mask (set in push_queue, cleared when a queue drains), so
// route_and_allocate costs O(active queues) instead of
// O(routers * radix * vcs); links with packets in flight sit on a timing
// wheel — one link bitset (plus summary words) per cycle modulo W, the
// ring's bit in the bucket of its front arrival — so deliver_arrivals costs
// O(due links) instead of a full link scan. Both structures are exact
// mirrors of the dense state (debug_check_active_state() cross-checks them
// against a brute-force scan) and preserve the dense scan's iteration
// order — bit scans walk queues in ascending (port, vc) order and due links
// in ascending link order — which keeps every RNG draw site in the original
// sequence. Refactors of this file must keep the 18 goldens in
// tests/test_engine_equivalence.cpp bit-exact (see ARCHITECTURE.md,
// "Bit-exactness rule").
//
// Sharded execution (engine.threads > 1): the router range is partitioned
// into contiguous shards, one barrier-synced worker thread per shard (the
// calling thread drives shard 0). Each shard owns its routers' queues, the
// credits of their output ports, allocators, contention counters, its slice
// of the occupancy bitmasks, the in-flight rings of its routers' input
// ports and a timing wheel over them, a packet pool, a private RNG stream, a
// private traffic-model instance restricted to the shard's terminals, and
// private metrics; per-cycle state is laid out so that only its owner ever
// writes a cache line of it. State that crosses a shard boundary — a packet
// departing onto a link whose downstream router lives elsewhere (its whole
// pool state rides along), a credit return to an upstream shard — travels
// through per-shard outboxes (double-buffered by cycle parity) applied at
// the next cycle's merge point in fixed (source shard, FIFO) order, so
// results are a pure function of (params, seed, engine.threads). Every
// shard count runs the same cycle(): threads = 1 is shard 0 alone behind a
// one-party barrier, sends no messages, and stays bit-exact with the
// goldens; threads > 1 is deterministic per shard count but intentionally
// NOT bit-exact across shard counts (cross-shard credits land one cycle
// late, remote occupancy probes read a cycle-start snapshot, and each shard
// draws from its own RNG stream). See ARCHITECTURE.md, "Sharded execution".
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "routing/ectn_state.hpp"
#include "engine/packet_pool.hpp"
#include "engine/spin_barrier.hpp"
#include "fault/fault_model.hpp"
#include "router/allocator.hpp"
#include "routing/mechanism.hpp"
#include "sim/config.hpp"
#include "telemetry/packet_trace.hpp"
#include "telemetry/phase_profiler.hpp"
#include "telemetry/telemetry_sink.hpp"
#include "topo/topology.hpp"
#include "traffic/model.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace dfsim {

class Simulator : private routing::EngineProbe {
 public:
  struct Delivery {
    Cycle birth = 0;
    Cycle latency = 0;
    bool misrouted = false;       // globally misrouted
    bool minimal_path = false;    // no global and no local misroute
  };

  struct Metrics {
    std::int64_t delivered = 0;
    std::int64_t delivered_phits = 0;
    double latency_sum = 0.0;
    std::int64_t misrouted = 0;       // global misroutes among delivered
    std::int64_t local_misrouted = 0;
    std::int64_t minimal_path = 0;
    std::int64_t generated = 0;
    std::int64_t refused = 0;  // generation attempts dropped at a full queue
    // Fault-overlay accounting; all stay 0 while faults are disabled.
    std::int64_t dropped = 0;        // in flight on a link when it went down
    std::int64_t undeliverable = 0;  // dropped by the hop-cap livelock guard
    std::int64_t dead_link_hops = 0; // departures onto a down link (hard
                                     // invariant: must remain 0)
    LatencyHistogram latency_hist;  // log2-bucketed, for p50/p95/p99

    [[nodiscard]] double mean_latency() const {
      return delivered > 0 ? latency_sum / static_cast<double>(delivered) : 0.0;
    }
    [[nodiscard]] double misrouted_fraction() const {
      return delivered > 0
                 ? static_cast<double>(misrouted) / static_cast<double>(delivered)
                 : 0.0;
    }
    [[nodiscard]] double minimal_path_fraction() const {
      return delivered > 0 ? static_cast<double>(minimal_path) /
                                 static_cast<double>(delivered)
                           : 0.0;
    }
  };

  /// Builds the topology `params.topology` selects via topo/factory.hpp.
  /// Throws std::invalid_argument naming the key when validate() rejects
  /// `params`.
  explicit Simulator(const SimParams& params);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  void step() { run(1); }
  void run(Cycle cycles);

  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] const SimParams& params() const { return params_; }
  [[nodiscard]] const Topology& topology() const { return topo_; }
  /// Shard count in use: engine.threads.
  [[nodiscard]] std::int32_t shard_count() const { return n_shards_; }

  /// Resets measurement counters; metrics() accumulates from this point.
  void begin_measurement();
  /// Measurement-window metrics; with threads > 1 the per-shard metrics are
  /// merged in ascending shard order on each call.
  [[nodiscard]] const Metrics& metrics() const;
  [[nodiscard]] Cycle measured_cycles() const { return now_ - measure_start_; }

  /// Lifetime (never reset) packet accounting for conservation checks:
  /// generated - refused == delivered + dropped + undeliverable +
  /// packets_in_network() holds at every cycle.
  struct Totals {
    std::int64_t generated = 0;
    std::int64_t refused = 0;
    std::int64_t delivered = 0;
    std::int64_t dropped = 0;
    std::int64_t undeliverable = 0;
  };
  [[nodiscard]] const Totals& lifetime_totals() const;
  /// Packets currently held in queues or in flight on links (cross-shard
  /// handoffs still in an outbox included).
  [[nodiscard]] std::int64_t packets_in_network() const;
  /// Unaccounted packets (0 when conservation holds exactly).
  [[nodiscard]] std::int64_t conservation_error() const {
    const Totals& t = lifetime_totals();
    return t.generated - t.refused -
           (t.delivered + t.dropped + t.undeliverable + packets_in_network());
  }

  /// Accepted load in phits/node/cycle over the measurement window; 0 while
  /// the window is empty (guards the division right after
  /// begin_measurement()).
  [[nodiscard]] double throughput() const;
  /// Offered load actually generated (phits/node/cycle) over the window;
  /// 0 while the window is empty.
  [[nodiscard]] double generated_load() const;
  /// Packets waiting in injection queues, per node.
  [[nodiscard]] double backlog_per_node() const;

  /// Swaps the traffic pattern mid-run (transient experiments); a pattern
  /// validate() rejects throws before anything changes.
  void set_traffic(const TrafficParams& traffic);
  [[nodiscard]] const TrafficModel& traffic_model() const {
    return *shards_[0].traffic;
  }

  /// Records every subsequent injection attempt as a (cycle, src, dst)
  /// trace; replay it with TrafficKind::kTrace + traffic.trace_path (see
  /// traffic/trace.hpp for the format). When recording starts at
  /// construction, replay under the same SimParams and seed reproduces the
  /// run bit-exactly: the traffic model draws from its own RNG, so the
  /// routing RNG stream is unchanged. Recording after a warmup still
  /// replays deterministically, but into a cold network (cycles are
  /// re-based to the recording start and the warmup traffic is not in the
  /// trace), so metrics need not match the recording run.
  /// Requires engine.threads = 1 (a shard records only its own sources).
  void start_trace_recording(std::size_t reserve_records = 1u << 16);
  void write_recorded_trace(const std::string& path) const {
    shards_[0].traffic->write_recorded(path);
  }

  /// Per-delivery records for birth-bucketed transient analysis, kept only
  /// for packets born in [birth_lo, birth_hi); the no-argument call logs
  /// every delivery. Each shard filters its own log, and with threads > 1
  /// the log is the concatenation of the per-shard logs in ascending shard
  /// order (deterministic, but not birth-sorted).
  void enable_delivery_log(
      Cycle birth_lo = std::numeric_limits<Cycle>::min(),
      Cycle birth_hi = std::numeric_limits<Cycle>::max());
  [[nodiscard]] const std::vector<Delivery>& delivery_log() const;
  /// delivery_log().size() without merging the shards' logs.
  [[nodiscard]] std::int64_t logged_deliveries() const;

  /// Live ECtN broadcast-overhead measurement (Section VI-B ablation).
  /// Requires a topology with supports_ectn() and engine.threads = 1.
  void enable_ectn_monitor(std::int32_t async_mult, std::int32_t urgent_delta);
  [[nodiscard]] const EctnOverheadMonitor& ectn_monitor() const {
    return ectn_monitor_;
  }

  /// Spatial telemetry frames (params.telemetry.enabled): per-router /
  /// per-link counters sampled every telemetry.sample_period cycles. See
  /// src/telemetry/telemetry_sink.hpp and telemetry/heatmap.hpp.
  [[nodiscard]] const telemetry::TelemetrySink& telemetry_sink() const {
    return sink_;
  }

  /// Packet-lifecycle tracing (params.trace.enabled): deterministically
  /// sampled per-packet event records, exported via
  /// telemetry/packet_trace.hpp's binary and Chrome trace-event writers.
  [[nodiscard]] const telemetry::PacketTracer& packet_tracer() const {
    return tracer_;
  }

  /// Per-phase wall-time profiling (dfsim_run perf --phases), barrier wait
  /// included; (re)starts every shard's profiler from zero. API-enabled like
  /// the ECtN monitor: wall time never affects results, so there is no
  /// config key and the config hash is untouched.
  void enable_phase_profiler() {
    profile_on_ = true;
    for (Shard& sh : shards_) sh.profiler.reset();
  }
  /// Phase times summed over the shards (merged on each call, like
  /// metrics()); cycles() is the number of cycles run.
  [[nodiscard]] const telemetry::PhaseProfiler& phase_profiler() const;
  /// Shard `shard`'s own phase times and last-arrival count.
  [[nodiscard]] const telemetry::PhaseProfiler& shard_phase_profiler(
      std::int32_t shard) const {
    return shards_[static_cast<std::size_t>(shard)].profiler;
  }

  /// Growth/allocation events since construction (pool, delivery log,
  /// trace-recording or outbox growth). Constant across steps == steady state
  /// allocates nothing.
  [[nodiscard]] std::int64_t allocation_events() const;
  /// Packet-pool heap growths alone, summed over the shards' pools (0 ==
  /// every reserve bound held).
  [[nodiscard]] std::int64_t pool_grow_events() const;

  /// Debug cross-check of the active-set structures against a brute-force
  /// scan of the dense state: every queue-occupancy bit matches q_size, the
  /// router summary mask matches the queue bits, each non-empty link ring
  /// has exactly one timing-wheel bit, in its front arrival's bucket, and
  /// each shard's pool population equals the packets sitting in its queues
  /// plus its rings, and no traffic model holds a cycle drawn ahead.
  /// O(routers * radix * vcs + W * links) and may allocate — tests only.
  [[nodiscard]] bool debug_check_active_state() const;

  /// Test hook: staggers worker-thread start by `us * shard_index`
  /// microseconds on every dispatch, to shake out schedules under the
  /// determinism tests. Applies to simulators process-wide; 0 disables.
  static void debug_set_shard_jitter(std::int32_t us);

 private:
  struct LinkEvent {
    Cycle arrival = 0;
    std::int32_t packet = kInvalidPacket;  // id in the ring owner's pool
    std::int32_t down_queue = -1;
  };
  /// Where one link's in-flight FIFO lives: `cap` slots of ring_slab_ from
  /// `offset`. Fixed at construction; every shard reads it.
  struct RingSpan {
    std::int32_t offset = 0;
    std::int32_t cap = 0;
  };
  /// The moving part of a link's FIFO, kept by the shard owning the ring.
  struct RingCursor {
    std::int32_t head = 0;
    std::int32_t count = 0;
  };

  /// Seed stride between shard RNG streams (routing and traffic). Shard 0
  /// uses the raw seed, so the serial stream is the threads = 1 stream.
  static constexpr std::uint64_t kShardSeedStride = 0xA24BAED4963EE407ull;

  /// Cross-shard event carried through the destination shard's inbox and
  /// applied at the next cycle's merge point (merge_inboxes) in fixed
  /// (source shard, FIFO) order.
  struct ShardMessage {
    enum class Kind : std::uint8_t {
      kLinkSend,  // packet departs onto a link owned downstream
      kCredit,    // credit return for a queue whose upstream is remote
    };
    Kind kind = Kind::kLinkSend;
    std::int32_t link = -1;   // kLinkSend: flat link id
    std::int32_t queue = -1;  // kLinkSend: flat queue; kCredit: q_free_ index
    Cycle arrival = 0;        // kLinkSend
    PacketPool::State packet;  // kLinkSend: the packet's whole state
  };
  /// One (source, parity, destination) message box, on its own cache line
  /// so a receiver reading it never shares a line with the sender's other
  /// boxes.
  struct alignas(64) Mailbox {
    std::vector<ShardMessage> msgs;
  };

  /// One worker shard: a contiguous router range [r_lo, r_hi) plus every
  /// piece of per-cycle mutable state that only that range's owner may
  /// touch. With threads = 1, shard 0 spans everything and draws the serial
  /// RNG streams (bit-exactness anchor). Cache-line aligned so neighboring
  /// shards never share a line through this struct.
  struct alignas(64) Shard {
    std::int32_t index = 0;
    RouterId r_lo = 0;
    RouterId r_hi = 0;
    NodeId n_lo = 0;  // = r_lo * concentration
    NodeId n_hi = 0;  // = r_hi * concentration
    Rng rng{0};       // routing decisions for owned routers
    // Every packet in this shard's queues and rings (reserved to exactly
    // their slot count, so it never grows).
    PacketPool pool;
    std::unique_ptr<TrafficModel> traffic;  // restricted to [n_lo, n_hi)
    // First cycle past the current run() dispatch: drawing traffic ahead
    // stops short of it, so between dispatches no cycle is drawn ahead.
    Cycle dispatch_end = 0;
    Metrics metrics;
    Totals totals;
    telemetry::PhaseProfiler profiler;  // stamped only while profile_on_
    AllocRequestBatch request_batch;  // per-router sparse requests (reused)
    // Router summary mask slice: bit (r - r_lo) of word (r - r_lo) / 64.
    std::vector<std::uint64_t> router_active;
    // Link timing wheel over the rings this shard owns (see wheel_mask_),
    // and those rings' cursors. The cursors are indexed by link like
    // ring_span_, one array per shard, so only the owner writes them.
    std::vector<std::uint64_t> wheel;
    std::vector<RingCursor> rings;
    std::vector<Delivery> deliveries;
    std::int64_t log_growth = 0;
    std::int64_t msg_growth = 0;
    // Birth window [lo, hi) of the logged deliveries; it fills padding
    // before `outbox`, so the shard keeps its size.
    Cycle log_birth_lo = 0;
    Cycle log_birth_hi = 0;
    // Outboxes by cycle parity, one per dest shard: cycle t sends into
    // parity t & 1 while receivers merge parity (t - 1) & 1. Every receiver
    // reads these headers, so they get a line of their own.
    alignas(64) std::array<std::vector<Mailbox>, 2> outbox;
  };

  // --- construction helpers
  void build_layout();
  void build_shards();

  // --- fault overlay
  /// Refreshes the health map at a fault-event cycle and schedules the next
  /// one. Global state; sharded runs execute it on shard 0 only, behind a
  /// barrier.
  void advance_faults_serial();
  /// Drops in-flight packets on this shard's newly-dead links (credits
  /// returned, counted as dropped) and clears the purged rings' wheel bits.
  void purge_faulted_rings(Shard& sh);

  // --- per-cycle phases. The cycle and every helper it reaches that asks
  // the topology anything are templates on the topology's concrete `final`
  // class (`Topo`, picked once per dispatch by run_cycles), so those calls
  // bind statically and inline; `topo` is topo_ cast to that class.
  template <class Topo>
  void deliver_arrivals(Shard& sh, const Topo& topo);
  template <class Topo>
  void inject_traffic(Shard& sh, const Topo& topo);
  /// Idle step of the end-of-cycle barrier: draws a slice of this shard's
  /// next undrawn traffic cycle. Touches only the shard's own traffic model
  /// and profiler; returns whether it drew.
  bool draw_traffic_ahead(Shard& sh);
  template <class Topo>
  void route_and_allocate(Shard& sh, const Topo& topo);
  /// Mechanism update window plus (when enabled) the ECtN overhead-monitor
  /// scan and the telemetry update count, for this shard's router range.
  void update_mechanism(Shard& sh);

  // --- queue helpers (flat queue index q)
  [[nodiscard]] std::int32_t queue_index(RouterId r, PortIndex in_port,
                                         VcIndex vc) const {
    return (r * radix_ + in_port) * vmax_ + vc;
  }
  template <class Topo>
  void push_queue(Shard& sh, const Topo& topo, std::int32_t q,
                  std::int32_t packet);
  /// Pops the head of queue `q` (flat input port `port` = r * radix + ip,
  /// VC `vc`) and returns its credit upstream.
  template <class Topo>
  std::int32_t pop_queue(Shard& sh, const Topo& topo, std::int32_t q,
                         std::int32_t port, VcIndex vc);
  /// One freed slot of input port `port`, VC `vc`, goes back to the credit
  /// counter's owner: in place, or through the owner's inbox.
  void return_credit(Shard& sh, std::int32_t port, VcIndex vc);
  template <class Topo>
  void on_new_head(Shard& sh, const Topo& topo, std::int32_t q);

  // --- active-set maintenance (queue occupancy bits + link timing wheel)
  void activate_queue(Shard& sh, std::int32_t q);
  void deactivate_queue(Shard& sh, std::int32_t q);
  /// Sets (`arm`) or clears link `l`'s bit in the wheel bucket of `arrival`,
  /// keeping that bucket's summary bit equal to (link word != 0).
  void wheel_mark(Shard& sh, std::size_t l, Cycle arrival, bool arm);
  /// Appends `ev` to link `flat`'s in-flight ring, arming the ring's wheel
  /// bit when it goes non-empty.
  void ring_insert(Shard& sh, std::size_t flat, const LinkEvent& ev);
  /// First router of shard `i`: shard i owns [shard_begin(i),
  /// shard_begin(i + 1)), contiguous balanced ranges.
  [[nodiscard]] RouterId shard_begin(std::int32_t i) const {
    return static_cast<RouterId>(static_cast<std::int64_t>(topo_.routers()) *
                                 i / n_shards_);
  }

  // --- cycle loop (every shard count; threads = 1 is shard 0 alone)
  void worker_loop(std::int32_t shard_index);
  /// Runs `cycles` cycles of shard `sh`: picks the concrete topology class
  /// once (visit_topology) and loops cycle() on it.
  void run_cycles(Shard& sh, Cycle cycles);
  /// One cycle of shard `sh`, barrier-aligned with every other shard.
  template <class Topo>
  void cycle(Shard& sh, const Topo& topo);
  /// Sets the next cycle's phase schedule (fault_cycle_, mech_cycle_) from
  /// now_: a pure function of shared immutable config plus now_, so every
  /// shard agrees on the barrier schedule.
  void schedule_cycle();
  /// Applies every message addressed to `sh` (source shards in ascending
  /// order, FIFO within each), then refreshes this shard's slice of the
  /// remote-occupancy snapshot.
  void merge_inboxes(Shard& sh);
  void push_msg(Shard& sh, std::int32_t dst, const ShardMessage& msg);
  /// One ownership rule: shard `sh` owns the flat ports of its routers,
  /// [r_lo * radix, r_hi * radix). So it owns the credit counters of its
  /// output ports and the in-flight rings of the links into its input ports.
  [[nodiscard]] bool owns_port(const Shard& sh, std::int32_t port) const {
    return port >= sh.r_lo * radix_ && port < sh.r_hi * radix_;
  }
  /// The shard owning flat port `port`. The cycle reads it only to address
  /// a message that crosses shards.
  [[nodiscard]] std::int32_t port_owner(std::int32_t port) const {
    return shard_of_router_[static_cast<std::size_t>(port / radix_)];
  }
  /// The ECtN overhead monitor's own schedule (API-enabled, serial only).
  [[nodiscard]] bool monitor_update_due() const;

  // --- observability (every call site is gated behind telemetry_on_ /
  // trace_on_ / profile_on_, so disabled runs take predicted-false branches
  // only — the bit-exactness and zero-alloc invariants hold with the layer
  // compiled in)
  /// Gauge scan (queue occupancy, counter values, down links) + frame
  /// commit at the end of a sample period. Cold path, off the inner loops.
  void flush_telemetry();
  /// Phase-profiler stamp: charges the time since this shard's previous
  /// stamp to `phase`.
  void profile_lap(Shard& sh, telemetry::Phase phase) {
    if (profile_on_) sh.profiler.lap(phase);
  }
  /// Misroute attribution shared by sink and tracer.
  void note_misroute(RouterId r, std::int32_t packet,
                     telemetry::MisrouteCause cause) {
    if (telemetry_on_) sink_.count_misroute(r, cause);
    if (trace_on_) {
      tracer_.record_hop(now_, packet, r,
                         telemetry::TraceEvent::kRouteDecision,
                         static_cast<std::uint8_t>(cause));
    }
  }

  // --- routing
  // (`packet` is an id in `pool`, the pool of the shard holding it.)
  template <class Topo>
  void decide_injection(Shard& sh, const Topo& topo, RouterId r,
                        std::int32_t packet);
  template <class Topo>
  [[nodiscard]] PortIndex route_output(const Topo& topo,
                                       const PacketPool& pool, RouterId r,
                                       std::int32_t packet) const;
  /// route_output plus fault-fallback attribution: when telemetry is on and
  /// the chosen output differs from the healthy-path preference, the
  /// divergence is counted as a kFaultFallback misroute.
  template <class Topo>
  [[nodiscard]] PortIndex routed_output(const Topo& topo,
                                        const PacketPool& pool, RouterId r,
                                        std::int32_t packet);
  template <class Topo>
  void maybe_local_detour(Shard& sh, const Topo& topo, RouterId r,
                          std::int32_t q);
  template <class Topo>
  void maybe_transit_misroute(Shard& sh, const Topo& topo, RouterId r,
                              std::int32_t q, std::int32_t packet);
  void apply_global_misroute(PacketPool& pool, std::int32_t packet,
                             const NonminCandidate& cand);

  // --- state probes (the routing::EngineProbe surface the mechanism reads
  // engine state through)
  [[nodiscard]] std::int32_t occupancy_phits(RouterId r,
                                             PortIndex out) const override;
  [[nodiscard]] std::int32_t port_capacity_phits(PortIndex out) const override;
  /// occupancy_phits through the cycle-start snapshot when `r` belongs to
  /// another shard (live credit state of a remote router is unreadable
  /// mid-cycle); the live value — serial behavior — otherwise.
  [[nodiscard]] std::int32_t probe_occupancy_phits(std::int32_t shard,
                                                   RouterId r,
                                                   PortIndex out) const override;
  /// Free credits on the VC a packet in state `vc_state` would take on
  /// (r, out) — OLM's blocked test.
  [[nodiscard]] std::int32_t free_credits(RouterId r, PortIndex out,
                                          std::int8_t vc_state) const override;
  [[nodiscard]] std::int32_t fault_extra_latency(RouterId r,
                                                 PortIndex out) const override;
  [[nodiscard]] bool fault_overlay() const override { return fault_on_; }
  /// Configured VC count of `out`'s port class.
  template <class Topo>
  [[nodiscard]] std::int32_t class_vcs(const Topo& topo, PortIndex out) const {
    if (out >= fwd_) return params_.router.vcs_injection;
    return topo.port_class(out) == PortClass::kLocalClass
               ? params_.router.vcs_local
               : params_.router.vcs_global;
  }
  /// Downstream VC for `packet` taking `out` at `r`: the topology's VC
  /// class clamped to the port class's configured VC count.
  template <class Topo>
  [[nodiscard]] VcIndex vc_for(const Topo& topo, const PacketPool& pool,
                               RouterId r, PortIndex out,
                               std::int32_t packet) const;
  /// HopEstimate in cycles under this run's link latencies.
  [[nodiscard]] Cycle hops_to_latency(const HopEstimate& est) const {
    return static_cast<Cycle>(est.local_hops) * params_.link.local_latency +
           static_cast<Cycle>(est.global_hops) * params_.link.global_latency;
  }
  [[nodiscard]] std::int32_t flat_port(RouterId r, PortIndex port) const {
    return r * radix_ + port;
  }
  /// q_free_ index of VC `vc`'s credits behind flat output port `flat`.
  [[nodiscard]] std::size_t credit_index(std::size_t flat, VcIndex vc) const {
    return flat * static_cast<std::size_t>(vmax_) +
           static_cast<std::size_t>(vc);
  }

  template <class Topo>
  void depart(Shard& sh, const Topo& topo, RouterId r,
              const AllocGrant& grant);
  void deliver(Shard& sh, RouterId r, std::int32_t packet);

  // --- immutable shape (topo_owner_ must precede every member that reads
  // the topology during construction)
  SimParams params_;
  std::unique_ptr<Topology> topo_owner_;  // make_topology(params_)
  const Topology& topo_;
  std::int32_t radix_ = 0;      // input/output ports per router
  std::int32_t fwd_ = 0;        // forward (link) ports per router
  std::int32_t vmax_ = 0;       // max VCs across port classes
  std::int32_t psize_ = 0;      // packet size in phits

  // --- per-queue flat state (size routers * radix * vmax), each owned by
  // its router's shard
  std::vector<std::int32_t> q_offset_;   // slab offset
  std::vector<std::int32_t> q_cap_;      // capacity in packets (0 = unused vc)
  std::vector<std::int32_t> q_head_;
  std::vector<std::int32_t> q_size_;
  // Credits (cap - size - in-flight) of a queue, indexed by the side that
  // spends them: credit_index(flat output port, vc) for a queue fed by a
  // link, the queue's own index for an injection queue. Either way a
  // router's block belongs to its shard.
  std::vector<std::int32_t> q_free_;
  std::vector<std::int16_t> q_counted_;  // port counted in contention counters
  std::vector<std::int16_t> q_request_;  // port requested from the allocator
  std::vector<std::int16_t> q_wait_;     // bounded head-wait (head_wait.hpp)
  std::vector<std::int32_t> slab_;       // ring storage for all queues

  // --- per-port flat state (size routers * radix)
  std::vector<Cycle> out_busy_until_;
  std::vector<std::int32_t> down_port_;   // output -> downstream input port
  // Input port -> the flat port whose q_free_ block holds its credits: the
  // upstream output port, or the port itself for an injection input.
  std::vector<std::int32_t> credit_port_;
  std::vector<std::int32_t> link_delay_;   // latency + pipeline

  // --- routers
  std::vector<SeparableAllocator> allocators_;

  // --- active sets: queue-occupancy bits (bit ip*vmax+vc of router r's
  // word block; ascending-bit iteration == the dense scan order). The
  // router summary mask lives in each shard (Shard::router_active).
  // Maintained by push_queue/pop_queue only.
  std::int32_t queue_words_per_router_ = 0;
  std::vector<std::uint64_t> queue_active_;   // routers * words_per_router

  // --- per-link in-flight rings (fixed capacity: a link carries at most
  // delay/packet_size + 2 packets at once). A ring belongs to the downstream
  // router's shard: its slots sit in that shard's block of the slab (blocks
  // in shard order, rings in link order within a block, so with one shard
  // the slab is in link order) and its cursor in that shard's
  // Shard::rings, so only the owner writes either.
  std::vector<RingSpan> ring_span_;  // per flat output port (link)
  std::vector<LinkEvent> ring_slab_;
  // Timing-wheel shape (Shard::wheel), fixed at construction: W =
  // bit_ceil(longest flight + 1) buckets, so every front arrival lies in
  // [now, now + W). Bucket t & wheel_mask_ is wheel_stride_ words: summary
  // words (bit w set iff link word w is non-zero), then one bit per link.
  Cycle wheel_mask_ = 0;  // W - 1
  std::size_t wheel_sum_words_ = 0;
  std::size_t wheel_stride_ = 0;

  // --- sharded execution (n_shards_ == 1: shards_[0] spans everything and
  // the barrier has one party)
  std::int32_t n_shards_ = 1;
  std::vector<Shard> shards_;
  std::vector<std::int32_t> shard_of_router_;  // size routers
  // Cycle-start occupancy snapshot (phits) per flat forward port, refreshed
  // by each port's owner at the merge point; read by the mechanism's remote
  // probes (wants_remote_probes: UGAL-G, PB). Only allocated when such
  // probes exist (snap_on_).
  bool snap_on_ = false;
  std::vector<std::int32_t> occ_snap_;
  // Worker dispatch: workers park on cv_ between run() calls (no spinning
  // while the simulator is idle) and spin only on the intra-cycle barrier.
  std::unique_ptr<SpinBarrier> barrier_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t epoch_ = 0;        // bumped per dispatch, guarded by mu_
  std::int32_t done_count_ = 0;    // workers finished this dispatch
  Cycle pending_cycles_ = 0;
  bool stop_ = false;
  // Next-cycle phase schedule, written by run() for a dispatch's first cycle
  // and then with ++now_ by the end-of-cycle barrier's completion (every
  // shard is parked there), read by every shard after it — keeps all
  // shards' barrier counts aligned without racing on fault_next_event_.
  bool fault_cycle_ = false;
  bool mech_cycle_ = false;
  static std::atomic<std::int32_t> jitter_us_;
  // Merged-view caches for the const accessors (threads > 1 only).
  mutable Metrics merged_metrics_;
  mutable Totals merged_totals_;
  mutable std::vector<Delivery> merged_deliveries_;
  mutable telemetry::PhaseProfiler merged_profiler_;

  // --- routing mechanism (src/routing/factory.hpp picks the instance; the
  // capability flags are cached so disabled decision paths cost one
  // predicted branch)
  std::unique_ptr<routing::RoutingMechanism> routing_;
  bool inject_decides_ = false;
  bool transit_decides_ = false;
  bool throttle_on_ = false;
  EctnOverheadMonitor ectn_monitor_;
  bool ectn_monitor_enabled_ = false;
  std::int32_t ectn_bits_per_counter_ = 4;
  std::vector<std::int16_t> ectn_scratch_;

  // --- fault overlay (members inert when fault_on_ is false; the engine
  // then takes no fault branches and results are bit-exact with the
  // pre-overlay engine)
  bool fault_on_ = false;
  FaultModel fault_;
  LinkHealthMap health_;
  Cycle fault_next_event_ = 0;
  std::int32_t hop_cap_ = 0;

  // --- observability (members inert unless enabled; the engine then takes
  // no telemetry/trace/profile branches and results are bit-exact with
  // builds that predate the layer — ARCHITECTURE.md invariant 11)
  bool telemetry_on_ = false;
  bool trace_on_ = false;
  bool profile_on_ = false;
  Cycle telemetry_next_sample_ = 0;
  telemetry::TelemetrySink sink_;
  telemetry::PacketTracer tracer_;

  // --- time & measurement
  Cycle now_ = 0;
  Cycle measure_start_ = 0;
  bool log_deliveries_ = false;
};

}  // namespace dfsim
