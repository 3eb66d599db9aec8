// Pluggable traffic/workload model consumed by both simulators.
//
// Design
//  - Everything a pattern needs is pre-resolved per source at setup
//    (permutation tables, adversarial group bases, the hot-node set), so the
//    per-packet hot path is a table lookup plus at most two RNG draws, with
//    zero heap allocation after construction.
//  - The model owns its own RNG, decoupled from the simulator's routing RNG.
//    That makes a recorded trace replay *bit-identical*: replaying the same
//    injection stream leaves the routing RNG consuming the exact same draw
//    sequence as the recording run.
//  - Pull API: the simulator calls begin_cycle(now) once per cycle and then
//    next() until it returns false; each call returns one injection attempt
//    (at most one per node per cycle). Trace replay and synthetic patterns
//    share this interface, so the engines carry no pattern enums at all.
//  - The pull API is served from a per-cycle ring. A cycle's draws (every
//    source's injection draw, in node order, each hit followed by its
//    destination draw; for replay, the cycle's due records) run as a whole,
//    either inline in begin_cycle or earlier through draw_ahead, which a
//    sharded simulator calls while a shard waits at the end-of-cycle
//    barrier. The draws depend only on the model's own state, so when they
//    run changes no value and no order. Between simulator dispatches the
//    ring is empty.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "traffic/spec.hpp"
#include "traffic/trace.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace dfsim {

/// Topology facts a traffic model needs: terminal count plus a partition of
/// terminals into `groups` contiguous blocks of `nodes_per_group` (dragonfly
/// groups; fbfly routers). `adv_group` maps (source group, offset) to the
/// adversarial target group; when unset, the ring (g + offset) mod groups is
/// used. Consulted at setup only — never on the hot path.
struct TrafficTopologyInfo {
  std::int32_t nodes = 0;
  std::int32_t groups = 1;
  std::int32_t nodes_per_group = 0;
  std::function<std::int32_t(std::int32_t group, std::int32_t offset)>
      adv_group;
};

struct Injection {
  NodeId src = 0;
  NodeId dst = 0;
};

class TrafficModel {
 public:
  /// `packet_size_phits` converts spec.load (phits/node/cycle) into the
  /// per-node packet injection probability. The spec and packet size must
  /// pass validate() (sim/config_io.hpp). Throws std::runtime_error on
  /// unreadable traces.
  TrafficModel(const TrafficParams& spec, const TrafficTopologyInfo& topo,
               std::int32_t packet_size_phits, std::uint64_t seed);

  /// Swaps the workload mid-run (transient experiments). Rebuilds the
  /// pattern tables (may allocate); the RNG stream continues. Requires an
  /// empty ring (no cycle drawn ahead).
  void reset_spec(const TrafficParams& spec);

  /// Restricts this instance to source nodes in [lo, hi): a cycle draws only
  /// that range and trace replay serves only records whose src falls inside
  /// it. Destination draws still span all nodes. Sharded simulations give
  /// each shard its own model restricted to the shard's node range; the
  /// default (full range) leaves every draw sequence untouched.
  void restrict_nodes(NodeId lo, NodeId hi);

  // --- hot path: begin_cycle once per cycle, then next() until false.
  /// Serves cycle `now`, drawing it first unless draw_ahead already has.
  /// While cycles are drawn ahead, `now` must be the first of them.
  void begin_cycle(Cycle now);
  bool next(Injection& out);
  /// Draws up to `budget` sources (replay: trace records) of the first
  /// cycle not yet drawn, ahead of its begin_cycle. Starts no cycle at or
  /// past `limit`, none before the first begin_cycle, and none unless one
  /// more worst-case cycle still fits the ring. Returns whether it drew.
  bool draw_ahead(std::int64_t budget, Cycle limit);
  /// Cycles drawn (or being drawn) ahead of begin_cycle; 0 between
  /// simulator dispatches.
  [[nodiscard]] Cycle cycles_ahead() const {
    return fill_cycle_ - serve_next_ + (filling_ ? 1 : 0);
  }

  // --- trace recording: every subsequent injection attempt is appended to
  // an in-memory buffer (cycle made relative to the first recorded cycle).
  void start_recording(std::size_t reserve_records);
  [[nodiscard]] bool recording() const { return recording_; }
  [[nodiscard]] const std::vector<TraceRecord>& recorded() const {
    return recorded_;
  }
  void write_recorded(const std::string& path) const;
  /// Record-buffer growths past the reserve (zero-alloc accounting).
  [[nodiscard]] std::int64_t record_growth_events() const {
    return record_growth_;
  }

  [[nodiscard]] const TrafficParams& spec() const { return spec_; }
  [[nodiscard]] const TrafficTopologyInfo& topology() const { return topo_; }

  /// Draws (or looks up) a destination for `src`. Exposed for tests:
  /// deterministic for the permutation patterns, a fresh draw otherwise.
  [[nodiscard]] NodeId draw_dest(NodeId src);
  /// Advances the injection process for node `src` by one cycle and reports
  /// whether it injects. Exposed for the rate tests.
  [[nodiscard]] bool draw_injects(NodeId src);

 private:
  /// One drawn injection in the ring. Trivially constructible, so ring
  /// pages stay untouched until a cycle is drawn into them.
  struct Drawn {
    NodeId src;
    NodeId dst;
  };
  /// Drawn-cycle slots: at most this many cycles are drawn ahead.
  static constexpr Cycle kAheadCycles = 64;
  /// Ring capacity in worst-case cycles.
  static constexpr std::uint32_t kRingCycles = 16;
  /// The next cycle before the first begin_cycle: draw_ahead starts none.
  static constexpr Cycle kNoCycle = std::numeric_limits<Cycle>::max();

  void build_tables();
  /// Sizes the ring for the node range and pattern: kRingCycles worst-case
  /// cycles, a worst-case cycle being every source injecting (replay: the
  /// most in-range records sharing one cycle).
  void size_ring();
  /// First entry of the cycle after one that ended at `prev_end`: right
  /// behind it, or the ring's start when a worst-case cycle would overrun
  /// the end. Writer and reader apply the same rule.
  [[nodiscard]] std::uint32_t cycle_start(std::uint32_t prev_end) const {
    return prev_end + worst_ <= ring_cap_ ? prev_end : 0;
  }
  /// Draws up to `budget` sources (replay: records) of the open cycle
  /// fill_cycle_ into the ring and closes the cycle once it is complete.
  void fill(std::int64_t budget);
  [[nodiscard]] NodeId uniform_excluding(NodeId src);
  /// draw_injects against an explicit RNG (fill() loops on a local copy).
  [[nodiscard]] bool injects(NodeId src, Rng& rng);

  TrafficParams spec_;
  TrafficTopologyInfo topo_;
  std::int32_t psize_ = 1;
  Rng rng_;

  // Pre-resolved pattern state.
  double inject_prob_ = 0.0;              // packets/node/cycle
  std::vector<std::int32_t> perm_;        // permutation patterns: dst per src
  std::vector<std::int32_t> adv_base_;    // per group: target-group first node
  std::vector<std::int32_t> hot_nodes_;   // hotspot target set
  // Bursty on/off process (alpha: off->on, beta: on->off per cycle).
  double p_on_ = 0.0;
  double alpha_ = 0.0;
  double beta_ = 0.0;
  std::vector<std::uint8_t> on_;
  // Integer acceptance bounds (Rng::bool_threshold) for the per-node
  // injection draws — the O(nodes)-per-cycle hot loop. Outcomes are
  // bit-identical to next_bool on the corresponding probability.
  std::uint64_t inject_threshold_ = 0;
  std::uint64_t p_on_threshold_ = 0;
  std::uint64_t alpha_threshold_ = 0;
  std::uint64_t beta_threshold_ = 0;

  // Source-node range (restrict_nodes); defaults to every node.
  NodeId node_lo_ = 0;
  NodeId node_hi_ = 0;

  // Drawn-cycle ring. Cycles [serve_next_, fill_cycle_) are drawn; each
  // sits contiguously from cycle_start(end of the previous one) to its
  // entry in ends_ (slot cycle & (kAheadCycles - 1)). fill_cycle_ is open
  // while filling_, its sources drawn up to fill_node_. Unread entries run
  // from read_ to wpos_, past the ring's end and on from 0 when
  // wpos_ < read_. With nothing drawn ahead, begin_cycle restarts at 0.
  std::unique_ptr<Drawn[]> ring_;
  std::uint32_t ring_cap_ = 0;
  std::uint32_t worst_ = 1;  // entries one cycle may need
  std::array<std::uint32_t, kAheadCycles> ends_{};
  Cycle serve_next_ = kNoCycle;
  Cycle fill_cycle_ = kNoCycle;
  bool filling_ = false;
  NodeId fill_node_ = 0;
  std::uint32_t wpos_ = 0;
  std::uint32_t read_ = 0;
  std::uint32_t read_end_ = 0;
  Cycle now_ = 0;  // the cycle being served

  // Trace replay.
  std::vector<TraceRecord> replay_;
  std::size_t replay_cursor_ = 0;
  Cycle replay_base_ = -1;

  // Trace recording.
  bool recording_ = false;
  Cycle record_base_ = -1;
  std::vector<TraceRecord> recorded_;
  std::int64_t record_growth_ = 0;
};

}  // namespace dfsim
