// Separable input-first switch allocator over sparse request batches.
//
// One iteration runs two round-robin stages in O(requests) — not
// O(ports * vcs) — with zero heap allocation per call:
//   stage 1 (input arbitration):  each requesting input picks one VC
//   stage 2 (output arbitration): each contested output picks one input
// Requests arrive as an AllocRequestBatch: a flat list appended in
// ascending (input port, vc) order, so consecutive same-port entries form
// that input's candidate list and the engine's active-set scan can feed the
// allocator without materializing a dense per-port vector-of-vectors.
// Round-robin pointers advance past grant winners, which gives the usual
// separable-allocator fairness. Grants land in a preallocated buffer and are
// returned as a span — the simulator calls this for every active router
// every cycle, so the no-allocation property is load-bearing (unit-tested).
//
// allocate() is the engine's entry point, one call per router per cycle. A
// batch in which every input makes exactly one request (nearly every batch
// the engine builds) is decided in one pass, bit-identical to
// begin_cycle() + iterate() (allocator.cpp says why); other batches run
// those two.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace dfsim {

struct AllocRequest {
  VcIndex vc = 0;        // requesting VC at this input port
  PortIndex out = 0;     // requested output port
};

struct AllocGrant {
  PortIndex in = 0;
  VcIndex vc = 0;
  PortIndex out = 0;
};

/// Sparse request submission: append requests in ascending (input port, vc)
/// order; runs of the same input port form that port's candidate list. The
/// batch is reusable scratch — reserve() once, clear() + add() per cycle.
class AllocRequestBatch {
 public:
  struct Group {
    PortIndex in = 0;
    std::int32_t begin = 0;  // index into reqs()
    std::int32_t count = 0;
  };

  void reserve(std::int32_t in_ports, std::int32_t vcs) {
    groups_.reserve(static_cast<std::size_t>(in_ports));
    reqs_.reserve(static_cast<std::size_t>(in_ports) *
                  static_cast<std::size_t>(vcs));
  }
  void clear() {
    groups_.clear();
    reqs_.clear();
  }
  void add(PortIndex in, VcIndex vc, PortIndex out) {
    if (groups_.empty() || groups_.back().in != in) {
      assert(groups_.empty() || groups_.back().in < in);  // ascending order
      groups_.push_back(
          Group{in, static_cast<std::int32_t>(reqs_.size()), 0});
    }
    reqs_.push_back(AllocRequest{vc, out});
    ++groups_.back().count;
  }

  [[nodiscard]] bool empty() const { return reqs_.empty(); }
  [[nodiscard]] const std::vector<Group>& groups() const { return groups_; }
  [[nodiscard]] const std::vector<AllocRequest>& reqs() const { return reqs_; }

 private:
  std::vector<Group> groups_;
  std::vector<AllocRequest> reqs_;
};

class SeparableAllocator {
 public:
  SeparableAllocator(std::int32_t in_ports, std::int32_t out_ports,
                     std::int32_t vcs);

  /// Output arbitration priority for in-network (through) traffic: inputs
  /// at or past `first_injection_port` only win an output no through input
  /// wants that iteration. Low-radix rings/tori need this — with plain
  /// round-robin an injection port takes an equal share of a saturated
  /// through link, which collapses aggregate throughput on >= 3-hop chains
  /// (the classic torus injection-vs-bypass fairness problem; cf. age-based
  /// or bypass-priority arbitration in real torus routers). Off by default:
  /// high-radix dragonfly outputs see many through inputs and figure
  /// parity with the paper's RR allocator matters more there.
  void set_through_priority(std::int32_t first_injection_port) {
    first_injection_port_ = first_injection_port;
  }

  /// Runs one separable iteration over `batch`. The returned span aliases an
  /// internal buffer valid until the next call.
  [[nodiscard]] std::span<const AllocGrant> allocate_iteration(
      const AllocRequestBatch& batch);

  /// Allocates one whole cycle: the grants, grant order and pointer updates
  /// of begin_cycle() followed by up to `iterations` (the router speedup)
  /// iterate() calls, stopping after an iteration past the first that
  /// grants nothing. The returned span aliases cycle_grants().
  [[nodiscard]] std::span<const AllocGrant> allocate(
      const AllocRequestBatch& batch, std::int32_t iterations);

  /// Incremental variant for multi-iteration (speedup > 1) allocation:
  /// inputs/outputs granted in earlier iterations of the same cycle are
  /// skipped. Call `begin_cycle()` first, then `iterate` up to `speedup`
  /// times; grants accumulate in `cycle_grants()`.
  void begin_cycle();
  std::span<const AllocGrant> iterate(const AllocRequestBatch& batch);
  [[nodiscard]] std::span<const AllocGrant> cycle_grants() const {
    return {cycle_grants_.data(), cycle_grants_.size()};
  }

  [[nodiscard]] std::int32_t in_ports() const { return in_ports_; }
  [[nodiscard]] std::int32_t out_ports() const { return out_ports_; }
  [[nodiscard]] std::int32_t vcs() const { return vcs_; }

  /// Bound the per-input round-robin counters wrap at: the least common
  /// multiple of 1..vcs, so `in_rr_[in] % n` is identical to an unbounded
  /// counter for every possible per-input request count n <= vcs — the
  /// wrap is observationally invisible (bit-exact goldens) while killing
  /// the overflow an unbounded narrow counter hits after ~2^31 grants on
  /// paper-scale runs (signed overflow is UB). 0 when the lcm would leave
  /// the integer range (vcs >= 23): the counters then run free on int64,
  /// which cannot practically overflow.
  [[nodiscard]] std::int64_t in_rr_wrap() const { return in_rr_wrap_; }
  /// Test hook: current RR pointer of input `in` (bounded by in_rr_wrap).
  [[nodiscard]] std::int64_t debug_in_rr(std::int32_t in) const {
    return in_rr_[static_cast<std::size_t>(in)];
  }

 private:
  // Stage-2 rank of input `in` at an output whose round-robin pointer is
  // `start`: through-priority class, then circular distance from the
  // pointer. Distinct per input, so an output's winner is its minimum key.
  [[nodiscard]] std::int32_t stage2_key(PortIndex in, std::int32_t start) const;
  // Moves both round-robin pointers past a grant's winner.
  void advance_pointers(const AllocGrant& grant);

  std::int32_t in_ports_;
  std::int32_t out_ports_;
  std::int32_t vcs_;
  std::int64_t in_rr_wrap_;                 // lcm(1..vcs); 0 = no wrap
  std::int32_t first_injection_port_ = -1;  // -1: plain round-robin

  std::vector<std::int64_t> in_rr_;   // per input: round-robin VC pointer,
                                      // wrapped at in_rr_wrap_ (see above)
  std::vector<std::int32_t> out_rr_;  // per output: round-robin input
                                      // pointer, bounded by construction
                                      // (always advanced mod in_ports_)

  // Per-cycle scratch (preallocated).
  std::vector<std::int8_t> in_busy_;    // input granted this cycle
  std::vector<std::int8_t> out_busy_;   // output granted this cycle
  // Per-iteration scratch (preallocated, sparse-cleared after stage 2).
  std::vector<AllocGrant> winners_;     // stage-1 winner per requesting input
  std::vector<PortIndex> cand_outs_;    // distinct stage-1 outputs
  // Per output, 0 unless it was seen in this pass: iterate() marks stage-1
  // outputs listed in cand_outs_, allocate()'s one-pass path stores 1 + the
  // index of the output's grant in cycle_grants_.
  std::vector<std::int32_t> out_slot_;
  std::vector<AllocGrant> iter_grants_;
  std::vector<AllocGrant> cycle_grants_;
};

}  // namespace dfsim
