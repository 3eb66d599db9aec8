// Structure-of-arrays packet storage with a free list.
//
// A packet is an index into parallel arrays — the simulator hot loops touch
// only the field they need (e.g. the routing pass reads `target_router` and
// `flags` without dragging src/birth cache lines along). Freed indices are
// recycled; the arrays only grow while the in-flight population is still
// climbing toward steady state, and every growth bumps `grow_events` so the
// zero-allocation-after-warmup property is testable. A sharded engine keeps
// one pool per shard: a packet crossing shards leaves its id behind and
// travels as a State value (load/store).
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace dfsim {

class PacketPool {
 public:
  // Packet flag bits.
  static constexpr std::uint8_t kRouted = 1;        // injection decision made
  static constexpr std::uint8_t kMisGlobal = 2;     // globally misrouted
  static constexpr std::uint8_t kMisLocal = 4;      // took a local detour
  static constexpr std::uint8_t kInorder = 8;       // pinned to minimal path
  static constexpr std::uint8_t kPhase0 = 16;       // heading to misroute gateway
  static constexpr std::uint8_t kDetoured = 32;     // local detour in this group

  std::int32_t allocate() {
    if (!free_.empty()) {
      const std::int32_t id = free_.back();
      free_.pop_back();
      return id;
    }
    const auto id = static_cast<std::int32_t>(src.size());
    if (src.size() == src.capacity()) ++grow_events;  // heap growth
    src.push_back(0);
    dst.push_back(0);
    birth.push_back(0);
    target_router.push_back(-1);
    via_port.push_back(-1);
    g_hops.push_back(0);
    hops.push_back(0);
    flags.push_back(0);
    return id;
  }

  void release(std::int32_t id) { free_.push_back(id); }

  /// A packet's whole state by value: every SoA field, in one place, so a
  /// cross-shard link send carries exactly what the pool stores.
  struct State {
    Cycle birth = 0;
    NodeId src = 0;
    NodeId dst = 0;
    RouterId target_router = -1;
    std::int16_t via_port = -1;
    std::uint16_t hops = 0;
    std::int8_t g_hops = 0;
    std::uint8_t flags = 0;
  };

  [[nodiscard]] State load(std::int32_t id) const {
    const auto i = static_cast<std::size_t>(id);
    return State{birth[i],    src[i],  dst[i],    target_router[i],
                 via_port[i], hops[i], g_hops[i], flags[i]};
  }

  void store(std::int32_t id, const State& s) {
    const auto i = static_cast<std::size_t>(id);
    src[i] = s.src;
    dst[i] = s.dst;
    birth[i] = s.birth;
    target_router[i] = s.target_router;
    via_port[i] = s.via_port;
    g_hops[i] = s.g_hops;
    hops[i] = s.hops;
    flags[i] = s.flags;
  }

  /// Preallocate capacity for `n` packets (and the free list) up front. The
  /// pages stay untouched until packets first use them.
  void reserve(std::size_t n) {
    src.reserve(n);
    dst.reserve(n);
    birth.reserve(n);
    target_router.reserve(n);
    via_port.reserve(n);
    g_hops.reserve(n);
    hops.reserve(n);
    flags.reserve(n);
    free_.reserve(n);
  }

  [[nodiscard]] std::size_t in_use() const { return src.size() - free_.size(); }

  // SoA fields, indexed by packet id.
  std::vector<NodeId> src;
  std::vector<NodeId> dst;
  std::vector<Cycle> birth;
  std::vector<RouterId> target_router;  // phase-0 gateway target
  std::vector<std::int16_t> via_port;   // global port to take at the gateway
  std::vector<std::int8_t> g_hops;      // global hops taken so far (VC class)
  std::vector<std::uint16_t> hops;      // total hops (fault livelock guard)
  std::vector<std::uint8_t> flags;

  /// Number of times the arrays grew (allocation events).
  std::int64_t grow_events = 0;

 private:
  std::vector<std::int32_t> free_;
};

}  // namespace dfsim
