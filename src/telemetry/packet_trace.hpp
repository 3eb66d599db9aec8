// Packet-lifecycle tracing: opt-in, deterministically sampled per-packet
// event records (inject -> route decision + cause -> per-hop queue/link
// events -> deliver/drop).
//
// Sampling draws from the tracer's OWN RNG stream (seeded from trace.seed,
// or run seed when 0) — routing and traffic draws are untouched, so a traced
// run is bit-identical to an untraced one, and the same (run seed,
// trace seed, sample rate) always selects the same packets. One sampling
// draw is taken per *accepted* injection regardless of capacity, so the
// selected set never depends on buffer sizes.
//
// Events are 24-byte PODs in a vector reserved to trace.max_events at
// configure time (recording stops, with a dropped count, when full — no
// allocation after warmup). Export paths: a compact binary format with a
// round-trip reader, and Chrome trace-event JSON loadable in Perfetto /
// chrome://tracing (async "b"/"e" spans per packet, with tid = router so
// lanes group by router).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "sim/config.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace dfsim::telemetry {

struct TraceEvent {
  // Event types (stored as uint8_t; values are part of the binary format).
  static constexpr std::uint8_t kInject = 0;         // aux = dst node
  static constexpr std::uint8_t kRouteDecision = 1;  // arg = MisrouteCause
  static constexpr std::uint8_t kQueueHead = 2;      // arg = input port
  static constexpr std::uint8_t kLinkDepart = 3;     // arg = output port
  static constexpr std::uint8_t kLinkArrive = 4;     // arg = input port
  static constexpr std::uint8_t kDeliver = 5;        // aux = latency
  static constexpr std::uint8_t kDrop = 6;
  static constexpr std::uint8_t kTypeCount = 7;

  std::int64_t cycle = 0;
  std::uint32_t id = 0;      // monotonic per-traced-packet id (pool ids recycle)
  std::uint16_t router = 0;
  std::uint8_t type = 0;
  std::uint8_t arg = 0;
  std::uint32_t aux = 0;
};

[[nodiscard]] const char* to_string_event(std::uint8_t type);

class PacketTracer {
 public:
  PacketTracer() : rng_(0) {}

  /// Preallocates the event buffer (params.max_events) and the pool-id ->
  /// trace-id map (`pool_capacity` slots). All allocation happens here.
  void configure(const TraceParams& params, std::uint64_t run_seed,
                 std::size_t pool_capacity);

  [[nodiscard]] bool configured() const { return !slot_of_.empty(); }

  /// Per accepted injection: one sampling draw from the tracer's own RNG;
  /// when the packet is selected, opens its lifecycle with a kInject event.
  void on_inject(Cycle now, std::int32_t packet, RouterId router, NodeId dst) {
    const bool sampled = rng_.next_bool_below(sample_threshold_);
    if (!sampled) return;
    if (static_cast<std::size_t>(packet) >= slot_of_.size()) return;
    ++sampled_packets_;
    slot_of_[static_cast<std::size_t>(packet)] = next_id_;
    push(now, next_id_++, router, TraceEvent::kInject, 0,
         static_cast<std::uint32_t>(dst));
  }

  [[nodiscard]] bool traced(std::int32_t packet) const {
    const auto pi = static_cast<std::size_t>(packet);
    return pi < slot_of_.size() && slot_of_[pi] != kUntraced;
  }

  /// Mid-lifecycle event; no-op unless the packet was sampled at injection.
  void record_hop(Cycle now, std::int32_t packet, RouterId router,
                  std::uint8_t type, std::uint8_t arg, std::uint32_t aux = 0) {
    const auto pi = static_cast<std::size_t>(packet);
    if (pi >= slot_of_.size() || slot_of_[pi] == kUntraced) return;
    push(now, slot_of_[pi], router, type, arg, aux);
  }

  /// Terminal event (kDeliver / kDrop); frees the packet's trace slot so the
  /// recycled pool id is not mistaken for a traced packet.
  void close(Cycle now, std::int32_t packet, RouterId router,
             std::uint8_t type, std::uint32_t aux = 0) {
    const auto pi = static_cast<std::size_t>(packet);
    if (pi >= slot_of_.size() || slot_of_[pi] == kUntraced) return;
    push(now, slot_of_[pi], router, type, 0, aux);
    slot_of_[pi] = kUntraced;
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::int64_t dropped_events() const { return dropped_events_; }
  [[nodiscard]] std::int64_t sampled_packets() const {
    return sampled_packets_;
  }

 private:
  static constexpr std::uint32_t kUntraced = 0xffffffffu;

  void push(Cycle now, std::uint32_t id, RouterId router, std::uint8_t type,
            std::uint8_t arg, std::uint32_t aux) {
    if (events_.size() == static_cast<std::size_t>(max_events_)) {
      ++dropped_events_;
      return;
    }
    events_.push_back(TraceEvent{now, id, static_cast<std::uint16_t>(router),
                                 type, arg, aux});
  }

  Rng rng_;
  std::uint64_t sample_threshold_ = 0;
  std::int64_t max_events_ = 0;
  std::uint32_t next_id_ = 0;
  std::int64_t sampled_packets_ = 0;
  std::int64_t dropped_events_ = 0;
  std::vector<std::uint32_t> slot_of_;  // pool packet id -> trace id
  std::vector<TraceEvent> events_;
};

// --- export / import -------------------------------------------------------

inline constexpr std::string_view kPacketTraceMagic = "DFPKTEV1";

/// Compact binary format: kPacketTraceMagic, little-endian u64 count +
/// i64 dropped, then 24 bytes per event.
void write_trace_binary(const std::vector<TraceEvent>& events,
                        std::int64_t dropped, std::ostream& os);

/// Round-trip reader for write_trace_binary; throws std::runtime_error
/// (outputs untouched) on a malformed stream, naming both formats when
/// handed a traffic trace (kTrafficTraceMagic, traffic/trace.hpp).
void read_trace_binary(std::istream& is, std::vector<TraceEvent>& events,
                       std::int64_t& dropped);

/// Chrome trace-event JSON ({"traceEvents": [...]}), loadable in Perfetto or
/// chrome://tracing: one async "b"/"e" span per packet (id = trace id,
/// tid = router at inject/terminal) plus instant events for hops, with ts in
/// simulated cycles.
void write_chrome_trace(const std::vector<TraceEvent>& events,
                        std::ostream& os);

}  // namespace dfsim::telemetry
