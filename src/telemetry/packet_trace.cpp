#include "telemetry/packet_trace.hpp"

#include <array>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "traffic/trace.hpp"

namespace dfsim::telemetry {

const char* to_string_event(std::uint8_t type) {
  switch (type) {
    case TraceEvent::kInject: return "inject";
    case TraceEvent::kRouteDecision: return "route_decision";
    case TraceEvent::kQueueHead: return "queue_head";
    case TraceEvent::kLinkDepart: return "link_depart";
    case TraceEvent::kLinkArrive: return "link_arrive";
    case TraceEvent::kDeliver: return "deliver";
    case TraceEvent::kDrop: return "drop";
    default: return "unknown";
  }
}

void PacketTracer::configure(const TraceParams& params, std::uint64_t run_seed,
                             std::size_t pool_capacity) {
  // Distinct stream from the run seed so tracing never correlates with
  // routing/traffic draws even when trace.seed is left at 0.
  const std::uint64_t seed =
      params.seed != 0 ? params.seed : run_seed ^ 0x7261636570656b74ull;
  rng_ = Rng(seed);
  sample_threshold_ = Rng::bool_threshold(params.sample_rate);
  max_events_ = params.max_events;
  next_id_ = 0;
  sampled_packets_ = 0;
  dropped_events_ = 0;
  slot_of_.assign(pool_capacity, kUntraced);
  events_.clear();
  events_.reserve(static_cast<std::size_t>(max_events_));
}

// --- binary format ---------------------------------------------------------

namespace {

constexpr std::size_t kRecordBytes = 24;

void put_u64(unsigned char* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<unsigned char>(v >> (8 * i));
}
void put_u32(unsigned char* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<unsigned char>(v >> (8 * i));
}
std::uint64_t get_u64(const unsigned char* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}
std::uint32_t get_u32(const unsigned char* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  return v;
}

}  // namespace

void write_trace_binary(const std::vector<TraceEvent>& events,
                        std::int64_t dropped, std::ostream& os) {
  os.write(kPacketTraceMagic.data(), kPacketTraceMagic.size());
  std::array<unsigned char, 16> header{};
  put_u64(header.data(), static_cast<std::uint64_t>(events.size()));
  put_u64(header.data() + 8, static_cast<std::uint64_t>(dropped));
  os.write(reinterpret_cast<const char*>(header.data()), header.size());
  std::array<unsigned char, kRecordBytes> rec{};
  for (const TraceEvent& ev : events) {
    put_u64(rec.data(), static_cast<std::uint64_t>(ev.cycle));
    put_u32(rec.data() + 8, ev.id);
    rec[12] = static_cast<unsigned char>(ev.router & 0xff);
    rec[13] = static_cast<unsigned char>(ev.router >> 8);
    rec[14] = ev.type;
    rec[15] = ev.arg;
    put_u32(rec.data() + 16, ev.aux);
    put_u32(rec.data() + 20, 0);  // reserved
    os.write(reinterpret_cast<const char*>(rec.data()), rec.size());
  }
}

void read_trace_binary(std::istream& is, std::vector<TraceEvent>& events,
                       std::int64_t& dropped) {
  char magic[8] = {};
  if (!is.read(magic, sizeof(magic)) ||
      std::string_view(magic, 8) != kPacketTraceMagic) {
    throw std::runtime_error(
        std::string_view(magic, 8) == kTrafficTraceMagic
            ? "packet trace: got a traffic trace (DFTRACE1), expected a "
              "packet-event trace (DFPKTEV1)"
            : "packet trace: bad magic (expected DFPKTEV1)");
  }
  std::array<unsigned char, 16> header{};
  if (!is.read(reinterpret_cast<char*>(header.data()), header.size())) {
    throw std::runtime_error("packet trace: truncated header");
  }
  const std::uint64_t count = get_u64(header.data());
  std::vector<TraceEvent> parsed;
  parsed.reserve(static_cast<std::size_t>(count));
  std::array<unsigned char, kRecordBytes> rec{};
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!is.read(reinterpret_cast<char*>(rec.data()), rec.size())) {
      throw std::runtime_error("packet trace: truncated records");
    }
    TraceEvent ev;
    ev.cycle = static_cast<std::int64_t>(get_u64(rec.data()));
    ev.id = get_u32(rec.data() + 8);
    ev.router = static_cast<std::uint16_t>(rec[12] |
                                           (static_cast<unsigned>(rec[13])
                                            << 8));
    ev.type = rec[14];
    ev.arg = rec[15];
    ev.aux = get_u32(rec.data() + 16);
    parsed.push_back(ev);
  }
  events = std::move(parsed);
  dropped = static_cast<std::int64_t>(get_u64(header.data() + 8));
}

// --- Chrome trace-event JSON -----------------------------------------------

namespace {

// One compact JSON object per line; every field is a number or a fixed
// label, so no string escaping is needed.
void write_event_json(const TraceEvent& ev, bool first, std::ostream& os) {
  if (!first) os << ",\n";
  os << "    {\"pid\": 0, \"tid\": " << ev.router
     << ", \"ts\": " << ev.cycle;
  switch (ev.type) {
    case TraceEvent::kInject:
      os << ", \"ph\": \"b\", \"cat\": \"packet\", \"id\": " << ev.id
         << ", \"name\": \"pkt " << ev.id << "\", \"args\": {\"dst\": "
         << ev.aux << "}}";
      break;
    case TraceEvent::kDeliver:
      os << ", \"ph\": \"e\", \"cat\": \"packet\", \"id\": " << ev.id
         << ", \"name\": \"pkt " << ev.id << "\", \"args\": {\"latency\": "
         << ev.aux << "}}";
      break;
    case TraceEvent::kDrop:
      os << ", \"ph\": \"e\", \"cat\": \"packet\", \"id\": " << ev.id
         << ", \"name\": \"pkt " << ev.id << "\", \"args\": {\"dropped\": 1}}";
      break;
    default:
      os << ", \"ph\": \"i\", \"s\": \"t\", \"cat\": \"hop\", \"name\": \""
         << to_string_event(ev.type) << "\", \"args\": {\"pkt\": " << ev.id
         << ", \"arg\": " << static_cast<int>(ev.arg) << "}}";
      break;
  }
}

}  // namespace

void write_chrome_trace(const std::vector<TraceEvent>& events,
                        std::ostream& os) {
  os << "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n";
  bool first = true;
  for (const TraceEvent& ev : events) {
    write_event_json(ev, first, os);
    first = false;
  }
  os << "\n  ]\n}\n";
}

}  // namespace dfsim::telemetry
