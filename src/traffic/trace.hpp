// Binary injection traces: flat (cycle, src, dst) streams recorded from any
// run and replayed deterministically by TrafficModel (TrafficKind::kTrace).
//
// File format (native little-endian):
//   8 bytes   magic "DFTRACE1" (kTrafficTraceMagic)
//   u64       record count
//   count x { i64 cycle, i32 src, i32 dst }   (16 bytes per record)
// Cycles are relative to the start of recording; records are sorted by cycle
// (ties ordered by src) because that is the order injection emits them in.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dfsim {

struct TraceRecord {
  std::int64_t cycle = 0;
  std::int32_t src = 0;
  std::int32_t dst = 0;
};
static_assert(sizeof(TraceRecord) == 16, "trace records are written raw");

inline constexpr std::string_view kTrafficTraceMagic = "DFTRACE1";

void write_trace(const std::string& path,
                 const std::vector<TraceRecord>& records);
/// Throws std::runtime_error on missing/garbled files, naming both formats
/// when handed a packet-event trace (telemetry/packet_trace.hpp).
[[nodiscard]] std::vector<TraceRecord> read_trace(const std::string& path);
/// Header-only validation (magic + record count vs file size); returns the
/// record count. Same errors as read_trace without reading the records;
/// validate() (sim/config_io.hpp) calls it so an unreadable
/// traffic.trace_path fails before any simulation starts.
[[nodiscard]] std::uint64_t validate_trace(const std::string& path);

}  // namespace dfsim
