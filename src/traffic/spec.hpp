// Traffic workload specification: spatial pattern kinds, injection-process
// kinds, and the TrafficParams knob block that sim/config embeds and
// config_io parses, bounds and overlays. The runtime interpreter of this
// spec (pre-resolved tables, the per-cycle pull API) lives in
// traffic/model.hpp.
#pragma once

#include <cstdint>
#include <string>

namespace dfsim {

/// Spatial destination patterns. The permutation patterns (kShift through
/// kGroupLocal) are deterministic bijections over terminals; the rest draw
/// destinations per packet.
enum class TrafficKind : std::uint8_t {
  kUniform,        // UN: uniform random destinations (excluding self)
  kAdversarial,    // ADV+o: every node in group G sends into group G+o
  kMixed,          // blend of UN and ADV+o
  kShift,          // dst = (src + shift_offset) mod N
  kBitComplement,  // dst = N-1-src (the bit complement when N is 2^k)
  kTranspose,      // transpose of the largest W x W square, W = floor(sqrt N)
  kTornado,        // group-level tornado: group g sends to g + (G-1)/2
  kGroupLocal,     // intra-group neighbor permutation (no global traffic)
  kHotspot,        // hotspot_fraction of packets target hotspot_count nodes
  kTrace,          // deterministic replay of a recorded (cycle,src,dst) stream
};

/// Injection (temporal) process, layered under any spatial pattern.
enum class InjectionProcess : std::uint8_t {
  kBernoulli,  // independent per-node per-cycle coin at the offered load
  kBursty,     // two-state on/off Markov process, same long-run rate
};

[[nodiscard]] std::string to_string(TrafficKind kind);
[[nodiscard]] std::string to_string(InjectionProcess process);
/// Parses canonical and CLI/INI spellings ("UN"/"uniform", "bitcomp", ...);
/// throws std::invalid_argument on unknown names.
[[nodiscard]] TrafficKind traffic_kind_from_string(const std::string& name);
[[nodiscard]] InjectionProcess injection_process_from_string(
    const std::string& name);

struct TrafficParams {
  TrafficKind kind = TrafficKind::kUniform;
  double load = 0.5;  // offered phits/node/cycle
  // Spatial-pattern knobs.
  std::int32_t adv_offset = 1;          // ADV+o group offset
  double mixed_uniform_fraction = 0.5;  // kMixed: share of UN packets
  std::int32_t shift_offset = 1;        // kShift node offset
  std::int32_t hotspot_count = 4;       // kHotspot: size of the hot set
  double hotspot_fraction = 0.5;        // kHotspot: share aimed at the hot set
  // Injection process.
  InjectionProcess injection = InjectionProcess::kBernoulli;
  double burst_factor = 4.0;  // kBursty: on-state rate = factor * load
  double burst_len = 50.0;    // kBursty: mean on-state duration (cycles)
  // kTrace: path of a trace written by TrafficModel recording.
  std::string trace_path;
  /// Fraction of traffic pinned to the minimal path (in-order delivery,
  /// Section VI-C remedy (a)).
  double inorder_fraction = 0.0;
};

}  // namespace dfsim
