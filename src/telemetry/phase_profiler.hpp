// Engine phase profiler: wall-time accounting per cycle phase, driving
// `dfsim_run perf --phases` and the benchmark's per-layer phase shares
// (which phase actually burns the cycles, and how long shards wait at
// barriers).
//
// API-enabled only (Simulator::enable_phase_profiler) — it measures wall
// time, so it has no config key and never enters the config hash. Each
// shard owns one profiler and stamps a lap at every phase boundary of its
// cycle; Simulator::phase_profiler() sums the shards. When not enabled the
// engine takes zero timing calls.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace dfsim::telemetry {

enum class Phase : std::uint8_t {
  kFaults = 0,     // fault schedule refresh + ring purge
  kDeliver = 1,    // cross-shard merge + deliver_arrivals
  kInject = 2,     // inject_traffic + traffic drawn ahead at the barrier
  kEctn = 3,       // mechanism update window (ECtN snapshot, ARN scan)
  kRoute = 4,      // route_and_allocate
  kTelemetry = 5,  // telemetry flush (sink gauge scan + frame commit)
  kBarrier = 6,    // waiting at shard barriers
};
inline constexpr std::int32_t kPhaseCount = 7;

[[nodiscard]] constexpr const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kFaults: return "faults";
    case Phase::kDeliver: return "deliver";
    case Phase::kInject: return "inject";
    case Phase::kEctn: return "ectn";
    case Phase::kRoute: return "route";
    case Phase::kTelemetry: return "telemetry";
    case Phase::kBarrier: return "barrier";
  }
  return "unknown";
}

class PhaseProfiler {
 public:
  using Clock = std::chrono::steady_clock;

  void reset() {
    for (auto& ns : ns_) ns = 0;
    cycles_ = 0;
    last_arrivals_ = 0;
  }

  /// Opens a cycle: the next lap charges time from here.
  void start_cycle() {
    last_ = Clock::now();
    ++cycles_;
  }
  /// Charges the time since the previous stamp to `phase`.
  void lap(Phase phase) {
    const Clock::time_point now = Clock::now();
    ns_[static_cast<std::size_t>(phase)] +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_)
            .count();
    last_ = now;
  }
  /// Counts a cycle whose end-of-cycle barrier this shard reached last.
  void count_last_arrival() { ++last_arrivals_; }
  /// Adds another shard's phase times and last arrivals. Every shard runs
  /// every cycle, so the cycle count stays the number of cycles run.
  void merge(const PhaseProfiler& other) {
    for (std::int32_t i = 0; i < kPhaseCount; ++i) ns_[i] += other.ns_[i];
    cycles_ = std::max(cycles_, other.cycles_);
    last_arrivals_ += other.last_arrivals_;
  }

  [[nodiscard]] std::int64_t cycles() const { return cycles_; }
  [[nodiscard]] std::int64_t last_arrivals() const { return last_arrivals_; }
  [[nodiscard]] std::int64_t nanoseconds(Phase phase) const {
    return ns_[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] double seconds(Phase phase) const {
    return static_cast<double>(nanoseconds(phase)) * 1e-9;
  }
  [[nodiscard]] double total_seconds() const {
    std::int64_t sum = 0;
    for (const auto ns : ns_) sum += ns;
    return static_cast<double>(sum) * 1e-9;
  }

 private:
  std::int64_t ns_[kPhaseCount] = {};
  std::int64_t cycles_ = 0;
  std::int64_t last_arrivals_ = 0;
  Clock::time_point last_;
};

}  // namespace dfsim::telemetry
