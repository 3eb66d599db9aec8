// Simulation parameters: topology shape, router microarchitecture, link
// latencies, routing mechanism knobs, and traffic pattern — plus the named
// presets every bench selects with --scale (Table I of the paper at "paper"
// scale, proportionally shrunk versions below it). Each field's valid range
// is its row in sim/config_io.cpp, checked by validate().
#pragma once

#include <cstdint>
#include <string>

#include "traffic/spec.hpp"
#include "util/types.hpp"

namespace dfsim {

// ---------------------------------------------------------------------------
// Enums

/// Routing mechanisms compared in the paper. kCb* are the contention-counter
/// based contributions (Section IV/V); the rest are baselines.
enum class RoutingKind : std::uint8_t {
  kMin,        // oblivious minimal
  kValiant,    // oblivious Valiant (random intermediate group)
  kUgalL,      // UGAL with local (source-router credit) estimates
  kUgalG,      // UGAL with idealized global queue knowledge
  kPiggyback,  // UGAL-L + piggybacked remote link state (PB)
  kOlm,        // in-transit credit-triggered misrouting (On-the-fly OLM)
  kCbBase,     // contention counters, threshold trigger (Base)
  kCbHybrid,   // contention + credit hybrid trigger (Hybrid)
  kCbEctn,     // contention + explicit contention notification (ECtN)
  kArn,        // adaptive-routing-notification family (notify.* knobs)
};

[[nodiscard]] std::string to_string(RoutingKind kind);
[[nodiscard]] RoutingKind routing_kind_from_string(const std::string& name);

// TrafficKind / InjectionProcess / TrafficParams moved to traffic/spec.hpp:
// the workload subsystem (traffic/model.hpp) interprets them for both
// simulators; this header re-exports them via the include above.

/// Candidate set for a global misroute (Section V-A): MM+L may commit a local
/// hop to reach any global link of the group; CRG restricts candidates to the
/// current router's own global links.
enum class GlobalMisroutePolicy : std::uint8_t { kMmL, kCrg };

/// Topology the unified engine instantiates (see topo/topology.hpp). The
/// matching shape struct below is consulted; the others are ignored.
enum class TopologyKind : std::uint8_t { kDragonfly, kFbfly, kTorus };

[[nodiscard]] std::string to_string(TopologyKind kind);
[[nodiscard]] TopologyKind topology_kind_from_string(const std::string& name);

// ---------------------------------------------------------------------------
// Parameter structs

/// Canonical dragonfly: `a` routers per group, `p` nodes per router, `h`
/// global links per router; fully connected groups, one global link between
/// every pair of groups (g = a*h + 1 groups).
struct TopoParams {
  std::int32_t p = 4;
  std::int32_t a = 8;
  std::int32_t h = 4;

  [[nodiscard]] std::int32_t groups() const { return a * h + 1; }
  [[nodiscard]] std::int32_t routers() const { return groups() * a; }
  [[nodiscard]] std::int32_t nodes() const { return routers() * p; }
  [[nodiscard]] std::int32_t local_ports() const { return a - 1; }
  /// Inter-router ports (local + global); injection/ejection excluded.
  [[nodiscard]] std::int32_t forward_ports() const { return (a - 1) + h; }
  /// Full router radix: injection + local + global.
  [[nodiscard]] std::int32_t radix() const { return p + forward_ports(); }
};

/// k-ary n-flat flattened butterfly: full connectivity per dimension,
/// c terminals per router (Section VI-D companion topology).
struct FbflyParams {
  std::int32_t k = 4;  // radix per dimension
  std::int32_t n = 2;  // dimensions
  std::int32_t c = 4;  // nodes per router

  [[nodiscard]] std::int32_t routers() const {
    std::int32_t total = 1;
    for (std::int32_t d = 0; d < n; ++d) total *= k;
    return total;
  }
  [[nodiscard]] std::int32_t nodes() const { return routers() * c; }
  /// Inter-router channels per router: (k-1) per dimension.
  [[nodiscard]] std::int32_t channels() const { return n * (k - 1); }
};

/// k-ary n-cube torus: wrap-around rings per dimension, c terminals per
/// router. Needs vcs_local >= 4 (dateline x Valiant-phase VCs).
struct TorusParams {
  std::int32_t k = 8;  // ring size per dimension
  std::int32_t n = 2;  // dimensions
  std::int32_t c = 2;  // nodes per router

  [[nodiscard]] std::int32_t routers() const {
    std::int32_t total = 1;
    for (std::int32_t d = 0; d < n; ++d) total *= k;
    return total;
  }
  [[nodiscard]] std::int32_t nodes() const { return routers() * c; }
};

struct RouterParams {
  std::int32_t pipeline_cycles = 5;  // router traversal latency
  std::int32_t speedup = 2;          // internal frequency speedup (allocator iterations)
  std::int32_t vcs_local = 3;        // local-port VCs (l0/l1/l2 hop classes)
  std::int32_t vcs_global = 2;       // global-port VCs (g0/g1 hop classes)
  std::int32_t vcs_injection = 1;
  std::int32_t buf_output_phits = 32;  // Table I only: no engine code reads it
  std::int32_t buf_local_phits = 32;    // per VC, Table I "small buffers"
  std::int32_t buf_global_phits = 256;  // per VC
  /// Injection (source) queue depth in packets; bounds memory past saturation.
  std::int32_t injection_queue_packets = 64;
  /// Output arbitration favors in-network traffic over injection (see
  /// SeparableAllocator::set_through_priority). Required for sane saturated
  /// throughput on low-radix rings/tori; off for dragonfly figure parity.
  bool through_priority = false;
};

struct LinkParams {
  std::int32_t local_latency = 10;
  std::int32_t global_latency = 100;
};

struct RoutingParams {
  RoutingKind kind = RoutingKind::kCbBase;
  // Contention-counter triggers (Base / ECtN / Hybrid).
  std::int32_t contention_threshold = 6;
  std::int32_t hybrid_contention_threshold = 3;
  std::int32_t ectn_combined_threshold = 8;
  Cycle ectn_update_period = 100;
  /// Counter saturation cap; 4 bits matches the Section VI-B overhead math.
  std::int32_t counter_saturation = 15;
  // Credit-based triggers.
  double olm_credit_fraction = 0.35;    // occupancy fraction that flags a link
  double hybrid_credit_fraction = 0.25;
  std::int32_t pb_ugal_threshold = 3;   // UGAL/PB decision offset T (phits)
  // Misrouting policy (Section V / ablations).
  GlobalMisroutePolicy global_policy = GlobalMisroutePolicy::kMmL;
  bool allow_local_misroute = true;
  // Section VI-C statistical trigger: ramp misrouting probability across a
  // window of counter values below the threshold instead of a hard cutoff.
  bool statistical_trigger = false;
  std::int32_t statistical_window = 4;
};

/// Deterministic fault schedule (src/fault/). Disabled by default; when
/// disabled the engine takes zero fault branches and results are bit-exact
/// with builds that predate the overlay.
struct FaultParams {
  bool enabled = false;
  /// Selection seed for which links/routers fail; 0 derives from the run
  /// seed so `seed` sweeps also vary the fault placement.
  std::uint64_t seed = 0;
  /// Cycle at which scheduled faults take effect (relative to cycle 0, i.e.
  /// including warmup).
  Cycle onset = 0;
  /// Fraction of physical inter-router links (both directions) that fail.
  double link_fail_fraction = 0.0;
  /// Restrict link selection to a port class: "any", "local" or "global"
  /// (dragonfly only distinguishes the two classes).
  std::string link_class = "any";
  /// When > 0, failed links flap instead of dying permanently: down for
  /// `flap_down` cycles at the start of every `flap_period` window after
  /// onset. Requires 0 < flap_down < flap_period.
  Cycle flap_period = 0;
  Cycle flap_down = 0;
  /// Fraction of routers whose forward links all fail (both directions).
  double router_fail_fraction = 0.0;
  /// Fraction of physical links degraded with `degrade_latency` extra
  /// cycles from onset (selected independently of the failed set).
  double degrade_fraction = 0.0;
  std::int32_t degrade_latency = 0;
  /// Livelock guard: packets rerouted around faults for more than this many
  /// hops are dropped and counted as `undeliverable`.
  std::int32_t hop_cap = 64;
};

/// Spatial telemetry (src/telemetry/telemetry_sink.hpp). Disabled by
/// default; when disabled the engine takes zero telemetry branches and
/// results (and config hashes — the `telemetry.*` block only enters the
/// canonical params text when enabled) are bit-exact with builds that
/// predate the layer.
struct TelemetryParams {
  bool enabled = false;
  /// Cycles between spatial samples. Each sample captures per-router queue
  /// occupancy and the per-link / per-cause activity accumulated since the
  /// previous sample.
  Cycle sample_period = 100;
  /// Preallocated sample-frame capacity; sampling stops (and the dropped
  /// count is reported) once exhausted, preserving zero-alloc-after-warmup.
  /// Per-frame memory scales with routers * radix (~6 bytes per link slot),
  /// so the default stays modest — raise it together with sample_period for
  /// long captures.
  std::int32_t max_samples = 512;
};

/// Packet-lifecycle tracing (src/telemetry/packet_trace.hpp). Sampling
/// draws from the tracer's OWN RNG stream, so routing and traffic draws are
/// untouched and a traced run is bit-identical to an untraced one.
struct TraceParams {
  bool enabled = false;
  /// Sampling seed; 0 derives from the run seed.
  std::uint64_t seed = 0;
  /// Per-packet probability of being traced through its whole lifecycle.
  double sample_rate = 0.01;
  /// Preallocated event capacity; recording stops (dropped count reported)
  /// once exhausted.
  std::int64_t max_events = 1 << 20;
};

/// Congestion-notification mechanism (src/routing/notification.hpp, the
/// ARN family of arxiv 2502.00616): routers whose forward links exceed an
/// occupancy threshold broadcast a notification that becomes visible at
/// every source after a propagation delay and expires after a staleness
/// window. The notification plane is what `routing.kind = ARN` runs; no
/// other mechanism reads these knobs, and the `notify.*` block enters the
/// canonical params text — and thus config hashes — only for ARN.
struct NotifyParams {
  /// Occupancy fraction of a forward link's buffer that flags it congested
  /// during a notification scan (same credit-occupancy test as OLM/PB).
  double threshold = 0.5;
  /// Cycles between notification scans.
  Cycle update_period = 20;
  /// Cycles before a broadcast notification is live at the sources.
  Cycle propagation_delay = 10;
  /// Cycles a notification stays live after arrival unless refreshed;
  /// stale entries stop influencing decisions (no retraction message).
  Cycle expiry = 60;
  /// ARN variant that additionally refuses injections whose minimal route
  /// starts on a live-notified link (arxiv 2502.00597's source throttle).
  bool throttle_injection = false;
};

/// Execution-engine knobs. `threads = 1` (the default) runs the legacy
/// serial cycle loop and is bit-exact with builds that predate sharding;
/// `threads > 1` partitions routers across barrier-synced worker shards
/// (see ARCHITECTURE.md "Sharded execution"). Results are deterministic
/// per (seed, threads) pair but not bit-identical across thread counts.
struct EngineParams {
  std::int32_t threads = 1;
};

struct SimParams {
  /// Which topology the engine instantiates; `topo` (dragonfly), `fbfly`,
  /// or `torus` supplies the shape accordingly.
  TopologyKind topology = TopologyKind::kDragonfly;
  TopoParams topo;
  FbflyParams fbfly;
  TorusParams torus;
  RouterParams router;
  LinkParams link;
  RoutingParams routing;
  TrafficParams traffic;
  FaultParams fault;
  TelemetryParams telemetry;
  TraceParams trace;
  NotifyParams notify;
  EngineParams engine;
  std::int32_t packet_size_phits = 8;
  std::uint64_t seed = 1;

  [[nodiscard]] std::int32_t nodes() const {
    switch (topology) {
      case TopologyKind::kFbfly: return fbfly.nodes();
      case TopologyKind::kTorus: return torus.nodes();
      case TopologyKind::kDragonfly: break;
    }
    return topo.nodes();
  }
  [[nodiscard]] std::int32_t routers() const {
    return topology == TopologyKind::kFbfly   ? fbfly.routers()
           : topology == TopologyKind::kTorus ? torus.routers()
                                              : topo.routers();
  }
};

// ---------------------------------------------------------------------------
// Presets

namespace presets {

/// Paper scale (Table I): p=8 a=16 h=8, 31 forward ports, 129 groups,
/// 16512 nodes.
[[nodiscard]] SimParams paper();
/// p=4 a=8 h=4 — 1056 nodes; the default bench scale.
[[nodiscard]] SimParams medium();
/// p=3 a=6 h=3 — 342 nodes.
[[nodiscard]] SimParams small();
/// p=2 a=4 h=2 — 72 nodes; smoke-test scale.
[[nodiscard]] SimParams tiny();
/// p=10 a=48 h=44 — 2113 groups, 101424 routers, ~1.01M nodes; the
/// sharded-engine scale target (ROADMAP item 1). Only practical with
/// engine.threads > 1.
[[nodiscard]] SimParams exa();

/// Lookup by --scale name; throws std::invalid_argument on unknown names.
[[nodiscard]] SimParams by_name(const std::string& name);

/// Flattened-butterfly run on the unified engine: unit packets (load is
/// packets/node/cycle), 2 phase VCs, per-channel buffering of `buf_packets`,
/// and an auto contention threshold of max(2, c) — all injection heads
/// aligned (the unified engine's counters see every queue head, unlike the
/// old forked simulator's injection-only sampling).
[[nodiscard]] SimParams fbfly(std::int32_t k, std::int32_t n, std::int32_t c,
                              std::int32_t buf_packets = 16);
/// Torus run on the unified engine: 4 VCs (dateline x Valiant phase),
/// unit packets, uniform per-channel buffering.
[[nodiscard]] SimParams torus(std::int32_t k, std::int32_t n, std::int32_t c,
                              std::int32_t buf_packets = 16);

/// Overlay helper: permanent failure of `fraction` of the links of
/// `link_class` ("any"|"local"|"global") from cycle `onset` on `base`.
[[nodiscard]] SimParams with_link_faults(SimParams base, double fraction,
                                         const std::string& link_class = "any",
                                         Cycle onset = 0);

}  // namespace presets

}  // namespace dfsim
