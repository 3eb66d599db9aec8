#include "sim/config_io.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "traffic/trace.hpp"
#include "util/format.hpp"

namespace dfsim {

namespace {

std::string trim(const std::string& s) {
  const std::size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return {};
  const std::size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

// ---------------------------------------------------------------------------
// Value codecs, picked by the field's type: parse_value reads a whole INI
// value or throws naming the key, format_value writes the text that
// parse_value reads back to the same value.

/// A number must parse whole and fit its field (parse_number).
template <typename T>
  requires std::is_arithmetic_v<T>
void parse_value(T& out, const std::string& key, const std::string& value) {
  try {
    out = parse_number<T>(value, key);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("config: ") + e.what());
  }
}

void parse_value(bool& out, const std::string& key, const std::string& value) {
  if (value == "true" || value == "1" || value == "yes" || value == "on") {
    out = true;
  } else if (value == "false" || value == "0" || value == "no" ||
             value == "off") {
    out = false;
  } else {
    throw std::invalid_argument("config: bad bool for " + key + ": '" +
                                value + "'");
  }
}

void parse_value(TopologyKind& out, const std::string&, const std::string& v) {
  out = topology_kind_from_string(v);
}
void parse_value(RoutingKind& out, const std::string&, const std::string& v) {
  out = routing_kind_from_string(v);
}
void parse_value(TrafficKind& out, const std::string&, const std::string& v) {
  out = traffic_kind_from_string(v);
}
void parse_value(InjectionProcess& out, const std::string&,
                 const std::string& v) {
  out = injection_process_from_string(v);
}
void parse_value(GlobalMisroutePolicy& out, const std::string&,
                 const std::string& v) {
  if (v == "MM+L" || v == "mml" || v == "MML") {
    out = GlobalMisroutePolicy::kMmL;
  } else if (v == "CRG" || v == "crg") {
    out = GlobalMisroutePolicy::kCrg;
  } else {
    throw std::invalid_argument("config: bad global_policy '" + v + "'");
  }
}

std::string format_value(bool v) { return v ? "true" : "false"; }
std::string format_value(double v) { return shortest_round_trip(v); }
std::string format_value(const std::string& v) { return v; }
std::string format_value(GlobalMisroutePolicy v) {
  return v == GlobalMisroutePolicy::kMmL ? "MM+L" : "CRG";
}
/// Integers through std::to_string, enums through their dfsim::to_string.
template <typename T>
std::string format_value(T v) {
  using std::to_string;
  return to_string(v);
}

// The two string fields parse by hand.
void parse_link_class(SimParams& p, const std::string& key,
                      const std::string& value) {
  if (value != "any" && value != "local" && value != "global") {
    throw std::invalid_argument("config: bad " + key + " '" + value +
                                "' (expected any|local|global)");
  }
  p.fault.link_class = value;
}

// A trace path also selects trace replay.
void parse_trace_path(SimParams& p, const std::string&,
                      const std::string& value) {
  p.traffic.trace_path = value;
  p.traffic.kind = TrafficKind::kTrace;
}

// ---------------------------------------------------------------------------
// The parameter table

// Row gates. A gated row enters the canonical text only while its gate
// holds, so a config that leaves an axis off keeps the text (and hash) it had
// before the axis existed; turning one on is supposed to move the hash.
bool fault_on(const SimParams& p) { return p.fault.enabled; }
bool telemetry_on(const SimParams& p) { return p.telemetry.enabled; }
bool trace_on(const SimParams& p) { return p.trace.enabled; }
// The notification plane is what ARN runs; nothing else reads notify.*.
bool notify_on(const SimParams& p) {
  return p.routing.kind == RoutingKind::kArn;
}
// Only trace replay reads the path, and an empty path is the same run as
// none.
bool trace_path_set(const SimParams& p) {
  return p.traffic.kind == TrafficKind::kTrace &&
         !p.traffic.trace_path.empty();
}
// Sharded results are deterministic per (seed, threads) but not
// bit-identical across thread counts.
bool sharded(const SimParams& p) { return p.engine.threads != 1; }

/// A row's valid values, [lo, hi] inclusive; the default bounds nothing.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
};
constexpr Range at_least(double lo) { return {.lo = lo}; }
constexpr Range kFraction{0.0, 1.0};  // shares and probabilities

using Gate = bool (*)(const SimParams& p);  // nullptr: always emitted
using Parse = void (*)(SimParams& p, const std::string& key,
                       const std::string& value);

struct Row {
  const char* key;
  Gate gate;
  Parse parse;
  std::string (*format)(const SimParams& p);
  Range range;
  double (*number)(const SimParams& p);  // nullptr: a row without a number
  bool integral = false;
};

/// A row over the field `Field{}(params)` returns: its type picks the
/// parser and the formatter, and a number field is checked against `range`.
template <typename Field>
constexpr Row row(const char* key, Field, Range range = {},
                  Gate gate = nullptr) {
  Row r{key, gate,
        [](SimParams& p, const std::string& k, const std::string& v) {
          parse_value(Field{}(p), k, v);
        },
        [](const SimParams& p) { return format_value(Field{}(p)); }, range,
        nullptr};
  using T = std::remove_cvref_t<decltype(Field{}(std::declval<SimParams&>()))>;
  if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
    r.number = [](const SimParams& p) {
      return static_cast<double>(Field{}(p));
    };
    r.integral = std::is_integral_v<T>;
  }
  return r;
}

template <typename Field>
constexpr Row row(const char* key, Field field, Gate gate) {
  return row(key, field, Range{}, gate);
}

/// A row whose field parses by hand (the string fields).
template <typename Field>
constexpr Row row(const char* key, Field, Gate gate, Parse parse) {
  return {key, gate, parse,
          [](const SimParams& p) { return format_value(Field{}(p)); }, {},
          nullptr};
}

// A row's key is its field's member path, spelled once: ROW(topo.p) is the
// key "topo.p" over `params.topo.p`.
#define ROW(member, ...)                                 \
  row(#member, [](auto& p) -> auto& { return p.member; } \
      __VA_OPT__(, ) __VA_ARGS__)

/// Every config key, in canonical-text order, with its valid range. The
/// rules that tie keys together are in validate().
constexpr Row kRows[] = {
    ROW(topology),
    ROW(topo.p, at_least(1)),
    ROW(topo.a, at_least(2)),
    ROW(topo.h, at_least(1)),
    ROW(fbfly.k, at_least(2)),
    ROW(fbfly.n, at_least(1)),
    ROW(fbfly.c, at_least(1)),
    // k >= 3 keeps a ring's plus and minus ports distinct links (k = 2
    // would double the one physical link between its two routers).
    ROW(torus.k, at_least(3)),
    ROW(torus.n, at_least(1)),
    ROW(torus.c, at_least(1)),
    ROW(router.pipeline_cycles, at_least(0)),
    // Below 1 no allocator iteration runs, so nothing ever departs.
    ROW(router.speedup, at_least(1)),
    // A class with no VC would route onto VC -1.
    ROW(router.vcs_local, at_least(1)),
    ROW(router.vcs_global, at_least(1)),
    ROW(router.vcs_injection, at_least(1)),
    ROW(router.buf_output_phits, at_least(1)),
    ROW(router.buf_local_phits),   // >= packet_size_phits
    ROW(router.buf_global_phits),  // >= packet_size_phits
    ROW(router.injection_queue_packets, at_least(1)),
    ROW(router.through_priority),
    ROW(link.local_latency, at_least(0)),
    ROW(link.global_latency, at_least(0)),
    ROW(routing.kind),
    ROW(routing.contention_threshold, at_least(1)),
    ROW(routing.hybrid_contention_threshold, at_least(1)),
    ROW(routing.ectn_combined_threshold, at_least(1)),
    ROW(routing.ectn_update_period, at_least(1)),
    // Counters are 16-bit.
    ROW(routing.counter_saturation, Range{1, 32767}),
    ROW(routing.olm_credit_fraction, kFraction),
    ROW(routing.hybrid_credit_fraction, kFraction),
    ROW(routing.pb_ugal_threshold),
    ROW(routing.global_policy),
    ROW(routing.allow_local_misroute),
    ROW(routing.statistical_trigger),
    ROW(routing.statistical_window, at_least(1)),
    ROW(traffic.kind),
    ROW(traffic.load, kFraction),
    ROW(traffic.adv_offset),
    ROW(traffic.mixed_uniform_fraction, kFraction),
    ROW(traffic.shift_offset),
    ROW(traffic.hotspot_count, at_least(1)),  // <= nodes under hotspot
    ROW(traffic.hotspot_fraction, kFraction),
    ROW(traffic.injection),
    ROW(traffic.burst_factor, at_least(1)),
    ROW(traffic.burst_len, at_least(1)),
    ROW(traffic.trace_path, trace_path_set, parse_trace_path),
    ROW(traffic.inorder_fraction, kFraction),
    ROW(packet_size_phits, at_least(1)),
    ROW(seed),
    ROW(fault.enabled, fault_on),
    ROW(fault.seed, fault_on),
    ROW(fault.onset, at_least(0), fault_on),
    ROW(fault.link_fail_fraction, kFraction, fault_on),
    ROW(fault.link_class, fault_on, parse_link_class),
    ROW(fault.flap_period, at_least(0), fault_on),
    ROW(fault.flap_down, at_least(0), fault_on),  // < flap_period
    ROW(fault.router_fail_fraction, kFraction, fault_on),
    ROW(fault.degrade_fraction, kFraction, fault_on),
    ROW(fault.degrade_latency, at_least(0), fault_on),
    ROW(fault.hop_cap, at_least(1), fault_on),
    ROW(telemetry.enabled, telemetry_on),
    ROW(telemetry.sample_period, at_least(1), telemetry_on),
    ROW(telemetry.max_samples, at_least(1), telemetry_on),
    ROW(trace.enabled, trace_on),
    ROW(trace.seed, trace_on),
    ROW(trace.sample_rate, kFraction, trace_on),
    ROW(trace.max_events, at_least(0), trace_on),
    ROW(notify.threshold, kFraction, notify_on),
    ROW(notify.update_period, at_least(1), notify_on),
    ROW(notify.propagation_delay, at_least(0), notify_on),
    // Live for [arrival, arrival + expiry): at 0 a fresh one never is.
    ROW(notify.expiry, at_least(1), notify_on),
    ROW(notify.throttle_injection, notify_on),
    ROW(engine.threads, at_least(1), sharded),  // <= routers
};

#undef ROW

std::string bound_text(const Range& r) {
  const std::string lo = shortest_round_trip(r.lo);
  if (std::isinf(r.hi)) return ">= " + lo;
  return "in [" + lo + ", " + shortest_round_trip(r.hi) + "]";
}

[[noreturn]] void reject(const std::string& key, const std::string& rule,
                         const std::string& got) {
  throw std::invalid_argument(key + " must be " + rule + ", got " + got);
}

}  // namespace

void apply_param(SimParams& p, const std::string& key,
                 const std::string& value) {
  for (const Row& r : kRows) {
    if (key == r.key) {
      r.parse(p, key, value);
      return;
    }
  }
  throw std::invalid_argument("config: unknown key '" + key + "'");
}

std::string canonical_params_text(const SimParams& p) {
  std::string out;
  for (const Row& r : kRows) {
    if (r.gate != nullptr && !r.gate(p)) continue;
    out += r.key;
    out += " = ";
    out += r.format(p);
    out += '\n';
  }
  return out;
}

void validate(const SimParams& p) {
  using std::to_string;
  for (const Row& r : kRows) {
    if (r.number == nullptr) continue;
    const double v = r.number(p);
    if (!std::isfinite(v) || v < r.range.lo || v > r.range.hi) {
      reject(r.key, bound_text(r.range), r.format(p));
    }
  }
  // Every shard owns at least one router.
  if (p.engine.threads > p.routers()) {
    reject("engine.threads", "<= " + to_string(p.routers()) +
           " (the router count)", to_string(p.engine.threads));
  }
  if (p.traffic.kind == TrafficKind::kHotspot &&
      p.traffic.hotspot_count > p.nodes()) {
    reject("traffic.hotspot_count", "<= " + to_string(p.nodes()) +
           " (the node count)", to_string(p.traffic.hotspot_count));
  }
  // A buffer holds at least one packet.
  const std::string packet =
      ">= " + to_string(p.packet_size_phits) + " (packet_size_phits)";
  for (const auto& [key, phits] :
       {std::pair{"router.buf_local_phits", p.router.buf_local_phits},
        std::pair{"router.buf_global_phits", p.router.buf_global_phits}}) {
    if (phits < p.packet_size_phits) reject(key, packet, to_string(phits));
  }
  if (p.fault.flap_period > 0 &&
      (p.fault.flap_down == 0 || p.fault.flap_down >= p.fault.flap_period)) {
    reject("fault.flap_down", "in (0, fault.flap_period) while flapping",
           to_string(p.fault.flap_down));
  }
  // The sink's counters and the tracer's buffer are not sharded.
  if (p.engine.threads != 1 && (p.telemetry.enabled || p.trace.enabled)) {
    reject(p.telemetry.enabled ? "telemetry.enabled" : "trace.enabled",
           "false at engine.threads > 1", "true");
  }
  if (p.traffic.kind == TrafficKind::kTrace) {
    try {
      (void)validate_trace(p.traffic.trace_path);
    } catch (const std::runtime_error& e) {
      reject("traffic.trace_path", "a readable trace", e.what());
    }
  }
}

std::vector<ParamRange> param_ranges() {
  std::vector<ParamRange> ranges;
  for (const Row& r : kRows) {
    if (r.number != nullptr &&
        (std::isfinite(r.range.lo) || std::isfinite(r.range.hi))) {
      ranges.push_back({r.key, r.range.lo, r.range.hi, r.integral});
    }
  }
  return ranges;
}

std::vector<std::pair<std::string, std::string>> read_params(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("config: cannot open " + path);
  std::vector<std::pair<std::string, std::string>> assignments;
  std::string line;
  std::string section;
  while (std::getline(in, line)) {
    const std::size_t comment = line.find_first_of("#;");
    if (comment != std::string::npos) line = line.substr(0, comment);
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[' && line.back() == ']') {
      section = trim(line.substr(1, line.size() - 2));
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("config: expected key = value, got '" +
                                  line + "'");
    }
    std::string key = trim(line.substr(0, eq));
    if (!section.empty() && key.find('.') == std::string::npos) {
      key = section + "." + key;
    }
    assignments.emplace_back(std::move(key), trim(line.substr(eq + 1)));
  }
  return assignments;
}

}  // namespace dfsim
