#include "sim/config_io.hpp"

#include <fstream>
#include <stdexcept>
#include <type_traits>

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

struct Row {
  const char* key;
  bool (*gate)(const SimParams& p);  // nullptr: always emitted
  void (*parse)(SimParams& p, const std::string& key, const std::string& value);
  std::string (*format)(const SimParams& p);
};

/// A row over the field `Field{}(params)` returns: its type picks the
/// formatter, and the parser unless the row names one.
template <typename Field>
constexpr Row row(const char* key, Field, decltype(Row::gate) gate,
                  decltype(Row::parse) parse) {
  return {key, gate, parse,
          [](const SimParams& p) { return format_value(Field{}(p)); }};
}

template <typename Field>
constexpr Row row(const char* key, Field field,
                  decltype(Row::gate) gate = nullptr) {
  return row(key, field, gate,
             [](SimParams& p, const std::string& k, const std::string& v) {
               parse_value(Field{}(p), k, v);
             });
}

// A row's key is its field's member path, spelled once: ROW(topo.p) is the
// key "topo.p" over `params.topo.p`.
#define ROW(member, ...)                                 \
  row(#member, [](auto& p) -> auto& { return p.member; } \
      __VA_OPT__(, ) __VA_ARGS__)

/// Every config key, in canonical-text order.
constexpr Row kRows[] = {
    ROW(topology),
    ROW(topo.p),
    ROW(topo.a),
    ROW(topo.h),
    ROW(fbfly.k),
    ROW(fbfly.n),
    ROW(fbfly.c),
    ROW(torus.k),
    ROW(torus.n),
    ROW(torus.c),
    ROW(router.pipeline_cycles),
    ROW(router.speedup),
    ROW(router.vcs_local),
    ROW(router.vcs_global),
    ROW(router.vcs_injection),
    ROW(router.buf_output_phits),
    ROW(router.buf_local_phits),
    ROW(router.buf_global_phits),
    ROW(router.injection_queue_packets),
    ROW(router.through_priority),
    ROW(link.local_latency),
    ROW(link.global_latency),
    ROW(routing.kind),
    ROW(routing.contention_threshold),
    ROW(routing.hybrid_contention_threshold),
    ROW(routing.ectn_combined_threshold),
    ROW(routing.ectn_update_period),
    ROW(routing.counter_saturation),
    ROW(routing.olm_credit_fraction),
    ROW(routing.hybrid_credit_fraction),
    ROW(routing.pb_ugal_threshold),
    ROW(routing.global_policy),
    ROW(routing.allow_local_misroute),
    ROW(routing.statistical_trigger),
    ROW(routing.statistical_window),
    ROW(traffic.kind),
    ROW(traffic.load),
    ROW(traffic.adv_offset),
    ROW(traffic.mixed_uniform_fraction),
    ROW(traffic.shift_offset),
    ROW(traffic.hotspot_count),
    ROW(traffic.hotspot_fraction),
    ROW(traffic.injection),
    ROW(traffic.burst_factor),
    ROW(traffic.burst_len),
    ROW(traffic.trace_path, trace_path_set, parse_trace_path),
    ROW(traffic.inorder_fraction),
    ROW(packet_size_phits),
    ROW(seed),
    ROW(fault.enabled, fault_on),
    ROW(fault.seed, fault_on),
    ROW(fault.onset, fault_on),
    ROW(fault.link_fail_fraction, fault_on),
    ROW(fault.link_class, fault_on, parse_link_class),
    ROW(fault.flap_period, fault_on),
    ROW(fault.flap_down, fault_on),
    ROW(fault.router_fail_fraction, fault_on),
    ROW(fault.degrade_fraction, fault_on),
    ROW(fault.degrade_latency, fault_on),
    ROW(fault.hop_cap, fault_on),
    ROW(telemetry.enabled, telemetry_on),
    ROW(telemetry.sample_period, telemetry_on),
    ROW(telemetry.max_samples, telemetry_on),
    ROW(trace.enabled, trace_on),
    ROW(trace.seed, trace_on),
    ROW(trace.sample_rate, trace_on),
    ROW(trace.max_events, trace_on),
    ROW(notify.threshold, notify_on),
    ROW(notify.update_period, notify_on),
    ROW(notify.propagation_delay, notify_on),
    ROW(notify.expiry, notify_on),
    ROW(notify.throttle_injection, notify_on),
    ROW(engine.threads, sharded),
};

#undef ROW

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

SimParams load_params(const std::string& path, const SimParams& base) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("config: cannot open " + path);
  SimParams params = base;
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
    const std::string value = trim(line.substr(eq + 1));
    if (!section.empty() && key.find('.') == std::string::npos) {
      key = section + "." + key;
    }
    apply_param(params, key, value);
  }
  return params;
}

}  // namespace dfsim
