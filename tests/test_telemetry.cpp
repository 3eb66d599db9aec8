// Observability-layer tests: zero-overhead identity (telemetry/tracing/
// profiling compiled in but enabled must not change a single result bit),
// zero allocation after warmup with the sink live, deterministic trace
// sampling with binary and Chrome-JSON round-trips (a traffic trace handed
// to the packet-trace reader is rejected by name), heatmap counter
// conservation against the engine's lifetime totals, and config-hash gating
// of the telemetry.* / trace.* blocks.
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/simulator.hpp"
#include "report/json.hpp"
#include "report/schema.hpp"
#include "sim/config.hpp"
#include "sim/config_io.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/packet_trace.hpp"
#include "telemetry/telemetry_sink.hpp"
#include "traffic/trace.hpp"

namespace {

using namespace dfsim;

SimParams base_params() {
  SimParams p = presets::tiny();
  p.seed = 12345;
  p.routing.kind = RoutingKind::kCbBase;
  p.traffic.kind = TrafficKind::kAdversarial;
  p.traffic.adv_offset = 1;
  p.traffic.load = 0.3;
  return p;
}

struct RunResult {
  Simulator::Metrics metrics;
  Simulator::Totals totals;
};

RunResult run_point(const SimParams& p, Cycle warmup = 800,
                    Cycle measure = 1200) {
  Simulator sim(p);
  sim.run(warmup);
  sim.begin_measurement();
  sim.run(measure);
  return {sim.metrics(), sim.lifetime_totals()};
}

void expect_identical(const RunResult& a, const RunResult& b) {
  assert(a.metrics.delivered == b.metrics.delivered);
  assert(a.metrics.delivered_phits == b.metrics.delivered_phits);
  assert(a.metrics.latency_sum == b.metrics.latency_sum);  // bit-exact
  assert(a.metrics.misrouted == b.metrics.misrouted);
  assert(a.metrics.local_misrouted == b.metrics.local_misrouted);
  assert(a.metrics.minimal_path == b.metrics.minimal_path);
  assert(a.metrics.generated == b.metrics.generated);
  assert(a.metrics.refused == b.metrics.refused);
  assert(a.metrics.dropped == b.metrics.dropped);
  assert(a.metrics.undeliverable == b.metrics.undeliverable);
  assert(a.totals.generated == b.totals.generated);
  assert(a.totals.refused == b.totals.refused);
  assert(a.totals.delivered == b.totals.delivered);
  assert(a.totals.dropped == b.totals.dropped);
  assert(a.totals.undeliverable == b.totals.undeliverable);
}

// Telemetry, tracing, and profiling each enabled on top of the same run must
// reproduce the plain run bit-exactly: their hooks never touch the routing
// RNG or any simulation state.
void test_zero_overhead_identity() {
  const SimParams plain = base_params();
  const RunResult reference = run_point(plain);

  SimParams with_telemetry = plain;
  with_telemetry.telemetry.enabled = true;
  with_telemetry.telemetry.sample_period = 50;
  expect_identical(reference, run_point(with_telemetry));

  SimParams with_trace = plain;
  with_trace.trace.enabled = true;
  with_trace.trace.sample_rate = 0.25;
  expect_identical(reference, run_point(with_trace));

  SimParams with_both = plain;
  with_both.telemetry.enabled = true;
  with_both.telemetry.sample_period = 50;
  with_both.trace.enabled = true;
  with_both.trace.sample_rate = 0.25;
  expect_identical(reference, run_point(with_both));

  // Profiled stepping is a wall-clock overlay on the same phase sequence.
  {
    Simulator sim(plain);
    sim.enable_phase_profiler();
    sim.run(800);
    sim.begin_measurement();
    sim.run(1200);
    expect_identical(reference, {sim.metrics(), sim.lifetime_totals()});
    assert(sim.phase_profiler().cycles() == 2000);
    assert(sim.phase_profiler().total_seconds() > 0.0);
    // One shard still crosses its (one-party) end-of-cycle barrier.
    assert(sim.phase_profiler().nanoseconds(telemetry::Phase::kBarrier) > 0);
  }
  std::cout << "zero-overhead identity ok\n";
}

// The zero-alloc-after-warmup invariant must hold WITH the observability
// layer live: the sink commits into preallocated series and the tracer
// records into its reserved buffer.
void test_zero_alloc_with_telemetry() {
  SimParams p = base_params();
  p.telemetry.enabled = true;
  p.telemetry.sample_period = 25;
  p.telemetry.max_samples = 16;  // force frame-capacity exhaustion too
  p.trace.enabled = true;
  p.trace.sample_rate = 0.5;
  p.trace.max_events = 2000;  // force event-capacity exhaustion too

  Simulator sim(p);
  sim.run(1500);
  const std::int64_t events = sim.allocation_events();
  sim.run(1000);
  assert(sim.allocation_events() == events);
  assert(sim.pool_grow_events() == 0);
  // The capacity guards actually engaged, so the flat allocation count
  // covers the post-exhaustion paths as well.
  assert(sim.telemetry_sink().dropped_frames() > 0);
  assert(sim.packet_tracer().dropped_events() > 0);
  std::cout << "zero-alloc with telemetry on ok\n";
}

// telemetry.* / trace.* must follow the fault-axis hash precedent: absent
// from the canonical params text (and so from the config hash) unless
// enabled, and loadable back through the INI path when present.
void test_config_hash_gating() {
  const SimParams plain = base_params();
  const std::string text = canonical_params_text(plain);
  assert(text.find("telemetry.") == std::string::npos);
  assert(text.find("trace.") == std::string::npos);

  SimParams enabled = plain;
  enabled.telemetry.enabled = true;
  enabled.trace.enabled = true;
  const std::string enabled_text = canonical_params_text(enabled);
  assert(enabled_text.find("telemetry.enabled = true") != std::string::npos);
  assert(enabled_text.find("telemetry.sample_period") != std::string::npos);
  assert(enabled_text.find("trace.sample_rate") != std::string::npos);
  assert(report::config_hash(plain) != report::config_hash(enabled));

  // Round-trip the enabled text through apply_param (the canonical text is
  // a loadable overlay by contract).
  SimParams reloaded = presets::tiny();
  std::istringstream lines(enabled_text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t eq = line.find('=');
    assert(eq != std::string::npos);
    const std::string key = line.substr(0, eq - 1);
    const std::string value = line.substr(eq + 2);
    apply_param(reloaded, key, value);
  }
  assert(report::config_hash(reloaded) == report::config_hash(enabled));
  std::cout << "config hash gating ok\n";
}

// Same seeds -> same sampled packets and the same event stream; the binary
// format round-trips losslessly; the Chrome export parses as JSON with one
// entry per recorded event.
void test_trace_roundtrip_and_determinism() {
  SimParams p = base_params();
  p.trace.enabled = true;
  p.trace.sample_rate = 0.2;

  auto capture = [&]() {
    Simulator sim(p);
    sim.run(1000);
    return sim.packet_tracer().events();
  };
  const std::vector<telemetry::TraceEvent> events = capture();
  const std::vector<telemetry::TraceEvent> replay = capture();
  assert(!events.empty());
  assert(events.size() == replay.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    assert(events[i].cycle == replay[i].cycle);
    assert(events[i].id == replay[i].id);
    assert(events[i].router == replay[i].router);
    assert(events[i].type == replay[i].type);
    assert(events[i].arg == replay[i].arg);
    assert(events[i].aux == replay[i].aux);
  }

  // Binary round-trip.
  std::stringstream bin;
  telemetry::write_trace_binary(events, 7, bin);
  std::vector<telemetry::TraceEvent> decoded;
  std::int64_t dropped = 0;
  assert(bin.str().compare(0, 8, "DFPKTEV1") == 0);
  telemetry::read_trace_binary(bin, decoded, dropped);
  assert(dropped == 7);
  assert(decoded.size() == events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    assert(decoded[i].cycle == events[i].cycle);
    assert(decoded[i].id == events[i].id);
    assert(decoded[i].router == events[i].router);
    assert(decoded[i].type == events[i].type);
    assert(decoded[i].arg == events[i].arg);
    assert(decoded[i].aux == events[i].aux);
  }

  // A truncated stream must be rejected, not half-parsed, and a traffic
  // trace (the other binary format) must be rejected by name.
  const auto read_error = [&](std::istream& is) -> std::string {
    std::vector<telemetry::TraceEvent> out;
    std::int64_t out_dropped = 0;
    try {
      telemetry::read_trace_binary(is, out, out_dropped);
    } catch (const std::runtime_error& e) {
      assert(out.empty());
      return e.what();
    }
    return "";
  };
  const std::string full = bin.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  assert(read_error(truncated).find("truncated") != std::string::npos);
  {
    const std::string path = "dfsim_test_telemetry_traffic_trace.bin";
    write_trace(path, {{0, 1, 2}, {3, 4, 5}});
    std::ifstream traffic(path, std::ios::binary);
    const std::string err = read_error(traffic);
    std::cerr << "traffic trace -> packet reader: " << err << "\n";
    assert(err.find("DFTRACE1") != std::string::npos);
    assert(err.find("DFPKTEV1") != std::string::npos);
    std::remove(path.c_str());
  }

  // Chrome trace-event export: valid JSON, one traceEvents entry per event,
  // every lifecycle begin paired or still open (never closed twice).
  std::stringstream chrome;
  telemetry::write_chrome_trace(events, chrome);
  const report::Json doc = report::Json::parse(chrome.str());
  const report::Json& trace_events = doc.get("traceEvents");
  assert(trace_events.is_array());
  assert(trace_events.size() == events.size());
  std::int64_t begins = 0;
  std::int64_t ends = 0;
  for (const report::Json& ev : trace_events.items()) {
    const std::string& ph = ev.get("ph").as_string();
    assert(ph == "b" || ph == "e" || ph == "i");
    if (ph == "b") ++begins;
    if (ph == "e") ++ends;
  }
  assert(begins > 0);
  assert(ends <= begins);  // packets still in flight stay open
  std::cout << "trace round-trip + determinism ok (" << events.size()
            << " events)\n";
}

// The sink's lifetime totals must conserve against the engine's own
// accounting exactly, frames or no frames; the heatmap document round-trips
// through the schema JSON.
void test_heatmap_conservation_and_schema() {
  SimParams p = base_params();
  p.routing.kind = RoutingKind::kCbEctn;  // exercises ectn_update counting
  p.telemetry.enabled = true;
  p.telemetry.sample_period = 40;

  Simulator sim(p);
  sim.run(1600);
  const telemetry::TelemetrySink& sink = sim.telemetry_sink();
  const Simulator::Totals& totals = sim.lifetime_totals();

  assert(sink.frames() > 0);
  assert(sink.total_injections() == totals.generated - totals.refused);
  assert(sink.total_refusals() == totals.refused);
  assert(sink.total_deliveries() == totals.delivered);
  assert(sink.total_drops() == totals.dropped);
  assert(sink.total_undeliverable() == totals.undeliverable);
  assert(sink.total_ectn_updates() > 0);
  // Misroute causes decompose the per-router misroute totals (the fault
  // fallback cause counts re-routings, not packets, and faults are off).
  std::int64_t cause_sum = 0;
  for (std::int32_t c = 0; c < telemetry::kMisrouteCauseCount; ++c) {
    cause_sum +=
        sink.total_cause(static_cast<telemetry::MisrouteCause>(c));
  }
  assert(cause_sum == sink.total_misroutes());
  assert(sink.total_misroutes() > 0);  // ADV traffic under CB must misroute
  assert(sink.total_credit_stalls() >= 0);
  assert(sink.total_link_departures() > 0);

  // Heatmap document: builds, serializes, and round-trips byte-identically.
  const report::ResultsDoc doc =
      telemetry::build_heatmap_doc(sim, "heatmap_test", "tiny");
  assert(doc.panel("routers") != nullptr);
  assert(doc.panel("misroute_causes") != nullptr);
  assert(doc.panel("network") != nullptr);
  assert(doc.panel("totals") != nullptr);
  const report::Json json = report::to_json(doc);
  const report::ResultsDoc reparsed =
      report::doc_from_json(report::Json::parse(json.dump()));
  assert(report::to_json(reparsed).dump() == json.dump());

  // Spot-check one conserved quantity through the document itself: summed
  // per-frame per-router injections equal the frame-covered injections.
  const report::Panel* routers = doc.panel("routers");
  const auto* injections = routers->metric("injections");
  assert(injections != nullptr);
  std::int64_t doc_injections = 0;
  for (const auto& row : *injections) {
    for (const double v : row) doc_injections += static_cast<std::int64_t>(v);
  }
  std::int64_t frame_injections = 0;
  for (std::int32_t f = 0; f < sink.frames(); ++f) {
    for (RouterId r = 0; r < sink.routers(); ++r) {
      frame_injections += sink.injections(f, r);
    }
  }
  assert(doc_injections == frame_injections);
  std::cout << "heatmap conservation + schema ok (" << sink.frames()
            << " frames)\n";
}

}  // namespace

int main() {
  test_zero_overhead_identity();
  test_zero_alloc_with_telemetry();
  test_config_hash_gating();
  test_trace_roundtrip_and_determinism();
  test_heatmap_conservation_and_schema();
  std::cout << "test_telemetry: all ok\n";
  return 0;
}
