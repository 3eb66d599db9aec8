// Config-file overlay: partial files override only the keys they mention;
// sections and dotted keys are equivalent; bad keys/values throw.
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "report/schema.hpp"
#include "sim/config_io.hpp"

namespace {

// An INI overlay: the file's assignments on top of `base`.
dfsim::SimParams load_params(const std::string& path, dfsim::SimParams base) {
  for (const auto& [key, value] : dfsim::read_params(path)) {
    dfsim::apply_param(base, key, value);
  }
  return base;
}

std::string write_temp(const std::string& contents) {
  const std::string path = "dfsim_test_config.ini";
  std::ofstream out(path);
  out << contents;
  return path;
}

}  // namespace

int main() {
  using namespace dfsim;

  // Overlay semantics: only mentioned keys change.
  {
    const std::string path = write_temp(
        "# comment\n"
        "topo.a = 16\n"
        "routing.kind = ECtN   ; trailing comment\n"
        "\n"
        "[traffic]\n"
        "load = 0.35\n"
        "kind = ADV\n");
    const SimParams base = presets::medium();
    const SimParams params = load_params(path, base);
    assert(params.topo.a == 16);
    assert(params.topo.p == base.topo.p);        // untouched
    assert(params.topo.h == base.topo.h);        // untouched
    assert(params.routing.kind == RoutingKind::kCbEctn);
    assert(params.traffic.load == 0.35);
    assert(params.traffic.kind == TrafficKind::kAdversarial);
    assert(params.router.vcs_local == base.router.vcs_local);
    std::remove(path.c_str());
  }

  // apply_param covers scalars, bools, and enums.
  {
    SimParams p = presets::tiny();
    apply_param(p, "routing.statistical_trigger", "true");
    assert(p.routing.statistical_trigger);
    apply_param(p, "routing.global_policy", "CRG");
    assert(p.routing.global_policy == GlobalMisroutePolicy::kCrg);
    apply_param(p, "packet_size_phits", "4");
    assert(p.packet_size_phits == 4);
  }

  // Traffic-subsystem keys: every model and injection knob is selectable.
  {
    SimParams p = presets::tiny();
    apply_param(p, "traffic.kind", "hotspot");
    assert(p.traffic.kind == TrafficKind::kHotspot);
    apply_param(p, "traffic.hotspot_count", "8");
    apply_param(p, "traffic.hotspot_fraction", "0.4");
    assert(p.traffic.hotspot_count == 8);
    assert(p.traffic.hotspot_fraction == 0.4);
    apply_param(p, "traffic.kind", "shift");
    apply_param(p, "traffic.shift_offset", "9");
    assert(p.traffic.kind == TrafficKind::kShift);
    assert(p.traffic.shift_offset == 9);
    apply_param(p, "traffic.injection", "bursty");
    apply_param(p, "traffic.burst_factor", "6");
    apply_param(p, "traffic.burst_len", "25");
    assert(p.traffic.injection == InjectionProcess::kBursty);
    assert(p.traffic.burst_factor == 6.0);
    assert(p.traffic.burst_len == 25.0);
    // trace_path implies kTrace.
    apply_param(p, "traffic.trace_path", "run.dftrace");
    assert(p.traffic.kind == TrafficKind::kTrace);
    assert(p.traffic.trace_path == "run.dftrace");

    bool threw = false;
    try {
      apply_param(p, "traffic.kind", "fractal");
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    assert(threw);
  }

  // Errors: unknown key, bad value, missing file.
  {
    SimParams p = presets::tiny();
    bool threw = false;
    try {
      apply_param(p, "router.flux_capacitor", "1");
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    assert(threw);

    threw = false;
    try {
      apply_param(p, "traffic.load", "heavy");
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    assert(threw);

    threw = false;
    try {
      (void)load_params("does_not_exist.ini", p);
    } catch (const std::runtime_error&) {
      threw = true;
    }
    assert(threw);

    // A number must parse whole and fit its field; the error names the key.
    for (const auto& [key, value] :
         {std::pair{"router.speedup", "4294967298"},
          std::pair{"router.speedup", "3abc"},
          std::pair{"traffic.load", "0.3.5"}, std::pair{"seed", "-1"}}) {
      std::string what;
      try {
        apply_param(p, key, value);
      } catch (const std::invalid_argument& e) {
        what = e.what();
      }
      assert(what.find(key) != std::string::npos);
    }

    // 64-bit seeds and cycles are kept exactly, and the canonical text
    // reloads them to the same hash.
    SimParams wide = presets::tiny();
    apply_param(wide, "seed", "4294967297");
    apply_param(wide, "fault.enabled", "true");
    apply_param(wide, "fault.onset", "3000000000");
    assert(wide.seed == 4294967297ull);
    assert(wide.fault.onset == 3000000000);
    const std::string path = write_temp(canonical_params_text(wide));
    const SimParams reloaded = load_params(path, presets::tiny());
    std::remove(path.c_str());
    assert(reloaded.seed == wide.seed);
    assert(report::config_hash(reloaded) == report::config_hash(wide));
  }

  // The canonical text carries the trace path exactly when trace replay
  // reads it. A path left behind under another pattern stays out, so the
  // text reloads to itself (reading the path would switch to replay).
  {
    SimParams p = presets::tiny();
    apply_param(p, "traffic.trace_path", "x.dftrace");
    apply_param(p, "traffic.kind", "BITCOMP");
    const std::string text = canonical_params_text(p);
    const std::string path = write_temp(text);
    const SimParams reloaded = load_params(path, presets::tiny());
    std::remove(path.c_str());
    assert(reloaded.traffic.kind == TrafficKind::kBitComplement);
    assert(canonical_params_text(reloaded) == text);
    assert(report::config_hash(reloaded) == report::config_hash(p));

    SimParams replay = presets::tiny();
    apply_param(replay, "traffic.trace_path", "x.dftrace");
    SimParams other = replay;
    apply_param(other, "traffic.trace_path", "y.dftrace");
    assert(report::config_hash(replay) != report::config_hash(other));
  }

  return EXIT_SUCCESS;
}
