// Routing-mechanism dispatch identity suite.
//
// The routing layer (src/routing/) dispatches every mechanism through the
// RoutingMechanism interface instead of RoutingKind switches inside the
// engine. This suite pins that dispatch three ways:
//
// (1) Name identity: every RoutingKind round-trips through to_string /
//     routing_kind_from_string, and the canonical params text names the
//     kind verbatim (so config hashes distinguish mechanisms).
// (2) Metric identity: each mechanism instance reproduces the golden
//     metrics captured from the engine BEFORE the mechanism extraction,
//     bit-exactly, on all three topologies (ECtN is dragonfly-only by
//     construction). Double equality is intentional — the mechanism layer
//     must not move a single RNG draw or iteration order.
// (3) Construction contract: kinds whose preconditions a topology cannot
//     meet (ECtN off-dragonfly) must refuse construction loudly.
//
// Regenerate the table with `--print` after a DELIBERATE behavior change
// only (ARCHITECTURE.md bit-exactness rule).
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

#include "engine/experiment.hpp"
#include "engine/simulator.hpp"
#include "report/schema.hpp"

namespace {

using namespace dfsim;

struct Golden {
  TopologyKind topo;
  RoutingKind kind;
  double throughput;
  double latency_avg;
  double misrouted_fraction;
  double backlog_per_node;
};

// Every kind a topology can instantiate, in enum order. ECtN needs
// dragonfly group structure; everything else (ARN included — every
// topology implements min_link_probe) runs everywhere.
const RoutingKind kAllKinds[] = {
    RoutingKind::kMin,      RoutingKind::kValiant,  RoutingKind::kUgalL,
    RoutingKind::kUgalG,    RoutingKind::kPiggyback, RoutingKind::kOlm,
    RoutingKind::kCbBase,   RoutingKind::kCbHybrid, RoutingKind::kCbEctn,
    RoutingKind::kArn,
};

const char* enum_name(RoutingKind kind) {
  switch (kind) {
    case RoutingKind::kMin: return "kMin";
    case RoutingKind::kValiant: return "kValiant";
    case RoutingKind::kUgalL: return "kUgalL";
    case RoutingKind::kUgalG: return "kUgalG";
    case RoutingKind::kPiggyback: return "kPiggyback";
    case RoutingKind::kOlm: return "kOlm";
    case RoutingKind::kCbBase: return "kCbBase";
    case RoutingKind::kCbHybrid: return "kCbHybrid";
    case RoutingKind::kCbEctn: return "kCbEctn";
    case RoutingKind::kArn: return "kArn";
  }
  return "?";
}

const char* topo_enum_name(TopologyKind topo) {
  switch (topo) {
    case TopologyKind::kDragonfly: return "kDragonfly";
    case TopologyKind::kFbfly: return "kFbfly";
    case TopologyKind::kTorus: return "kTorus";
  }
  return "?";
}

SimParams base_params(TopologyKind topo) {
  switch (topo) {
    case TopologyKind::kFbfly: return presets::fbfly(4, 2, 4);
    case TopologyKind::kTorus: return presets::torus(8, 2, 2);
    case TopologyKind::kDragonfly: break;
  }
  return presets::tiny();
}

bool kind_supported(TopologyKind topo, RoutingKind kind) {
  return kind != RoutingKind::kCbEctn || topo == TopologyKind::kDragonfly;
}

// Adversarial traffic exercises every decision path (injection-time,
// in-transit, local detour). The torus adversary is the tornado offset.
SteadyResult run_point(TopologyKind topo, RoutingKind kind) {
  SimParams p = base_params(topo);
  p.routing.kind = kind;
  p.traffic.kind = TrafficKind::kAdversarial;
  p.traffic.load = 0.3;
  p.traffic.adv_offset = topo == TopologyKind::kTorus ? 4 : 1;
  p.seed = 9001;
  SteadyOptions opt;
  opt.warmup = 400;
  opt.measure = 600;
  return run_steady(p, opt);
}

// Captured from the engine at the commit immediately BEFORE the mechanism
// extraction (seed 9001, warmup 400, measure 600, load 0.3, ADV); the
// extracted instances must reproduce every cell bit-exactly.
const Golden kGolden[] = {
    {TopologyKind::kDragonfly, RoutingKind::kMin, 0.125, 399.40148148148148, 0, 20.958333333333332},
    {TopologyKind::kDragonfly, RoutingKind::kValiant, 0.30296296296296299, 137.95843520782395, 1, 0.125},
    {TopologyKind::kDragonfly, RoutingKind::kUgalL, 0.27277777777777779, 173.94501018329939, 0.5417515274949084, 3.9166666666666665},
    {TopologyKind::kDragonfly, RoutingKind::kUgalG, 0.28185185185185185, 150.53482260183969, 0.55716162943495395, 2.1527777777777777},
    {TopologyKind::kDragonfly, RoutingKind::kPiggyback, 0.27277777777777779, 173.94501018329939, 0.5417515274949084, 3.9166666666666665},
    {TopologyKind::kDragonfly, RoutingKind::kOlm, 0.28000000000000003, 174.9126984126984, 0.55291005291005291, 3.2361111111111112},
    {TopologyKind::kDragonfly, RoutingKind::kCbBase, 0.28759259259259257, 162.71860914359306, 0.63940759819703796, 1.5555555555555556},
    {TopologyKind::kDragonfly, RoutingKind::kCbHybrid, 0.30740740740740741, 148.79879518072289, 0.64277108433734942, 0.84722222222222221},
    {TopologyKind::kDragonfly, RoutingKind::kCbEctn, 0.2877777777777778, 167.22844272844273, 0.64478764478764483, 1.625},
    // ARN rows are post-extraction captures pinning the NEW mechanism (no
    // pre-extraction twin exists). On fbfly/torus the row equals MIN: the
    // downstream-occupancy signal tops out near 0.31 of the reference
    // buffer there (backlog pools in injection queues, not network
    // buffers), so the 0.5 scan threshold never fires — same reason the
    // OLM rows equal MIN on those topologies.
    {TopologyKind::kDragonfly, RoutingKind::kArn, 0.29388888888888887, 135.3660995589162, 0.57214870825456832, 1.6805555555555556},
    {TopologyKind::kFbfly, RoutingKind::kMin, 0.25, 121.88062499999999, 0, 49.171875},
    {TopologyKind::kFbfly, RoutingKind::kValiant, 0.29895833333333333, 32.295905923344947, 1, 2.53125},
    {TopologyKind::kFbfly, RoutingKind::kUgalL, 0.29843750000000002, 17.540139616055846, 0.46492146596858641, 1.421875},
    {TopologyKind::kFbfly, RoutingKind::kUgalG, 0.29960937500000001, 20.996697088222511, 0.50786614515428075, 1.40625},
    {TopologyKind::kFbfly, RoutingKind::kPiggyback, 0.29843750000000002, 17.540139616055846, 0.46492146596858641, 1.421875},
    {TopologyKind::kFbfly, RoutingKind::kOlm, 0.25, 121.88062499999999, 0, 49.171875},
    {TopologyKind::kFbfly, RoutingKind::kCbBase, 0.29713541666666665, 25.777212971078001, 0.32892199824715163, 2.234375},
    {TopologyKind::kFbfly, RoutingKind::kCbHybrid, 0.29749999999999999, 15.593837535014005, 0.44914215686274511, 0.421875},
    {TopologyKind::kFbfly, RoutingKind::kArn, 0.25, 121.88062499999999, 0, 49.171875},
    {TopologyKind::kTorus, RoutingKind::kMin, 0.125, 339.44760416666668, 0, 175.328125},
    {TopologyKind::kTorus, RoutingKind::kValiant, 0.083723958333333334, 344.00839813374807, 1, 179.5703125},
    {TopologyKind::kTorus, RoutingKind::kUgalL, 0.19968749999999999, 222.73037297861242, 0.76401930099113202, 97.375},
    {TopologyKind::kTorus, RoutingKind::kUgalG, 0.19885416666666667, 230.83754583551598, 0.78103719224724988, 96.546875},
    {TopologyKind::kTorus, RoutingKind::kPiggyback, 0.1199609375, 312.60360360360363, 0.93975903614457834, 142.375},
    {TopologyKind::kTorus, RoutingKind::kOlm, 0.125, 339.44760416666668, 0, 175.328125},
    {TopologyKind::kTorus, RoutingKind::kCbBase, 0.1194921875, 309.56249318949546, 0.97591805600958914, 152.796875},
    {TopologyKind::kTorus, RoutingKind::kCbHybrid, 0.11078125, 303.60989656793606, 0.99623883403855196, 151},
    {TopologyKind::kTorus, RoutingKind::kArn, 0.125, 339.44760416666668, 0, 175.328125},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string_view(argv[1]) == "--print") {
    for (const TopologyKind topo :
         {TopologyKind::kDragonfly, TopologyKind::kFbfly,
          TopologyKind::kTorus}) {
      for (const RoutingKind kind : kAllKinds) {
        if (!kind_supported(topo, kind)) continue;
        const SteadyResult r = run_point(topo, kind);
        std::printf("    {TopologyKind::%s, RoutingKind::%s, %.17g, %.17g, "
                    "%.17g, %.17g},\n",
                    topo_enum_name(topo), enum_name(kind), r.throughput,
                    r.latency_avg, r.misrouted_fraction, r.backlog_per_node);
      }
    }
    return EXIT_SUCCESS;
  }

  // --- (1) name identity ----------------------------------------------------
  for (const RoutingKind kind : kAllKinds) {
    const std::string name = to_string(kind);
    assert(!name.empty() && name != "?");
    if (routing_kind_from_string(name) != kind) {
      std::fprintf(stderr, "round-trip failed for %s\n", name.c_str());
      return EXIT_FAILURE;
    }
    SimParams p = presets::tiny();
    p.routing.kind = kind;
    const std::string text = canonical_params_text(p);
    if (text.find("routing.kind = " + name) == std::string::npos) {
      std::fprintf(stderr, "canonical text does not name %s\n", name.c_str());
      return EXIT_FAILURE;
    }
  }
  // Distinct kinds must hash apart (the canonical text is the config id).
  {
    SimParams a = presets::tiny();
    SimParams b = presets::tiny();
    a.routing.kind = RoutingKind::kUgalL;
    b.routing.kind = RoutingKind::kPiggyback;
    assert(report::config_hash(a) != report::config_hash(b));
  }

  // --- (2) metric identity against the pre-extraction capture ---------------
  for (const Golden& g : kGolden) {
    const SteadyResult r = run_point(g.topo, g.kind);
    if (r.throughput != g.throughput || r.latency_avg != g.latency_avg ||
        r.misrouted_fraction != g.misrouted_fraction ||
        r.backlog_per_node != g.backlog_per_node) {
      std::fprintf(stderr,
                   "identity mismatch topo=%s kind=%s\n"
                   "  thr %.17g vs %.17g\n  lat %.17g vs %.17g\n"
                   "  mis %.17g vs %.17g\n  bkl %.17g vs %.17g\n",
                   topo_enum_name(g.topo), enum_name(g.kind), r.throughput,
                   g.throughput, r.latency_avg, g.latency_avg,
                   r.misrouted_fraction, g.misrouted_fraction,
                   r.backlog_per_node, g.backlog_per_node);
      return EXIT_FAILURE;
    }
  }

  // --- (3) unsupported construction refuses loudly ---------------------------
  {
    SimParams p = base_params(TopologyKind::kTorus);
    p.routing.kind = RoutingKind::kCbEctn;
    bool threw = false;
    try {
      Simulator sim(p);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    assert(threw);
  }

  return EXIT_SUCCESS;
}
