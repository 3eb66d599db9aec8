// Traffic subsystem invariants: every permutation pattern is a bijection
// over terminals (including awkward non-square / non-power-of-two node
// counts), hotspot empirical frequencies match the configured skew, the
// bursty on/off process hits the offered load in the long run, traces
// round-trip through the binary format (keeping the DFTRACE1 magic, and
// rejecting a packet-event trace by name), a recorded dragonfly run
// replays to bit-identical delivered counts and latency (and, on four
// shards, injects every record once), and drawing cycles ahead (as a
// sharded waiter does in barrier slack) emits exactly the stream a model
// drawing each cycle in begin_cycle emits.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/simulator.hpp"
#include "traffic/model.hpp"
#include "telemetry/packet_trace.hpp"
#include "traffic/trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace dfsim;

TrafficTopologyInfo info(std::int32_t groups, std::int32_t npg) {
  TrafficTopologyInfo topo;
  topo.nodes = groups * npg;
  topo.groups = groups;
  topo.nodes_per_group = npg;
  return topo;
}

void check_bijection(TrafficKind kind, const TrafficTopologyInfo& topo) {
  TrafficParams spec;
  spec.kind = kind;
  spec.shift_offset = topo.nodes_per_group + 1;
  TrafficModel model(spec, topo, 1, 7);
  std::vector<int> hit(static_cast<std::size_t>(topo.nodes), 0);
  for (NodeId n = 0; n < topo.nodes; ++n) {
    const NodeId d = model.draw_dest(n);
    assert(d >= 0 && d < topo.nodes);
    ++hit[static_cast<std::size_t>(d)];
    // Permutations are deterministic: the same source maps to the same
    // destination on every draw.
    assert(model.draw_dest(n) == d);
  }
  for (NodeId n = 0; n < topo.nodes; ++n) {
    if (hit[static_cast<std::size_t>(n)] != 1) {
      std::fprintf(stderr, "%s: node %d hit %d times (groups=%d npg=%d)\n",
                   to_string(kind).c_str(), n, hit[static_cast<std::size_t>(n)],
                   topo.groups, topo.nodes_per_group);
      std::exit(EXIT_FAILURE);
    }
  }
}

/// The (cycle, src, dst) stream a model emits.
using Stream = std::vector<TraceRecord>;

/// Runs cycles [from, end) and appends what `model` emits. With `idle`,
/// each cycle is followed by a random number of draw_ahead calls with
/// random budgets and a random limit in (cycle, end], as a shard waiting
/// at the end-of-cycle barrier makes them. Returns the most cycles that
/// were drawn ahead at once.
Cycle drain(TrafficModel& model, Cycle from, Cycle end, Rng* idle,
            Stream& out) {
  Cycle most_ahead = 0;
  Injection inj;
  for (Cycle c = from; c < end; ++c) {
    model.begin_cycle(c);
    while (model.next(inj)) out.push_back({c, inj.src, inj.dst});
    if (idle == nullptr) continue;
    const std::uint64_t calls = idle->next_below(48);
    const Cycle limit = c + 1 + static_cast<Cycle>(idle->next_below(
                                    static_cast<std::uint64_t>(end - c)));
    for (std::uint64_t k = 0; k < calls; ++k) {
      (void)model.draw_ahead(
          1 + static_cast<std::int64_t>(idle->next_below(64)), limit);
    }
    most_ahead = std::max(most_ahead, model.cycles_ahead());
  }
  // Drawing ahead never reaches the end of a dispatch.
  assert(model.cycles_ahead() == 0);
  return most_ahead;
}

/// Drains a model through `specs` (reset_spec between them, 300 cycles
/// each) by begin_cycle/next alone and with random drawing ahead, from the
/// same seed, optionally restricted to [lo, hi). The streams must match.
void check_draw_ahead(const std::vector<TrafficParams>& specs, NodeId lo,
                      NodeId hi) {
  const TrafficTopologyInfo topo = info(9, 8);
  TrafficModel inline_model(specs.front(), topo, 1, 23);
  TrafficModel ahead_model(specs.front(), topo, 1, 23);
  if (hi - lo < topo.nodes) {
    inline_model.restrict_nodes(lo, hi);
    ahead_model.restrict_nodes(lo, hi);
  }
  // Before any begin_cycle there is no next cycle to draw.
  assert(!ahead_model.draw_ahead(64, 1000));
  Rng idle(5);
  Stream want;
  Stream got;
  Cycle now = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (i > 0) {
      inline_model.reset_spec(specs[i]);
      ahead_model.reset_spec(specs[i]);
    }
    const std::size_t before = want.size();
    drain(inline_model, now, now + 300, nullptr, want);
    const Cycle most_ahead = drain(ahead_model, now, now + 300, &idle, got);
    now += 300;
    // Each spec emits, and the ring runs more than one cycle ahead.
    if (want.size() == before || most_ahead < 2) {
      std::fprintf(stderr,
                   "draw-ahead check: spec %zu emitted %zu, drew %lld "
                   "cycles ahead\n",
                   i, want.size() - before, static_cast<long long>(most_ahead));
      std::exit(EXIT_FAILURE);
    }
  }
  bool same = want.size() == got.size();
  for (std::size_t i = 0; same && i < want.size(); ++i) {
    same = want[i].cycle == got[i].cycle && want[i].src == got[i].src &&
           want[i].dst == got[i].dst;
  }
  for (const TraceRecord& rec : want) {
    assert(rec.src >= lo && rec.src < hi);
  }
  if (!same) {
    std::fprintf(stderr,
                 "drawing ahead changed the stream over [%d, %d): %zu vs %zu "
                 "injections\n",
                 lo, hi, got.size(), want.size());
    std::exit(EXIT_FAILURE);
  }
}

}  // namespace

int main() {
  using namespace dfsim;

  // Permutation patterns are bijections — on the tiny dragonfly shape
  // (9 groups x 8 nodes, 72 non-square) and on an awkward 6 x 3 = 18.
  for (const TrafficKind kind :
       {TrafficKind::kShift, TrafficKind::kBitComplement,
        TrafficKind::kTranspose, TrafficKind::kTornado,
        TrafficKind::kGroupLocal}) {
    check_bijection(kind, info(9, 8));
    check_bijection(kind, info(6, 3));
    check_bijection(kind, info(4, 4));  // square, power of two
  }

  // Adversarial offsets are normalized at setup: +1, +1+G, and -(G-1) all
  // resolve to the same per-group destination base.
  {
    const TrafficTopologyInfo topo = info(9, 8);
    TrafficParams spec;
    spec.kind = TrafficKind::kAdversarial;
    for (const std::int32_t off : {1, 1 + 9, 1 - 9}) {
      spec.adv_offset = off;
      TrafficModel model(spec, topo, 1, 7);
      for (NodeId n = 0; n < topo.nodes; ++n) {
        const NodeId d = model.draw_dest(n);
        assert(d / 8 == ((n / 8) + 1) % 9);
      }
    }
  }

  // Hotspot: empirical destination frequencies match the configured skew.
  // With fraction f aimed at H hot nodes and the rest uniform, each hot
  // node's expected share is f/H + (1-f)/(N-1)-ish; we bound loosely
  // (chi-squared-style: every hot node within 20% of the hot mean, total
  // hot share within 4 sigma).
  {
    const TrafficTopologyInfo topo = info(9, 8);
    TrafficParams spec;
    spec.kind = TrafficKind::kHotspot;
    spec.hotspot_count = 4;
    spec.hotspot_fraction = 0.5;
    TrafficModel model(spec, topo, 1, 11);
    const int draws = 200000;
    std::vector<std::int64_t> count(static_cast<std::size_t>(topo.nodes), 0);
    for (int i = 0; i < draws; ++i) {
      ++count[static_cast<std::size_t>(
          model.draw_dest(static_cast<NodeId>(i % topo.nodes)))];
    }
    std::int64_t hot_total = 0;
    std::vector<std::int64_t> hot_counts;
    for (std::int32_t i = 0; i < 4; ++i) {
      const auto hot = static_cast<std::size_t>((i * topo.nodes) / 4);
      hot_counts.push_back(count[hot]);
      hot_total += count[hot];
    }
    const double p_hot = 0.5 + 0.5 * (4.0 - 1.0) / 71.0;  // skew + uniform spill
    const double expect = p_hot * draws;
    const double sigma = std::sqrt(draws * p_hot * (1.0 - p_hot));
    if (std::abs(static_cast<double>(hot_total) - expect) > 4.0 * sigma) {
      std::fprintf(stderr, "hotspot: hot share %lld expected %.0f +- %.0f\n",
                   static_cast<long long>(hot_total), expect, sigma);
      return EXIT_FAILURE;
    }
    for (const std::int64_t c : hot_counts) {
      assert(std::abs(static_cast<double>(c) - expect / 4.0) <
             0.2 * expect / 4.0);
    }
    // Non-hot nodes each get far less than a hot node.
    assert(count[1] * 5 < hot_counts[0]);
  }

  // Bursty injection: long-run rate matches the offered load, and the
  // process actually bursts (on-state rate well above the mean).
  {
    const TrafficTopologyInfo topo = info(8, 8);
    TrafficParams spec;
    spec.kind = TrafficKind::kUniform;
    spec.injection = InjectionProcess::kBursty;
    spec.load = 0.3;
    spec.burst_factor = 4.0;
    spec.burst_len = 40.0;
    TrafficModel model(spec, topo, 1, 13);
    const Cycle cycles = 40000;
    std::int64_t injected = 0;
    Injection inj;
    for (Cycle t = 0; t < cycles; ++t) {
      model.begin_cycle(t);
      while (model.next(inj)) ++injected;
    }
    const double rate = static_cast<double>(injected) /
                        (static_cast<double>(topo.nodes) *
                         static_cast<double>(cycles));
    if (std::abs(rate - 0.3) > 0.02) {
      std::fprintf(stderr, "bursty: long-run rate %.4f vs load 0.3\n", rate);
      return EXIT_FAILURE;
    }
    // Per-node interarrival clustering: with ON periods of ~40 cycles at
    // rate 1.2/cycle-of-load... simplest burstiness check: a single node's
    // injections over a window are far from evenly spaced. Count cycles in
    // which node 0 injects across 4000-cycle halves of ON/OFF mixtures by
    // re-running with draw_injects directly.
    TrafficModel m2(spec, topo, 1, 17);
    std::int64_t on_draws = 0;
    std::int64_t runs = 0;
    bool prev = false;
    for (Cycle t = 0; t < 20000; ++t) {
      const bool now = m2.draw_injects(0);
      if (now) ++on_draws;
      if (now && !prev) ++runs;
      prev = now;
    }
    // Bernoulli at 0.3 would give ~ on_draws * 0.7 runs; bursts give far
    // fewer runs per injection.
    assert(runs > 0);
    assert(static_cast<double>(runs) <
           0.6 * static_cast<double>(on_draws) * 0.7);
  }

  // Trace round-trip through the binary format.
  {
    const std::string path = "dfsim_test_trace_roundtrip.bin";
    std::vector<TraceRecord> records{{0, 1, 2}, {0, 3, 4}, {5, 0, 71}};
    write_trace(path, records);
    const std::vector<TraceRecord> back = read_trace(path);
    assert(back.size() == records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      assert(back[i].cycle == records[i].cycle);
      assert(back[i].src == records[i].src);
      assert(back[i].dst == records[i].dst);
    }
    // The magic stays DFTRACE1, so traffic traces recorded by earlier
    // builds still replay.
    std::ifstream raw(path, std::ios::binary);
    std::string magic(8, '\0');
    raw.read(magic.data(), 8);
    assert(magic == "DFTRACE1");
    std::remove(path.c_str());
  }

  // A packet-event trace (the other binary format) is rejected by name,
  // both by the replay reader and by the up-front validation.
  {
    const std::string path = "dfsim_test_packet_trace.bin";
    {
      std::ofstream out(path, std::ios::binary);
      telemetry::write_trace_binary({}, 0, out);
    }
    for (const bool validate_only : {false, true}) {
      std::string err;
      try {
        if (validate_only) {
          (void)validate_trace(path);
        } else {
          (void)read_trace(path);
        }
      } catch (const std::runtime_error& e) {
        err = e.what();
      }
      std::fprintf(stderr, "packet trace -> traffic reader: %s\n",
                   err.c_str());
      assert(err.find("DFPKTEV1") != std::string::npos);
      assert(err.find("DFTRACE1") != std::string::npos);
    }
    std::remove(path.c_str());
  }

  // Record -> replay reproduces a dragonfly run bit-exactly: the traffic
  // model owns its RNG, so the routing RNG stream is identical in both
  // runs once the injection stream is.
  {
    const std::string path = "dfsim_test_trace_replay.bin";
    SimParams params = presets::tiny();
    params.routing.kind = RoutingKind::kCbBase;
    params.traffic.kind = TrafficKind::kHotspot;
    params.traffic.hotspot_count = 3;
    params.traffic.load = 0.25;

    Simulator record_sim(params);
    record_sim.start_trace_recording();
    record_sim.run(1200);
    record_sim.write_recorded_trace(path);
    assert(!record_sim.traffic_model().recorded().empty());

    SimParams replay_params = params;
    replay_params.traffic.kind = TrafficKind::kTrace;
    replay_params.traffic.trace_path = path;
    Simulator replay_sim(replay_params);
    replay_sim.run(1200);

    const Simulator::Metrics& a = record_sim.metrics();
    const Simulator::Metrics& b = replay_sim.metrics();
    if (a.generated != b.generated || a.delivered != b.delivered ||
        a.latency_sum != b.latency_sum || a.misrouted != b.misrouted ||
        a.refused != b.refused) {
      std::fprintf(stderr,
                   "replay mismatch: gen %lld/%lld del %lld/%lld lat %f/%f\n",
                   static_cast<long long>(a.generated),
                   static_cast<long long>(b.generated),
                   static_cast<long long>(a.delivered),
                   static_cast<long long>(b.delivered), a.latency_sum,
                   b.latency_sum);
      return EXIT_FAILURE;
    }
    assert(a.delivered > 0);

    // Four shards replay the same trace, each model serving its own
    // sources and drawing ahead while it waits: every record is injected
    // exactly once, across a dispatch boundary too.
    SimParams sharded_params = replay_params;
    sharded_params.engine.threads = 4;
    Simulator sharded_sim(sharded_params);
    sharded_sim.run(500);
    sharded_sim.run(700);
    assert(sharded_sim.debug_check_active_state());
    if (sharded_sim.lifetime_totals().generated !=
        record_sim.lifetime_totals().generated) {
      std::fprintf(stderr, "sharded replay injected %lld of %lld records\n",
                   static_cast<long long>(
                       sharded_sim.lifetime_totals().generated),
                   static_cast<long long>(
                       record_sim.lifetime_totals().generated));
      return EXIT_FAILURE;
    }
    std::remove(path.c_str());
  }

  // Drawing ahead: UN, ADV+1, hotspot, a permutation at load 1 (every
  // source injects every cycle, the ring's worst case), bursty, and trace
  // replay (several records per source and cycle, one cycle with three
  // times as many records as nodes), swapped by reset_spec, over the full
  // range and a restrict_nodes range.
  {
    const std::string path = "dfsim_test_trace_ahead.bin";
    Rng rng(31);
    std::vector<TraceRecord> records;
    for (Cycle c = 0; c < 300; ++c) {
      const std::uint64_t count = c == 150 ? 216 : rng.next_below(6);
      for (std::uint64_t k = 0; k < count; ++k) {
        records.push_back({c, static_cast<NodeId>(rng.next_below(72)),
                           static_cast<NodeId>(rng.next_below(72))});
      }
    }
    write_trace(path, records);

    TrafficParams un;
    un.kind = TrafficKind::kUniform;
    un.load = 0.3;
    TrafficParams adv = un;
    adv.kind = TrafficKind::kAdversarial;
    adv.adv_offset = 1;
    adv.load = 0.5;
    TrafficParams hot = un;
    hot.kind = TrafficKind::kHotspot;
    hot.hotspot_count = 3;
    hot.hotspot_fraction = 0.4;
    TrafficParams perm = un;
    perm.kind = TrafficKind::kShift;
    perm.load = 1.0;
    TrafficParams bursty = un;
    bursty.injection = InjectionProcess::kBursty;
    bursty.burst_factor = 3.0;
    bursty.burst_len = 20.0;
    TrafficParams trace;
    trace.kind = TrafficKind::kTrace;
    trace.trace_path = path;
    const std::vector<TrafficParams> chain = {un,     adv,   hot, perm,
                                              bursty, trace, un};
    check_draw_ahead(chain, 0, 72);
    check_draw_ahead(chain, 17, 50);
    // A trace first: the ring is sized for its densest cycle at
    // construction.
    check_draw_ahead({trace, perm, trace}, 0, 72);
    std::remove(path.c_str());
  }

  // Histogram quantiles are sane on a known distribution.
  {
    LatencyHistogram hist;
    for (int i = 1; i <= 1000; ++i) hist.add(i);
    assert(hist.total() == 1000);
    const double p50 = hist.quantile(0.50);
    const double p99 = hist.quantile(0.99);
    assert(p50 > 250.0 && p50 < 1000.0);  // log2 buckets: factor-2 accuracy
    assert(p99 > p50);
    assert(p99 <= 1024.0);
  }

  return EXIT_SUCCESS;
}
