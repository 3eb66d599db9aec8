// Sharded-engine determinism suite (ROADMAP item 1).
//
// A sharded simulation must be a pure function of (params, seed,
// engine.threads) — never of thread scheduling. The cycle barrier applies
// cross-shard events in a fixed (source shard, FIFO) order, so no
// interleaving can leak into results.
//
// (1) Five repeated runs at the same shard count produce bit-identical
//     metrics, lifetime totals, and delivery logs — under deliberately
//     skewed worker start times (debug_set_shard_jitter staggers each
//     worker's dispatch by shard_index * jitter microseconds, the crudest
//     possible scheduling perturbation).
// (2) The full results pipeline is byte-stable: the same registry
//     experiment at the same shard count serializes to the identical
//     dfsim-results JSON document, run after run.
// (3) Different shard counts are DIFFERENT deterministic simulations
//     (documented: per-shard RNG streams, one-cycle cross-shard credit
//     return, snapshot staleness). Their documents differ — and both still
//     pass the paper-parity trend gates, because sharding changes draw
//     sequences, not physics.
// (4) Dispatch boundaries are invisible: run(N), N x step() and
//     run(k) + run(N - k) give byte-identical results, and the active-set
//     cross-check and conservation hold after every call. Outboxes are
//     double-buffered by cycle parity, so a boundary leaves one parity
//     pending and the other already merged; faults, mechanism-update
//     windows and snapshot probes each add barriers the boundary must keep
//     aligned.
// (5) The phase profiler is a per-shard wall-clock overlay: profiled runs
//     are byte-identical to unprofiled ones, count every cycle once, and
//     record barrier wait.
// (6) Sharded results are pinned across builds: the fault-onset ADV+1 run
//     at threads 2 and 4 under Hybrid, PB, ARN (throttled), VAL and OLM
//     hashes to committed values, as do two variants of it. Between them
//     these runs read every packet field a cross-shard link send carries
//     (VAL: the Valiant phase and its gateway port; OLM: local detours; a
//     low fault hop cap: hop counts; a uniform torus under Base: the
//     source, since torus transit decisions happen only at the source
//     router), so a layout change that drops or garbles one moves a hash.
//     The pins are taken under thread-start jitter.
// (7) Drawing traffic ahead in barrier slack moves no bit: a threads = 4
//     UN -> ADV+1 transient (set_traffic between run() calls) under
//     thread-start jitter matches the run without jitter byte for byte,
//     and no shard's traffic model holds a drawn-ahead cycle between
//     dispatches.
// (8) A birth-windowed delivery log filters without perturbing the run: at
//     threads 1 and 2, a UN -> ADV+1 twin logging only a transient's birth
//     window matches its full-log twin in every metric, and its log is the
//     full log filtered to the window, in the same order.
// (9) The transient drain stops once the logged window is empty: at
//     threads 1 and 2, drive_transient's log equals the log of the same rep
//     drained the full kTransientDrain, and it stopped earlier. A fault
//     onset at the switch that drops window-born packets keeps the log
//     short of the window's count, and that rep drains in full.
#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "engine/experiment.hpp"
#include "engine/simulator.hpp"
#include "report/json.hpp"
#include "report/parity.hpp"
#include "report/registry.hpp"
#include "sim/config.hpp"

namespace {

using namespace dfsim;

struct RunCapture {
  Simulator::Metrics metrics;
  Simulator::Totals totals;
  std::vector<Simulator::Delivery> deliveries;
  std::int64_t in_network = 0;
};

RunCapture capture(const Simulator& sim) {
  RunCapture cap;
  cap.metrics = sim.metrics();
  cap.totals = sim.lifetime_totals();
  cap.deliveries = sim.delivery_log();
  cap.in_network = sim.packets_in_network();
  return cap;
}

// Tiny ADV+1 with a fault onset inside run_once's measured window.
SimParams faulted_adv1() {
  SimParams p = presets::tiny();
  p.traffic.kind = TrafficKind::kAdversarial;
  p.traffic.load = 0.35;
  p.traffic.adv_offset = 1;
  p.fault.enabled = true;
  p.fault.onset = 500;
  p.fault.link_fail_fraction = 0.05;
  p.fault.link_class = "global";
  return p;
}

RunCapture run_once(std::int32_t threads, std::int32_t jitter_us,
                    RoutingKind kind = RoutingKind::kCbHybrid,
                    SimParams p = faulted_adv1()) {
  Simulator::debug_set_shard_jitter(jitter_us);
  p.routing.kind = kind;
  // ARN runs with the throttle, to exercise the refusal path too.
  if (kind == RoutingKind::kArn) p.notify.throttle_injection = true;
  p.seed = 4242;
  p.engine.threads = threads;
  Simulator sim(p);
  sim.enable_delivery_log();
  sim.run(300);
  sim.begin_measurement();
  sim.run(900);
  const RunCapture cap = capture(sim);
  Simulator::debug_set_shard_jitter(0);
  assert(sim.debug_check_active_state());
  return cap;
}

// ADV+1 at tiny scale with a fault onset inside the window; `kind` picks
// which extra barriers the cycles carry (ECtN: update windows; PB and ARN:
// snapshot probes, ARN with update windows and the injection throttle).
RunCapture run_dispatched(std::int32_t threads, RoutingKind kind,
                          const std::vector<Cycle>& calls,
                          bool profile = false) {
  SimParams p = presets::tiny();
  p.routing.kind = kind;
  if (kind == RoutingKind::kArn) p.notify.throttle_injection = true;
  p.traffic.kind = TrafficKind::kAdversarial;
  p.traffic.load = 0.35;
  p.traffic.adv_offset = 1;
  p.seed = 77;
  p.engine.threads = threads;
  p.fault.enabled = true;
  p.fault.onset = 61;
  p.fault.link_fail_fraction = 0.05;
  p.fault.link_class = "global";
  Simulator sim(p);
  sim.enable_delivery_log();
  if (profile) sim.enable_phase_profiler();
  Cycle cycles = 0;
  for (const Cycle n : calls) {
    cycles += n;
    if (n == 1) {
      sim.step();
    } else {
      sim.run(n);
    }
    if (!sim.debug_check_active_state() || sim.conservation_error() != 0) {
      std::fprintf(stderr, "invariant broken at cycle %lld (threads %d)\n",
                   static_cast<long long>(sim.now()), threads);
      std::exit(EXIT_FAILURE);
    }
  }
  if (profile) {
    const telemetry::PhaseProfiler& prof = sim.phase_profiler();
    if (prof.cycles() != cycles ||
        prof.nanoseconds(telemetry::Phase::kBarrier) <= 0) {
      std::fprintf(stderr, "profiler: %lld of %lld cycles, barrier %lld ns\n",
                   static_cast<long long>(prof.cycles()),
                   static_cast<long long>(cycles),
                   static_cast<long long>(
                       prof.nanoseconds(telemetry::Phase::kBarrier)));
      std::exit(EXIT_FAILURE);
    }
  }
  return capture(sim);
}

bool same_log(const std::vector<Simulator::Delivery>& a,
              const std::vector<Simulator::Delivery>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].birth != b[i].birth || a[i].latency != b[i].latency ||
        a[i].misrouted != b[i].misrouted ||
        a[i].minimal_path != b[i].minimal_path) {
      return false;
    }
  }
  return true;
}

bool identical(const RunCapture& a, const RunCapture& b) {
  if (a.metrics.delivered != b.metrics.delivered ||
      a.metrics.delivered_phits != b.metrics.delivered_phits ||
      a.metrics.latency_sum != b.metrics.latency_sum ||
      a.metrics.misrouted != b.metrics.misrouted ||
      a.metrics.local_misrouted != b.metrics.local_misrouted ||
      a.metrics.minimal_path != b.metrics.minimal_path ||
      a.metrics.generated != b.metrics.generated ||
      a.metrics.refused != b.metrics.refused ||
      a.metrics.dropped != b.metrics.dropped ||
      a.metrics.undeliverable != b.metrics.undeliverable ||
      a.metrics.dead_link_hops != b.metrics.dead_link_hops) {
    return false;
  }
  if (a.totals.generated != b.totals.generated ||
      a.totals.refused != b.totals.refused ||
      a.totals.delivered != b.totals.delivered ||
      a.totals.dropped != b.totals.dropped ||
      a.totals.undeliverable != b.totals.undeliverable) {
    return false;
  }
  return a.in_network == b.in_network && same_log(a.deliveries, b.deliveries);
}

// FNV-1a over every captured value in a fixed order: metrics (latency
// histogram included), lifetime totals, the in-network count and the
// delivery log.
std::uint64_t hash_capture(const RunCapture& c) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  const auto add_i = [&add](std::int64_t v) {
    add(static_cast<std::uint64_t>(v));
  };
  const Simulator::Metrics& m = c.metrics;
  for (const std::int64_t v :
       {m.delivered, m.delivered_phits, m.misrouted, m.local_misrouted,
        m.minimal_path, m.generated, m.refused, m.dropped, m.undeliverable,
        m.dead_link_hops}) {
    add_i(v);
  }
  add(std::bit_cast<std::uint64_t>(m.latency_sum));
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    add_i(m.latency_hist.bucket(b));
  }
  add_i(m.latency_hist.overflow());
  for (const std::int64_t v :
       {c.totals.generated, c.totals.refused, c.totals.delivered,
        c.totals.dropped, c.totals.undeliverable, c.in_network}) {
    add_i(v);
  }
  add(c.deliveries.size());
  for (const Simulator::Delivery& d : c.deliveries) {
    add_i(d.birth);
    add_i(d.latency);
    add((d.misrouted ? 1u : 0u) | (d.minimal_path ? 2u : 0u));
  }
  return h;
}

// Tiny UN at 0.3 switched to ADV+1 mid-window on four shards, as the
// transient experiments switch; the switch falls between dispatches.
RunCapture run_transient(std::int32_t jitter_us) {
  Simulator::debug_set_shard_jitter(jitter_us);
  SimParams p = presets::tiny();
  p.routing.kind = RoutingKind::kCbBase;
  p.traffic.kind = TrafficKind::kUniform;
  p.traffic.load = 0.3;
  p.seed = 99;
  p.engine.threads = 4;
  Simulator sim(p);
  sim.enable_delivery_log();
  sim.run(400);
  sim.begin_measurement();
  sim.run(150);
  assert(sim.debug_check_active_state());
  TrafficParams adv = p.traffic;
  adv.kind = TrafficKind::kAdversarial;
  adv.adv_offset = 1;
  sim.set_traffic(adv);
  sim.run(350);
  const RunCapture cap = capture(sim);
  Simulator::debug_set_shard_jitter(0);
  assert(sim.debug_check_active_state());
  return cap;
}

// Tiny UN at 0.2 switched to ADV+1 as run_transient switches it, the log
// opened at the end of warmup: over the transient's birth window when
// `window` is set, else for every delivery.
RunCapture run_switch(std::int32_t threads, const BirthWindow* window) {
  SimParams p = presets::tiny();
  p.routing.kind = RoutingKind::kCbBase;
  p.traffic.kind = TrafficKind::kUniform;
  p.traffic.load = 0.2;
  p.seed = 31;
  p.engine.threads = threads;
  Simulator sim(p);
  sim.run(400);
  if (window != nullptr) {
    sim.enable_delivery_log(window->lo, window->hi);
  } else {
    sim.enable_delivery_log();
  }
  sim.run(50);
  TrafficParams adv = p.traffic;
  adv.kind = TrafficKind::kAdversarial;
  adv.adv_offset = 1;
  sim.set_traffic(adv);
  sim.run(150 + 600);  // post, then a drain that outlives the window
  assert(sim.debug_check_active_state());
  return capture(sim);
}

// The rep drive_transient runs on `p`, drained the full kTransientDrain,
// with its log opened at the window's first birth as drive_transient opens
// it; `born` counts the packets accepted in the window.
struct FullDrain {
  std::vector<Simulator::Delivery> log;
  std::int64_t born = 0;
  Cycle end = 0;
};

FullDrain run_full_drain(const SimParams& p, const TransientOptions& o) {
  Simulator sim(p);
  const auto accepted = [&sim] {
    const Simulator::Totals& t = sim.lifetime_totals();
    return t.generated - t.refused;
  };
  sim.run(o.warmup - o.pre);
  const BirthWindow window = transient_birth_window(o.warmup, o.pre, o.post);
  sim.enable_delivery_log(window.lo, window.hi);
  const std::int64_t before = accepted();
  sim.run(2 * o.pre);
  sim.set_traffic(o.after);
  sim.run(o.post);
  FullDrain full;
  full.born = accepted() - before;
  sim.run(kTransientDrain);
  full.log = sim.delivery_log();
  full.end = sim.now();
  return full;
}

std::string run_doc(std::int32_t threads) {
  const report::ExperimentSpec* spec = report::find_experiment("fig5a");
  assert(spec != nullptr);
  report::RunContext ctx;
  ctx.scale = "tiny";
  ctx.base = presets::by_name(ctx.scale);
  ctx.base.engine.threads = threads;
  ctx.options.warmup = 300;
  ctx.options.measure = 500;
  ctx.loads = std::vector<double>{0.05, 0.9};
  report::ResultsDoc doc = report::run_experiment(*spec, ctx);
  doc.header.git_rev.clear();  // byte-compare must not depend on the tree
  return report::to_json(doc).dump();
}

}  // namespace

int main() {
  // --- (1) repeated sharded runs, thread-start jitter swept ---------------
  const RunCapture ref = run_once(3, 0);
  assert(ref.metrics.delivered > 0);
  assert(ref.metrics.dropped + ref.totals.dropped > 0);  // faults did fire
  const std::int32_t jitters_us[] = {0, 100, 400, 900, 2000};
  for (int run = 0; run < 5; ++run) {
    const RunCapture cap = run_once(3, jitters_us[run]);
    if (!identical(ref, cap)) {
      std::fprintf(stderr,
                   "run %d (jitter %d us) diverged: delivered %lld vs %lld, "
                   "latency_sum %.17g vs %.17g\n",
                   run, jitters_us[run],
                   static_cast<long long>(cap.metrics.delivered),
                   static_cast<long long>(ref.metrics.delivered),
                   cap.metrics.latency_sum, ref.metrics.latency_sum);
      return EXIT_FAILURE;
    }
  }

  // --- (1b) same sweep under ARN: every shard reads the notification
  // table other shards write, so the barrier fencing of the update window
  // is what keeps the runs identical under scheduling skew.
  const RunCapture arn_ref = run_once(3, 0, RoutingKind::kArn);
  assert(arn_ref.metrics.delivered > 0);
  for (const std::int32_t jitter : {400, 2000}) {
    const RunCapture cap = run_once(3, jitter, RoutingKind::kArn);
    if (!identical(arn_ref, cap)) {
      std::fprintf(stderr, "ARN run (jitter %d us) diverged\n", jitter);
      return EXIT_FAILURE;
    }
  }

  // --- (2) results documents are byte-identical across runs ---------------
  const std::string doc_t2 = run_doc(2);
  for (int run = 0; run < 2; ++run) {
    const std::string again = run_doc(2);
    if (again != doc_t2) {
      std::fprintf(stderr, "threads=2 results JSON not byte-stable\n");
      return EXIT_FAILURE;
    }
  }

  // --- (3) different shard counts: different documents, same physics ------
  const std::string doc_t4 = run_doc(4);
  if (doc_t4 == doc_t2) {
    // Not wrong physically, but it would mean the per-shard RNG streams
    // collapsed back into one — the documented contract says they differ.
    std::fprintf(stderr, "threads=2 and threads=4 produced identical JSON\n");
    return EXIT_FAILURE;
  }
  for (const std::string* dump : {&doc_t2, &doc_t4}) {
    const report::ResultsDoc doc =
        report::doc_from_json(report::Json::parse(*dump));
    const auto outcomes = report::check_trend_gates(doc);
    assert(!outcomes.empty());
    if (!report::all_passed(outcomes)) {
      for (const auto& o : outcomes) {
        std::fprintf(stderr, "gate %s: %s (%s)\n", o.gate.c_str(),
                     o.status == report::GateStatus::kFail ? "FAIL" : "ok",
                     o.detail.c_str());
      }
      return EXIT_FAILURE;
    }
  }

  // --- (4) dispatch boundaries: one run, per-cycle steps, a split run ----
  constexpr Cycle kCycles = 240;
  constexpr Cycle kSplit = 97;  // odd: the second dispatch starts on parity 1
  for (const std::int32_t threads : {2, 4}) {
    for (const RoutingKind kind :
         {RoutingKind::kCbEctn, RoutingKind::kPiggyback, RoutingKind::kArn}) {
      const RunCapture whole = run_dispatched(threads, kind, {kCycles});
      assert(whole.metrics.delivered > 0);
      assert(whole.totals.dropped > 0);  // the fault onset fell inside
      const std::vector<Cycle> steps(static_cast<std::size_t>(kCycles), 1);
      const RunCapture stepped = run_dispatched(threads, kind, steps);
      const RunCapture split =
          run_dispatched(threads, kind, {kSplit, kCycles - kSplit});
      if (!identical(whole, stepped) || !identical(whole, split)) {
        std::fprintf(stderr, "%s at threads %d depends on dispatch sizes\n",
                     to_string(kind).c_str(), threads);
        return EXIT_FAILURE;
      }
    }
  }

  // --- (5) profiling every shard changes no result -------------------------
  // ECtN with a fault onset crosses the fault, update-window and
  // end-of-cycle barriers; the split dispatch restarts the profiled loop.
  for (const std::int32_t threads : {2, 4}) {
    const RunCapture plain =
        run_dispatched(threads, RoutingKind::kCbEctn, {kCycles});
    const RunCapture profiled = run_dispatched(
        threads, RoutingKind::kCbEctn, {kSplit, kCycles - kSplit}, true);
    if (!identical(plain, profiled)) {
      std::fprintf(stderr, "profiling changed results at threads %d\n",
                   threads);
      return EXIT_FAILURE;
    }
  }

  // --- (6) pinned sharded results ----------------------------------------
  // Values recorded before packets carried their state across shards; any
  // layout change must reproduce them exactly.
  SimParams low_hop_cap = faulted_adv1();
  low_hop_cap.fault.hop_cap = 5;  // some Valiant paths retire undeliverable
  SimParams torus_un = presets::torus(8, 2, 2);
  torus_un.traffic.kind = TrafficKind::kUniform;
  torus_un.traffic.load = 0.4;
  struct Pin {
    RoutingKind kind;
    std::int32_t threads;
    std::uint64_t hash;
    const SimParams* base = nullptr;  // faulted_adv1() when null
  };
  const Pin pins[] = {
      {RoutingKind::kCbHybrid, 2, 0x1f2e57da008bb555ull},
      {RoutingKind::kCbHybrid, 4, 0xaf071727432b71c1ull},
      {RoutingKind::kPiggyback, 2, 0xc780a649fb7ed4c7ull},
      {RoutingKind::kPiggyback, 4, 0x29fedff3c80a7a7dull},
      {RoutingKind::kArn, 2, 0xfe059ca6419e7e31ull},
      {RoutingKind::kArn, 4, 0xe83f48adf8937277ull},
      {RoutingKind::kValiant, 2, 0xbe5b5653a0a97cdbull},
      {RoutingKind::kValiant, 4, 0xf16427ad2850db95ull},
      {RoutingKind::kOlm, 2, 0xa4aa33b423e313c0ull},
      {RoutingKind::kOlm, 4, 0x40a6acd83f841ceeull},
      {RoutingKind::kValiant, 2, 0x3eaab7a4d5a62812ull, &low_hop_cap},
      {RoutingKind::kValiant, 4, 0xa8ac7f56cd82c42full, &low_hop_cap},
      {RoutingKind::kCbBase, 2, 0x84996fa8368abe7aull, &torus_un},
      {RoutingKind::kCbBase, 4, 0x334f499069e7fa9eull, &torus_un},
  };
  bool pins_ok = true;
  for (const Pin& pin : pins) {
    constexpr std::int32_t kJitterUs = 150;
    const RunCapture cap =
        pin.base == nullptr
            ? run_once(pin.threads, kJitterUs, pin.kind)
            : run_once(pin.threads, kJitterUs, pin.kind, *pin.base);
    const std::uint64_t got = hash_capture(cap);
    if (got != pin.hash) {
      std::fprintf(stderr, "%s at threads %d (%s): hash 0x%016llxull, pinned "
                   "0x%016llxull\n",
                   to_string(pin.kind).c_str(), pin.threads,
                   pin.base == &torus_un      ? "torus UN"
                   : pin.base == &low_hop_cap ? "hop cap 5"
                                              : "ADV+1",
                   static_cast<unsigned long long>(got),
                   static_cast<unsigned long long>(pin.hash));
      pins_ok = false;
    }
  }
  if (!pins_ok) return EXIT_FAILURE;

  // --- (7) traffic drawn ahead under jitter: same bytes ------------------
  const RunCapture transient = run_transient(0);
  assert(transient.metrics.delivered > 0);
  for (const std::int32_t jitter : {300, 1500}) {
    const RunCapture cap = run_transient(jitter);
    if (!identical(transient, cap) ||
        hash_capture(cap) != hash_capture(transient)) {
      std::fprintf(stderr, "UN -> ADV+1 transient (jitter %d us) diverged\n",
                   jitter);
      return EXIT_FAILURE;
    }
  }

  // --- (8) a birth-windowed log filters, never perturbs ------------------
  const BirthWindow window = transient_birth_window(400, 50, 150);
  for (const std::int32_t threads : {1, 2}) {
    RunCapture full = run_switch(threads, nullptr);
    const RunCapture windowed = run_switch(threads, &window);
    const std::size_t logged_all = full.deliveries.size();
    std::erase_if(full.deliveries, [&window](const Simulator::Delivery& d) {
      return d.birth < window.lo || d.birth >= window.hi;
    });
    const bool in_window = std::all_of(
        windowed.deliveries.begin(), windowed.deliveries.end(),
        [&window](const Simulator::Delivery& d) {
          return d.birth >= window.lo && d.birth < window.hi;
        });
    if (!identical(full, windowed) || !in_window ||
        windowed.deliveries.empty() ||
        windowed.deliveries.size() >= logged_all) {
      std::fprintf(stderr,
                   "windowed log at threads %d: %zu records, full log %zu "
                   "(%zu in the window)\n",
                   threads, windowed.deliveries.size(), logged_all,
                   full.deliveries.size());
      return EXIT_FAILURE;
    }
  }

  // --- (9) the drain stops once the logged window is empty ---------------
  // Seed 3 at threads 1 puts the last two window-born deliveries in
  // different drain chunks, so a drain that stops one record short shows.
  for (const auto& [seed, threads] :
       {std::pair{31u, 1}, {31u, 2}, {3u, 1}, {3u, 2}}) {
    for (const bool fault : {false, true}) {
      TransientOptions o;
      o.before.kind = TrafficKind::kUniform;
      o.before.load = 0.3;
      o.after = o.before;
      if (!fault) {
        o.after.kind = TrafficKind::kAdversarial;
        o.after.adv_offset = 1;
      }
      o.warmup = 400;
      o.pre = 50;
      o.post = 150;
      SimParams p = presets::tiny();
      p.routing.kind = RoutingKind::kCbBase;
      p.seed = seed;
      p.engine.threads = threads;
      p.traffic = o.before;
      // A quarter of the global links die at the switch, with packets born
      // in the window in flight on them.
      if (fault) p = presets::with_link_faults(p, 0.25, "global", 450);
      const FullDrain full = run_full_drain(p, o);
      Simulator sim(p);
      const TransientRun run = drive_transient(sim, o);
      const auto logged = static_cast<std::int64_t>(full.log.size());
      // Without drops the drain stops at the first chunk end after the
      // cycle that delivered the last window-born packet (deliver() stamps
      // latency = now + pipeline + packet size - birth).
      const Cycle post_end = o.warmup + o.pre + o.post;
      Cycle last = post_end;
      for (const Simulator::Delivery& d : full.log) {
        last = std::max(last, d.birth + d.latency - p.router.pipeline_cycles -
                                  p.packet_size_phits + 1);
      }
      const Cycle stop = post_end + (last - post_end + kDrainChunk - 1) /
                                        kDrainChunk * kDrainChunk;
      const bool drain_ok = fault ? logged < full.born && sim.now() == full.end
                                  : logged == full.born && sim.now() == stop;
      if (run.timed_out || run.switch_cycle != o.warmup + o.pre ||
          !same_log(sim.delivery_log(), full.log) || !drain_ok) {
        std::fprintf(stderr,
                     "transient drain, seed %u at threads %d%s: stopped at "
                     "%lld (want %lld, full drain %lld), %zu records (full "
                     "drain %lld, born %lld)\n",
                     seed, threads, fault ? " with a fault onset" : "",
                     static_cast<long long>(sim.now()),
                     static_cast<long long>(fault ? full.end : stop),
                     static_cast<long long>(full.end),
                     sim.delivery_log().size(),
                     static_cast<long long>(logged),
                     static_cast<long long>(full.born));
        return EXIT_FAILURE;
      }
    }
  }

  return EXIT_SUCCESS;
}
