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
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

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

RunCapture run_once(std::int32_t threads, std::int32_t jitter_us,
                    RoutingKind kind = RoutingKind::kCbHybrid) {
  Simulator::debug_set_shard_jitter(jitter_us);
  SimParams p = presets::tiny();
  p.routing.kind = kind;
  // ARN runs with the throttle, to exercise the refusal path too.
  if (kind == RoutingKind::kArn) p.notify.throttle_injection = true;
  p.traffic.kind = TrafficKind::kAdversarial;
  p.traffic.load = 0.35;
  p.traffic.adv_offset = 1;
  p.seed = 4242;
  p.engine.threads = threads;
  p.fault.enabled = true;
  p.fault.onset = 500;
  p.fault.link_fail_fraction = 0.05;
  p.fault.link_class = "global";
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
  if (a.in_network != b.in_network) return false;
  if (a.deliveries.size() != b.deliveries.size()) return false;
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    if (a.deliveries[i].birth != b.deliveries[i].birth ||
        a.deliveries[i].latency != b.deliveries[i].latency ||
        a.deliveries[i].misrouted != b.deliveries[i].misrouted ||
        a.deliveries[i].minimal_path != b.deliveries[i].minimal_path) {
      return false;
    }
  }
  return true;
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

  return EXIT_SUCCESS;
}
