// dfsim_bench: the repository benchmark binary.
//
// One invocation runs one named workload in this process and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set (host time, memory and the
// modelled network's results); with --trace 1 they are the per-layer set,
// taken from spans this program records around its calls into each src/
// module. benchmark/README.md explains the workloads, the metrics and which
// layer metric should move which end-to-end metric.
//
// Usage (benchmark/run.py builds this binary and forwards its arguments):
//   dfsim_bench --workload NAME --seed N [--seconds S] [--trace 0|1]
//               [--smoke] [--trace-out FILE]

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/simulator.hpp"
#include "host.hpp"
#include "layer_probes.hpp"
#include "report/json.hpp"
#include "report/parity.hpp"
#include "report/registry.hpp"
#include "report/schema.hpp"
#include "sim/config.hpp"
#include "spans.hpp"
#include "telemetry/phase_profiler.hpp"

namespace dfsim::bench {

namespace {

using Clock = std::chrono::steady_clock;
using report::Json;

/// Run length the windows below are written for (BENCHMARK.json's
/// run_seconds). --seconds scales every measured window linearly from it.
constexpr double kReferenceSeconds = 20.0;
/// --smoke shrinks every measured window by this factor. Warmups keep their
/// length: the steady-state checks (no allocation after warmup) and the
/// trend gates' physics need a filled network.
constexpr double kSmokeShrink = 20.0;
constexpr std::int32_t kMinChunks = 10;
/// setup_s is the median of this many constructions (one construction of a
/// medium network on a warm heap takes ~1 ms).
constexpr int kSetupRepeats = 21;
/// The traced run's serial/profiled/sharded windows are this share of the
/// main window's chunks.
constexpr std::int32_t kTrioShrink = 4;
/// The reported tail is the highest percentile with this many chunks beyond.
constexpr std::size_t kTailBeyond = 10;
/// Worker threads of every sharded or swept run (the 4-core target host).
constexpr std::int32_t kThreads = 4;
constexpr Cycle kWarmupCycles = 1000;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads

/// An engine workload steps one Simulator as fast as the host allows
/// (closed loop on the host) while the modelled network sees Bernoulli
/// injection at `load` (open loop; refusals counted).
struct EngineWorkload {
  const char* name;
  SimParams (*preset)();
  TrafficKind traffic;
  double load;
  std::int32_t threads;  // engine.threads
  Cycle chunk;           // cycles per timed chunk
  std::int32_t chunks;   // chunks per measured window at kReferenceSeconds
};

// Why each workload exists is recorded in README.md; in short:
//  medium_un_t1      the serial hot loop every sweep point runs (13 MB
//                    working set, deliver + route/allocate dominate);
//  medium_adv_t4     every packet crosses groups and ~97% misroute: routing
//                    mechanism, route/allocate and cross-shard traffic;
//  medium_lowload_t4 ~8 us cycles where fixed per-cycle costs (barriers,
//                    O(nodes) injection draws, idle scans) dominate.
const EngineWorkload kEngineWorkloads[] = {
    {"medium_un_t1", presets::medium, TrafficKind::kUniform, 0.3, 1, 500, 800},
    {"medium_adv_t4", presets::medium, TrafficKind::kAdversarial, 0.3,
     kThreads, 1000, 400},
    {"medium_lowload_t4", presets::medium, TrafficKind::kUniform, 0.05,
     kThreads, 5000, 480},
};

/// registry_medium: the "reproduce a figure" path — these registry
/// experiments at medium scale, each followed by its trend gates and JSON
/// emission.
constexpr const char* kRegistryWorkload = "registry_medium";
const char* const kRegistryExperiments[] = {"fig5a", "fig5b", "fig7"};
/// Engine window the registry workload's traced run profiles (medium base
/// params, serial, as every sweep point runs).
constexpr Cycle kRegistryProbeChunk = 1000;
constexpr std::int32_t kRegistryProbeChunks = 20;

SimParams engine_params(const EngineWorkload& w, std::uint64_t seed) {
  SimParams p = w.preset();
  p.routing.kind = RoutingKind::kCbBase;
  p.traffic.kind = w.traffic;
  p.traffic.adv_offset = 1;
  p.traffic.load = w.load;
  p.engine.threads = w.threads;
  p.seed = seed;
  return p;
}

// ---------------------------------------------------------------------------
// Options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = kReferenceSeconds;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;

  /// Multiplier on measured windows.
  [[nodiscard]] double window_scale() const {
    return seconds / kReferenceSeconds / (smoke ? kSmokeShrink : 1.0);
  }
  /// The windows the committed digests and the trend gates are valid for.
  [[nodiscard]] bool default_windows() const { return window_scale() == 1.0; }
  [[nodiscard]] std::int32_t chunks(std::int32_t reference) const {
    return std::max(kMinChunks, static_cast<std::int32_t>(std::lround(
                                    reference * window_scale())));
  }
  [[nodiscard]] std::string run_id() const {
    return workload + "-seed" + std::to_string(seed);
  }
};

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (key != "--smoke") {
      if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
      value = argv[++i];
    }
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
      if (!(opt.seconds > 0.0)) {
        throw std::invalid_argument("--seconds must be positive");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      opt.trace = value == "1";
    } else if (key == "--smoke") {
      opt.smoke = true;
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (opt.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  if (opt.trace_out.empty()) {
    opt.trace_out = ".bench_build/traces/" + opt.run_id() + ".json";
  }
  return opt;
}

// ---------------------------------------------------------------------------
// Results

class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    entries_.push_back(Entry{name, value, unit});
  }

  void print(std::ostream& os) const {
    for (const Entry& e : entries_) {
      os << "metric " << e.name << ' ' << Json::number_to_string(e.value)
         << ' ' << e.unit << '\n';
    }
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + entries_[i].name + "\": {\"value\": " +
             Json::number_to_string(entries_[i].value) + ", \"unit\": \"" +
             entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Operations attempted and failed; each failure is reported on stderr.
struct Ops {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::cerr << "FAILED: " << what << '\n';
  }
};

/// The committed reference outputs (benchmark/reference.json, next to this
/// file; CMake passes its path): statistics digests per workload and seed,
/// valid for runs with the default windows, and the trend gates that
/// already FAIL at the benchmark's own commit (keyed
/// "<scale>/<experiment>/<gate>").
class Reference {
 public:
  explicit Reference(const Options& opt) : opt_(opt) {
    std::ifstream in(DFSIM_BENCH_REFERENCE);
    if (!in) {
      throw std::runtime_error(std::string("cannot read ") +
                               DFSIM_BENCH_REFERENCE);
    }
    std::stringstream text;
    text << in.rdbuf();
    doc_ = Json::parse(text.str());
  }

  /// Compares `digest` with the committed one; true when they match or no
  /// committed digest applies to this run.
  [[nodiscard]] bool digest_ok(const std::string& digest) const {
    std::string committed;
    if (opt_.default_windows()) {
      if (const Json* w = doc_.get("digests").find(opt_.workload)) {
        committed = w->get_string(std::to_string(opt_.seed));
      }
    }
    std::cout << "digest " << digest << " committed="
              << (committed.empty()           ? "none"
                  : committed == digest ? "match"
                                              : "MISMATCH:" + committed)
              << '\n';
    return committed.empty() || committed == digest;
  }

  [[nodiscard]] bool known_gate_failure(const std::string& key) const {
    for (const Json& item : doc_.get("known_gate_failures").items()) {
      if (item.as_string() == key) return true;
    }
    return false;
  }

 private:
  const Options& opt_;
  Json doc_;
};

// ---------------------------------------------------------------------------
// Engine measurement

/// setup_s: the median of kSetupRepeats constructions of `params`, after
/// one more that is not timed. It changes the allocator for the rest of the
/// process, so it runs only after every measured window: from here on
/// glibc serves every block up to its 32 MiB maximum from the heap and never
/// trims it, so each construction reuses the pages the one before it freed
/// and times the constructor's own work. (With the default, dynamic mmap
/// threshold, the first ~10 constructions of a process fault in fresh pages
/// and later ones do not, and page-fault cost differed by up to 40% between
/// processes on the reference host.) The first construction of a fresh
/// process, page faults included, is engine.ctor_s.
double measure_setup(const SimParams& params, SpanRecorder& rec) {
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::vector<double> times;
  for (int i = 0; i <= kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    {
      const auto scope = rec.scope("engine.construct");
      const Simulator sim(params);
    }
    if (i > 0) times.push_back(seconds_since(t0));
  }
  return median(times);
}

/// A measured window of one simulator, filled chunk by chunk (step_window).
struct Window {
  std::int64_t alloc0 = 0;  // allocation events when the window began
  std::vector<double> chunk_s;
  Cycle cycles = 0;
  double in_network_sum = 0.0;    // packets per router, summed over chunk ends
  std::int64_t alloc_events = 0;  // since the window began

  explicit Window(const Simulator& sim) : alloc0(sim.allocation_events()) {}

  /// Cycles of one chunk over the median chunk time (every chunk of a
  /// window has the same length), so a few chunks slowed by a burst of host
  /// load do not move it; the window's total time is wall_s.
  [[nodiscard]] double cycles_per_s() const {
    if (chunk_s.empty()) return 0.0;
    return static_cast<double>(cycles) /
           static_cast<double>(chunk_s.size()) / median(chunk_s);
  }
  [[nodiscard]] double in_network_per_router() const {
    return chunk_s.empty() ? 0.0
                           : in_network_sum / static_cast<double>(chunk_s.size());
  }
};

/// One timed sim.run(chunk) call. After it (untimed) the chunk is checked:
/// exact packet conservation, no dead-link hops, no allocation since the
/// window began, and progress (a chunk with packets in the network must
/// deliver some).
void step_window(Simulator& sim, Cycle chunk, const char* span, Window& w,
                 SpanRecorder& rec, Ops& ops) {
  const std::int64_t delivered0 = sim.lifetime_totals().delivered;
  const Clock::time_point t0 = Clock::now();
  {
    const auto scope = rec.scope(span);
    sim.run(chunk);
  }
  w.chunk_s.push_back(seconds_since(t0));
  w.cycles += chunk;

  const auto scope = rec.scope("engine.check");
  const std::int64_t in_network = sim.packets_in_network();
  w.in_network_sum += static_cast<double>(in_network) /
                      static_cast<double>(sim.topology().routers());
  const std::int64_t conservation = sim.conservation_error();
  const std::int64_t dead_hops = sim.metrics().dead_link_hops;
  w.alloc_events = sim.allocation_events() - w.alloc0;
  const bool progress =
      sim.lifetime_totals().delivered > delivered0 || in_network == 0;
  ops.check(conservation == 0 && dead_hops == 0 && w.alloc_events == 0 &&
                progress,
            std::string(span) + " chunk " + std::to_string(w.chunk_s.size()) +
                " at cycle " + std::to_string(sim.now()) +
                ": conservation_error=" + std::to_string(conservation) +
                " dead_link_hops=" + std::to_string(dead_hops) +
                " alloc_events=" + std::to_string(w.alloc_events) +
                " progress=" + (progress ? "yes" : "no"));
}

/// A simulator past its warmup; measurement starts after.
struct Started {
  std::unique_ptr<Simulator> sim;
  double ctor_s = 0.0;
  double bytes_per_router = 0.0;  // RSS growth across the construction
  double warmup_s = 0.0;
};

Started start_engine(const SimParams& params, SpanRecorder& rec) {
  Started out;
  const std::int64_t rss0 = current_rss_bytes();
  Clock::time_point t0 = Clock::now();
  {
    const auto scope = rec.scope("engine.construct");
    out.sim = std::make_unique<Simulator>(params);
  }
  out.ctor_s = seconds_since(t0);
  out.bytes_per_router = static_cast<double>(current_rss_bytes() - rss0) /
                         static_cast<double>(out.sim->topology().routers());
  t0 = Clock::now();
  {
    const auto scope = rec.scope("engine.warmup");
    out.sim->run(kWarmupCycles);
  }
  out.warmup_s = seconds_since(t0);
  out.sim->begin_measurement();
  return out;
}

struct EngineRun {
  Started engine;
  Window window;
  double window_wall_s = 0.0;
  Simulator::Metrics metrics;  // at the window's end
};

EngineRun run_engine(const SimParams& params, Cycle chunk, std::int32_t chunks,
                     SpanRecorder& rec, Ops& ops) {
  Started engine = start_engine(params, rec);
  Simulator& sim = *engine.sim;
  Window window(sim);
  const Clock::time_point start = Clock::now();
  for (std::int32_t c = 0; c < chunks; ++c) {
    step_window(sim, chunk, "engine.run", window, rec, ops);
  }
  const double wall_s = seconds_since(start);
  Simulator::Metrics metrics = sim.metrics();
  return EngineRun{std::move(engine), std::move(window), wall_s,
                   std::move(metrics)};
}

/// Simulated-statistics digest of a measured window: a perf-only change
/// must leave it bit-identical.
std::string engine_digest(const Simulator::Metrics& m) {
  std::ostringstream os;
  os << m.delivered << ' ' << std::hexfloat << m.latency_sum
     << std::defaultfloat << ' ' << m.misrouted << ' ' << m.refused;
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    os << ' ' << m.latency_hist.bucket(b);
  }
  os << ' ' << m.latency_hist.overflow();
  return report::fnv1a_hex(os.str());
}

void print_chunk_diagnostics(const Window& w) {
  const TailPoint tail = tail_with_samples_beyond(w.chunk_s, kTailBeyond);
  std::cout << "diag chunk_ms_p50 "
            << Json::number_to_string(1e3 * median(w.chunk_s)) << " ms\n"
            << "diag chunk_ms_p" << Json::number_to_string(tail.percentile)
            << ' ' << Json::number_to_string(1e3 * tail.value) << " ms ("
            << kTailBeyond << " samples beyond, " << w.chunk_s.size()
            << " samples)\n";
}

// ---------------------------------------------------------------------------
// Registry measurement

/// Results of kRegistryExperiments, filled one experiment at a time
/// (add_experiment).
struct RegistryPass {
  std::vector<double> experiment_s;  // per kRegistryExperiments entry
  double run_s = 0.0;                // sum of experiment_s
  double gates_s = 0.0;
  double emit_s = 0.0;
  double wall_s = 0.0;  // experiments with their gates and emission
  std::int64_t cycles = 0;
  std::int64_t points = 0;  // grid cells plus transient series
  std::int64_t grid_cells = 0;
  std::string docs_text;  // every emitted document
  // Sums over every fig5a/fig5b grid cell.
  double throughput_sum = 0.0;
  double latency_sum = 0.0;
  double latency_p99_sum = 0.0;

  [[nodiscard]] std::string digest() const {
    return report::fnv1a_hex(docs_text);
  }
  [[nodiscard]] double cell_mean(double sum) const {
    return sum / static_cast<double>(std::max<std::int64_t>(1, grid_cells));
  }
};

report::RunContext registry_context(const std::string& scale,
                                    std::uint64_t seed, const Options& opt) {
  report::RunContext ctx;
  ctx.scale = scale;
  ctx.base = presets::by_name(scale);
  ctx.base.seed = seed;
  // dfsim_run's per-scale default windows.
  const bool tiny = scale == "tiny";
  ctx.options.warmup = tiny ? 1000 : 2000;
  ctx.options.measure = tiny ? 2000 : 3000;
  if (opt.smoke) ctx.reps = 1;
  ctx.options.measure = static_cast<Cycle>(std::lround(
      static_cast<double>(ctx.options.measure) * opt.window_scale()));
  ctx.threads = kThreads;
  return ctx;
}

/// Runs one registry experiment, its trend gates and its emission into
/// `pass`. A trend gate FAIL is a failed operation unless the reference
/// lists it as failing already, or the windows are not the default ones
/// (gate thresholds assume those).
void add_experiment(const char* name, report::RunContext ctx,
                    const Reference& ref, bool default_windows,
                    SpanRecorder& rec,
                    Ops& ops, RegistryPass& pass) {
  const report::ExperimentSpec* spec = report::find_experiment(name);
  if (spec == nullptr) {
    throw std::runtime_error(std::string("no experiment ") + name);
  }
  // Simulated cycles, counted through the public progress heartbeat: each
  // call reports the current cycle of the simulation the calling sweep
  // thread runs, and a value not above that thread's previous one means a
  // new simulation started there.
  const auto cycles = std::make_shared<std::atomic<std::int64_t>>(0);
  ctx.options.heartbeat = [cycles](Cycle now, std::int64_t, double) {
    thread_local Cycle last = std::numeric_limits<Cycle>::max();
    *cycles += now > last ? now - last : now;
    last = now;
  };
  const Clock::time_point start = Clock::now();
  report::ResultsDoc doc;
  {
    const auto scope = rec.scope("report.run_experiment");
    doc = report::run_experiment(*spec, ctx);
  }
  pass.experiment_s.push_back(seconds_since(start));
  pass.run_s += pass.experiment_s.back();
  pass.cycles += cycles->load();

  Clock::time_point t0 = Clock::now();
  std::vector<report::GateOutcome> gates;
  {
    const auto scope = rec.scope("report.check_trend_gates");
    gates = report::check_trend_gates(doc);
  }
  pass.gates_s += seconds_since(t0);
  for (const report::GateOutcome& g : gates) {
    const std::string key = ctx.scale + "/" + g.experiment + "/" + g.gate;
    const bool fail = g.status == report::GateStatus::kFail;
    if (fail && (!default_windows || ref.known_gate_failure(key))) {
      std::cout << "diag gate " << key << " FAIL, not counted ("
                << (default_windows ? "listed in the reference"
                                    : "not the default windows")
                << ")\n";
      continue;
    }
    ops.check(!fail, "gate " + key + ": " + g.detail);
  }

  t0 = Clock::now();
  {
    const auto scope = rec.scope("report.emit");
    pass.docs_text += report::to_json(doc).dump();
  }
  pass.emit_s += seconds_since(t0);

  for (const report::Panel& panel : doc.panels) {
    if (panel.kind == report::Panel::Kind::kTransient) {
      const auto& latency = *panel.metric("latency_avg");
      for (std::size_t si = 0; si < panel.series.size(); ++si) {
        bool delivered = true;
        for (const auto& row : latency) delivered &= row[si] > 0.0;
        ++pass.points;
        ops.check(delivered, std::string(name) + " " + panel.series[si] +
                                 ": a sampled interval delivered nothing");
      }
      continue;
    }
    if (panel.kind != report::Panel::Kind::kGrid) continue;
    for (std::size_t xi = 0; xi < panel.x_labels.size(); ++xi) {
      for (std::size_t si = 0; si < panel.series.size(); ++si) {
        const auto cell = [&](const char* metric) {
          return (*panel.metric(metric))[xi][si];
        };
        ++pass.points;
        ++pass.grid_cells;
        ops.check(cell("conservation_error") == 0.0 &&
                      cell("dead_traversals") == 0.0 &&
                      cell("timed_out") == 0.0,
                  std::string(name) + " " + panel.series[si] + "@" +
                      panel.x_labels[xi] +
                      ": conservation/dead-link/watchdog failure");
        pass.throughput_sum += cell("throughput");
        pass.latency_sum += cell("latency_avg");
        pass.latency_p99_sum += cell("latency_p99");
      }
    }
  }
  pass.wall_s += seconds_since(start);
}

/// Every registry experiment into `pass`. With `traced`, each experiment
/// first runs into `pass` with the recorder paused and then again, recorded,
/// into `*traced`: the two passes alternate, so host drift hits both alike.
void run_registry(const report::RunContext& ctx, const Reference& ref,
                  bool default_windows, SpanRecorder& rec, Ops& ops,
                  RegistryPass& pass,
                  RegistryPass* traced = nullptr) {
  for (const char* name : kRegistryExperiments) {
    rec.set_paused(traced != nullptr);
    add_experiment(name, ctx, ref, default_windows, rec, ops, pass);
    rec.set_paused(false);
    if (traced != nullptr) {
      add_experiment(name, ctx, ref, default_windows, rec, ops, *traced);
    }
  }
}

// ---------------------------------------------------------------------------
// Traced-run layer metrics

/// Rates of a serial, a phase-profiled serial and a sharded simulator of
/// one workload over windows of equal length (run_trio).
struct Trio {
  double serial_cps = 0.0;
  double profiled_cps = 0.0;
  double sharded_cps = 0.0;
  std::int64_t alloc_events = 0;  // after warmup, summed over the three
  telemetry::PhaseProfiler phases;
};

/// The phase profiler only works serially, and engine.shard_speedup needs a
/// serial and a sharded rate of the same window. So three simulators with
/// the workload's params — serial, serial with the phase profiler, and
/// sharded (kThreads) — each warm up, then take one chunk each in turn for
/// `chunks` rounds: host drift during the rounds hits the three rates alike.
Trio run_trio(const SimParams& params, Cycle chunk, std::int32_t chunks,
              SpanRecorder& rec, Ops& ops) {
  SimParams serial = params;
  serial.engine.threads = 1;
  SimParams sharded = params;
  sharded.engine.threads = kThreads;
  const std::unique_ptr<Simulator> sims[] = {start_engine(serial, rec).sim,
                                             start_engine(serial, rec).sim,
                                             start_engine(sharded, rec).sim};
  sims[1]->enable_phase_profiler();
  const char* const spans[] = {"engine.run", "engine.run_profiled",
                               "engine.run"};
  std::vector<Window> windows;
  for (const auto& sim : sims) windows.emplace_back(*sim);
  for (std::int32_t c = 0; c < chunks; ++c) {
    for (std::size_t i = 0; i < windows.size(); ++i) {
      step_window(*sims[i], chunk, spans[i], windows[i], rec, ops);
    }
  }
  Trio out;
  out.serial_cps = windows[0].cycles_per_s();
  out.profiled_cps = windows[1].cycles_per_s();
  out.sharded_cps = windows[2].cycles_per_s();
  for (const Window& w : windows) out.alloc_events += w.alloc_events;
  out.phases = sims[1]->phase_profiler();
  return out;
}

/// engine.*, router.*, routing.*, topo.* and traffic.* for one engine run.
/// Returns the tracing overhead: the phase-profiled serial rate against the
/// unprofiled one, in percent.
double add_engine_layers(MetricSet& ms, const SimParams& params,
                         EngineRun& main, Cycle chunk,
                         SpanRecorder& rec, Ops& ops) {
  const Window& w = main.window;
  const Simulator::Metrics& m = main.metrics;
  const double delivered = static_cast<double>(std::max<std::int64_t>(1, m.delivered));

  std::vector<double> metrics_us;
  {
    const auto scope = rec.scope("engine.metrics");
    for (int i = 0; i < 64; ++i) {
      const Clock::time_point t0 = Clock::now();
      (void)main.engine.sim->metrics();
      metrics_us.push_back(1e6 * seconds_since(t0));
    }
  }

  const Trio trio = run_trio(
      params, chunk,
      std::max<std::int32_t>(
          kMinChunks, static_cast<std::int32_t>(w.chunk_s.size()) / kTrioShrink),
      rec, ops);
  const TailPoint tail = tail_with_samples_beyond(w.chunk_s, kTailBeyond);

  ms.add("engine.ctor_s", main.engine.ctor_s, "s");
  ms.add("engine.bytes_per_router", main.engine.bytes_per_router, "B");
  ms.add("engine.warmup_s", main.engine.warmup_s, "s");
  ms.add("engine.chunk_ms_p50", 1e3 * median(w.chunk_s), "ms");
  ms.add("engine.chunk_ms_tail", 1e3 * tail.value, "ms");
  ms.add("engine.chunk_samples", static_cast<double>(w.chunk_s.size()),
         "count");
  using telemetry::Phase;
  const telemetry::PhaseProfiler& prof = trio.phases;
  const double cycles = static_cast<double>(std::max<std::int64_t>(1, prof.cycles()));
  const double total = std::max(1e-12, prof.total_seconds());
  const double other = prof.seconds(Phase::kFaults) +
                       prof.seconds(Phase::kEctn) +
                       prof.seconds(Phase::kTelemetry);
  const std::pair<const char*, double> phases[] = {
      {"deliver", prof.seconds(Phase::kDeliver)},
      {"route", prof.seconds(Phase::kRoute)},
      {"inject", prof.seconds(Phase::kInject)},
      {"other", other}};
  for (const auto& [phase, s] : phases) {
    ms.add(std::string("engine.phase.") + phase + "_share", 100.0 * s / total,
           "%");
  }
  for (const auto& [phase, s] : phases) {
    ms.add(std::string("engine.phase.") + phase + "_us_per_cycle",
           1e6 * s / cycles, "us");
  }
  ms.add("engine.shard_speedup", trio.sharded_cps / trio.serial_cps, "x");
  ms.add("engine.delivered_per_cycle",
         static_cast<double>(m.delivered) / static_cast<double>(w.cycles),
         "packets/cycle");
  ms.add("engine.in_network_per_router", w.in_network_per_router(), "packets");
  ms.add("engine.refused_pct",
         100.0 * static_cast<double>(m.refused) /
             static_cast<double>(std::max<std::int64_t>(1, m.generated)),
         "%");
  ms.add("engine.alloc_events_after_warmup",
         static_cast<double>(w.alloc_events + trio.alloc_events), "count");
  ms.add("engine.metrics_call_us", median(metrics_us), "us");

  const ReplayInputs in{params, main.engine.sim->topology(),
                        w.in_network_per_router(), params.seed};
  const AllocatorReplay alloc = replay_allocator(in, rec);
  ms.add("router.alloc_ns_per_request", alloc.ns_per_request, "ns");
  ms.add("router.grant_ratio", alloc.grant_ratio, "ratio");
  ms.add("routing.decide_injection_ns", replay_routing_decide_ns(in, rec),
         "ns");
  ms.add("routing.misrouted_pct",
         100.0 * static_cast<double>(m.misrouted) / delivered, "%");
  ms.add("routing.minimal_path_pct",
         100.0 * static_cast<double>(m.minimal_path) / delivered, "%");
  const TopologyReplay topo = replay_topology(in, rec);
  ms.add("topo.minimal_output_ns", topo.minimal_output_ns, "ns");
  ms.add("topo.sample_nonmin_ns", topo.sample_nonmin_ns, "ns");
  const TrafficReplay traffic = replay_traffic(in, rec);
  ms.add("traffic.ns_per_node_cycle", traffic.ns_per_node_cycle, "ns");
  ms.add("traffic.injections_per_cycle", traffic.injections_per_cycle,
         "injections/cycle");
  return 100.0 * (trio.serial_cps - trio.profiled_cps) / trio.serial_cps;
}

void add_report_layers(MetricSet& ms, const RegistryPass& pass) {
  for (std::size_t i = 0; i < pass.experiment_s.size(); ++i) {
    ms.add(std::string("report.experiment_s.") + kRegistryExperiments[i],
           pass.experiment_s[i], "s");
  }
  ms.add("report.points", static_cast<double>(pass.points), "count");
  ms.add("report.s_per_point",
         pass.run_s / static_cast<double>(std::max<std::int64_t>(1, pass.points)),
         "s");
  ms.add("report.gates_ms", 1e3 * pass.gates_s, "ms");
  ms.add("report.emit_ms", 1e3 * pass.emit_s, "ms");
}

// ---------------------------------------------------------------------------
// Workload runners

void run_engine_workload(const EngineWorkload& wl, const Options& opt,
                         const Reference& ref, SpanRecorder& rec, Ops& ops,
                         MetricSet& ms) {
  const SimParams params = engine_params(wl, opt.seed);
  const std::int32_t chunks = opt.chunks(wl.chunks);
  std::cout << "window warmup=" << kWarmupCycles << " chunk=" << wl.chunk
            << " chunks=" << chunks << " threads=" << wl.threads << '\n';

  EngineRun main = run_engine(params, wl.chunk, chunks, rec, ops);
  const Simulator::Metrics& m = main.metrics;
  const bool digest_ok = ref.digest_ok(engine_digest(m));
  ops.check(digest_ok && m.delivered > 0 &&
                m.latency_hist.total() == m.delivered,
            "window statistics (digest, delivered, histogram total)");
  print_chunk_diagnostics(main.window);

  if (!opt.trace) {
    ms.add("cycles_per_s", main.window.cycles_per_s(), "cycles/s");
    ms.add("wall_s", main.engine.warmup_s + main.window_wall_s, "s");
    ms.add("peak_rss_mb", peak_rss_mib(), "MiB");
    ms.add("accepted_load", main.engine.sim->throughput(), "phits/node/cycle");
    ms.add("latency_mean_cycles", m.mean_latency(), "cycles");
    ms.add("latency_p99_cycles", m.latency_hist.quantile(0.99), "cycles");
    main.engine.sim.reset();
    ms.add("setup_s", measure_setup(params, rec), "s");
    return;
  }
  const double overhead = add_engine_layers(ms, params, main, wl.chunk, rec, ops);
  main.engine.sim.reset();
  // The report layer is not on this workload's path; its metrics come from
  // the same experiments at tiny scale (predicted flat here).
  RegistryPass tiny;
  run_registry(registry_context("tiny", opt.seed, opt), ref,
               opt.default_windows(), rec, ops, tiny);
  add_report_layers(ms, tiny);
  ms.add("trace_overhead_pct", overhead, "%");
}

void run_registry_workload(const Options& opt, const Reference& ref,
                           SpanRecorder& rec, Ops& ops, MetricSet& ms) {
  const report::RunContext ctx = registry_context("medium", opt.seed, opt);
  std::cout << "window warmup=" << ctx.options.warmup
            << " measure=" << ctx.options.measure
            << " sweep_threads=" << ctx.threads << '\n';

  // The end-to-end numbers always come from an untraced pass; a traced run
  // adds a recorded pass, experiment by experiment alternating with it.
  RegistryPass pass;
  RegistryPass traced;
  run_registry(ctx, ref, opt.default_windows(), rec, ops, pass,
               opt.trace ? &traced : nullptr);
  ops.check(ref.digest_ok(pass.digest()), "registry documents digest");
  std::cout << "diag points " << pass.points << "\ndiag simulated_cycles "
            << pass.cycles << '\n';

  if (!opt.trace) {
    ms.add("cycles_per_s", static_cast<double>(pass.cycles) / pass.run_s,
           "cycles/s");
    ms.add("wall_s", pass.wall_s, "s");
    ms.add("peak_rss_mb", peak_rss_mib(), "MiB");
    ms.add("accepted_load", pass.cell_mean(pass.throughput_sum),
           "phits/node/cycle");
    ms.add("latency_mean_cycles", pass.cell_mean(pass.latency_sum), "cycles");
    ms.add("latency_p99_cycles", pass.cell_mean(pass.latency_p99_sum),
           "cycles");
    ms.add("setup_s", measure_setup(ctx.base, rec), "s");
    return;
  }
  ops.check(traced.digest() == pass.digest(),
            "traced pass reproduces the digest");

  // Engine-side layers on the registry's own base params: one serial run,
  // as every sweep point is (predicted flat for deliver-side changes).
  EngineRun probe = run_engine(ctx.base, kRegistryProbeChunk,
                               opt.chunks(kRegistryProbeChunks), rec, ops);
  add_engine_layers(ms, ctx.base, probe, kRegistryProbeChunk, rec, ops);
  probe.engine.sim.reset();
  add_report_layers(ms, traced);
  ms.add("trace_overhead_pct", 100.0 * (traced.wall_s - pass.wall_s) / pass.wall_s,
         "%");
}

void write_trace(const Options& opt, const SpanRecorder& rec) {
  const std::filesystem::path path(opt.trace_out);
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path);
  rec.write_chrome_trace(out, opt.run_id());
  out.close();
  if (!out) throw std::runtime_error("cannot write " + opt.trace_out);
  std::cout << "trace " << opt.trace_out << " (" << rec.spans().size()
            << " spans)\n";
  for (const auto& [layer, seconds] : rec.layer_self_seconds()) {
    std::cout << "self_s " << layer << ' ' << Json::number_to_string(seconds)
              << '\n';
  }
}

int run(const Options& opt) {
  const HostFingerprint fp = host_fingerprint(opt.seed);
  std::cout << "fingerprint " << fp.json() << '\n'
            << "run workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0)
            << (opt.smoke ? " smoke" : "") << '\n';

  const Reference ref(opt);
  SpanRecorder rec(opt.trace);
  Ops ops;
  MetricSet ms;
  {
    const auto root = rec.scope("bench." + opt.workload);
    const EngineWorkload* engine = nullptr;
    for (const EngineWorkload& wl : kEngineWorkloads) {
      if (opt.workload == wl.name) engine = &wl;
    }
    if (engine != nullptr) {
      run_engine_workload(*engine, opt, ref, rec, ops, ms);
    } else if (opt.workload == kRegistryWorkload) {
      run_registry_workload(opt, ref, rec, ops, ms);
    } else {
      throw std::invalid_argument(
          "unknown workload '" + opt.workload +
          "' (medium_un_t1, medium_adv_t4, medium_lowload_t4, registry_medium)");
    }
  }
  if (opt.trace) {
    ms.add("ops_failed_pct",
           100.0 * static_cast<double>(ops.failed) /
               static_cast<double>(std::max<std::int64_t>(1, ops.attempted)),
           "%");
    write_trace(opt, rec);
  }

  ms.print(std::cout);
  std::cout << "{\"correct\": " << (ops.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << ops.attempted
            << ", \"failed\": " << ops.failed << ", \"metrics\": " << ms.json()
            << "}" << std::endl;
  return 0;
}

}  // namespace

}  // namespace dfsim::bench

int main(int argc, char** argv) {
  try {
    return dfsim::bench::run(dfsim::bench::parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "dfsim_bench: " << e.what() << '\n';
    return 2;
  }
}
