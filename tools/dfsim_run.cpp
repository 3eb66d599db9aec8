// dfsim_run — the single CLI over the experiment registry.
//
//   dfsim_run list [--markdown]
//   dfsim_run run [--experiments=all|a,b,..] [--scale=..] [--out=DIR] ...
//   dfsim_run check --in=DIR [--goldens=DIR] [--rel-tol --abs-tol]
//   dfsim_run render --in=DIR [--out=RESULTS.md] [--goldens=DIR]
//   dfsim_run gate [--experiments=..] --goldens=DIR [--scale=tiny] ...
//   dfsim_run observe [--scale=tiny] [--out=DIR] [--name=congestion] ...
//   dfsim_run perf [--scales=tiny,medium] [--loads=0.05,0.3] [--out=F]
//
// `run` executes registered experiments through the parallel sweep engine
// and emits schema-versioned JSON (+ long-format CSV) per experiment;
// `check` evaluates the paper-parity trend gates and the tolerance-banded
// golden comparison over emitted documents; `render` generates RESULTS.md;
// `gate` is run+check in one process (the ctest parity target); `observe`
// is one instrumented run (spatial telemetry + packet tracing); `perf`
// times raw engine throughput (cycles/sec) per scale x load x shard count
// (--engine-threads=1,2,8), optionally split by phase (--phases), and
// prints or writes that one measurement. Perf records and regression
// checks live in benchmark/ (see benchmark/README.md).
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string_view>

#include "report/parity.hpp"
#include "report/registry.hpp"
#include "report/render.hpp"
#include "sim/config_io.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/packet_trace.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace dfsim;
using namespace dfsim::report;

int usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: dfsim_run <command> [flags]\n"
      "  list    [--markdown]                      list registered experiments\n"
      "  run     [--experiments=all|a,b] [--scale=tiny|small|medium|paper]\n"
      "          [--out=DIR] [--csv] [--quiet] [--strip-rev] [--progress]\n"
      "          [--warmup=N --measure=N --reps=N --threads=N]\n"
      "          [--loads=0.1,0.2] [--routings=MIN,Base,..]\n"
      "          [--config=file.ini] [--set=key=v;key2=v2]\n"
      "  check   --in=DIR [--goldens=DIR] [--rel-tol=R --abs-tol=A]\n"
      "  render  --in=DIR [--out=RESULTS.md] [--goldens=DIR]\n"
      "  gate    [--experiments=..] --goldens=DIR [run flags]\n"
      "  observe [--scale=tiny|..] [--out=DIR] [--name=congestion]\n"
      "          [--warmup=N --measure=N] [--strip-rev] [--config=F --set=..]\n"
      "  perf    [--scales=tiny,medium] [--loads=0.05,0.3] [--cycles=N]\n"
      "          [--warmup=N] [--engine-threads=1,2,8] [--phases] [--out=F]\n"
      "          [--set=key=v;..] (applied to each scale's preset)\n"
      "Settings are config keys (docs/CONFIG.md), set with --set/--config.\n";
  return 2;
}

// The flags each command reads: reject_unknown turns any other --key into
// exit 2 naming it, so a mistyped flag never runs with its default.
using Flags = std::vector<std::string_view>;

Flags flags(std::initializer_list<Flags> groups) {
  Flags all;
  for (const Flags& group : groups) {
    all.insert(all.end(), group.begin(), group.end());
  }
  return all;
}

/// make_context: scale, parameters and windows.
const Flags kContextFlags = {"scale", "config", "set", "warmup", "measure"};
/// make_context's sweep shape: loads x line-up, repetitions, pool threads.
const Flags kSweepFlags = {"loads", "routings", "reps", "threads"};
/// run_selected: which experiments, and what it prints and writes.
const Flags kSelectFlags = {"experiments", "out",       "csv",
                            "quiet",       "strip-rev", "progress"};
/// evaluate_gates: the golden comparison.
const Flags kGoldenFlags = {"goldens", "rel-tol", "abs-tol"};

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> items;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

std::vector<const ExperimentSpec*> select_experiments(const CliOptions& cli) {
  std::string names = cli.get("experiments", "all");
  // Positional names work too: `dfsim_run run fig5a fig5b`.
  if (!cli.has("experiments") && cli.positional().size() > 1) {
    names.clear();
    for (std::size_t i = 1; i < cli.positional().size(); ++i) {
      if (!names.empty()) names += ',';
      names += cli.positional()[i];
    }
  }
  std::vector<const ExperimentSpec*> specs;
  if (names == "all") {
    for (const ExperimentSpec& spec : experiment_registry()) {
      specs.push_back(&spec);
    }
    return specs;
  }
  for (const std::string& name : split_csv(names)) {
    const ExperimentSpec* spec = find_experiment(name);
    if (!spec) {
      throw std::invalid_argument(
          "unknown experiment '" + name + "' (see dfsim_run list)");
    }
    specs.push_back(spec);
  }
  if (specs.empty()) throw std::invalid_argument("no experiments selected");
  return specs;
}

/// Per-scale measurement defaults; tiny's are also the golden settings the
/// committed tests/goldens were produced with.
void default_cycles(const std::string& scale, Cycle& warmup, Cycle& measure) {
  if (scale == "tiny") {
    warmup = 1000;
    measure = 2000;
  } else if (scale == "paper") {
    warmup = 5000;
    measure = 15000;
  } else {
    warmup = 2000;
    measure = 3000;
  }
}

/// `--set=routing.pb_ugal_threshold=5;topo.a=8`: ';'-separated key=value
/// assignments through the config_io keyspace.
std::vector<std::pair<std::string, std::string>> set_assignments(
    const CliOptions& cli) {
  std::vector<std::pair<std::string, std::string>> assignments;
  std::stringstream ss(cli.get("set", ""));
  std::string assignment;
  while (std::getline(ss, assignment, ';')) {
    const std::size_t eq = assignment.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("--set expects key=value, got '" +
                                  assignment + "'");
    }
    assignments.emplace_back(assignment.substr(0, eq),
                             assignment.substr(eq + 1));
  }
  return assignments;
}

/// The number `--key` (or `fallback`); a value below `least` ends the run
/// naming the flag.
template <typename T>
T flag_at_least(const CliOptions& cli, const std::string& key, T fallback,
                T least) {
  const T value = cli.get_number<T>(key, fallback);
  if (value >= least) return value;
  throw std::invalid_argument("--" + key + " must be >= " +
                              std::to_string(least) + ", got " +
                              std::to_string(value));
}

RunContext make_context(const CliOptions& cli) {
  RunContext ctx;
  ctx.scale = cli.get("scale", CliOptions::env("DFSIM_SCALE", "medium"));
  ctx.base = presets::by_name(ctx.scale);
  // --config first, then --set: a later assignment of a key wins.
  if (cli.has("config")) {
    for (const auto& [key, value] : read_params(cli.get("config"))) {
      ctx.assign(key, value);
    }
  }
  for (const auto& [key, value] : set_assignments(cli)) ctx.assign(key, value);

  // Numeric flags parse whole and fit their field, as config values do; the
  // DFSIM_* fallbacks stay lenient.
  default_cycles(ctx.scale, ctx.options.warmup, ctx.options.measure);
  ctx.options.warmup = flag_at_least<Cycle>(
      cli, "warmup",
      CliOptions::env_int("DFSIM_WARMUP", ctx.options.warmup), 0);
  ctx.options.measure = flag_at_least<Cycle>(
      cli, "measure",
      CliOptions::env_int("DFSIM_MEASURE", ctx.options.measure), 1);
  if (cli.has("reps")) {
    ctx.options.reps = flag_at_least<std::int32_t>(cli, "reps", 1, 1);
    ctx.reps = ctx.options.reps;
  }
  ctx.threads = flag_at_least(cli, "threads", 0, 0);

  if (cli.has("loads")) {
    std::vector<double> loads;
    for (const std::string& item : split_csv(cli.get("loads"))) {
      loads.push_back(parse_number<double>(item, "--loads"));
    }
    if (!loads.empty()) ctx.loads = std::move(loads);
  }
  if (cli.has("routings")) {
    std::vector<RoutingKind> lineup;
    for (const std::string& item : split_csv(cli.get("routings"))) {
      lineup.push_back(routing_kind_from_string(item));
    }
    if (!lineup.empty()) ctx.lineup = std::move(lineup);
  }
  // One check before any experiment runs: the base at every --loads entry.
  for (const double load : ctx.loads_or({ctx.base.traffic.load})) {
    SimParams params = ctx.base;
    params.traffic.load = load;
    validate(params);
  }
  return ctx;
}

/// Crash-safe emission: a killed or crashing run must never leave a
/// truncated JSON/CSV/RESULTS.md behind for `check`/`render` to trip over.
void write_file(const std::filesystem::path& path, const std::string& text) {
  write_file_atomic(path.string(), text);
}

ResultsDoc load_doc(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::stringstream buffer;
  buffer << in.rdbuf();
  return doc_from_json(Json::parse(buffer.str()));
}

/// Every registry experiment with a document in `dir`, in registry order.
std::vector<ResultsDoc> load_docs(const std::filesystem::path& dir) {
  std::vector<ResultsDoc> docs;
  for (const ExperimentSpec& spec : experiment_registry()) {
    const std::filesystem::path path = dir / (std::string(spec.name) + ".json");
    if (std::filesystem::exists(path)) docs.push_back(load_doc(path));
  }
  if (docs.empty()) {
    throw std::runtime_error("no results documents under " + dir.string());
  }
  return docs;
}

std::vector<GateOutcome> evaluate_gates(const std::vector<ResultsDoc>& docs,
                                        const std::string& goldens_dir,
                                        double rel_tol, double abs_tol) {
  std::vector<GateOutcome> gates;
  for (const ResultsDoc& doc : docs) {
    for (GateOutcome& g : check_trend_gates(doc)) {
      gates.push_back(std::move(g));
    }
    if (goldens_dir.empty()) continue;
    const std::filesystem::path golden_path =
        std::filesystem::path(goldens_dir) /
        (doc.header.experiment + ".json");
    if (!std::filesystem::exists(golden_path)) continue;
    for (GateOutcome& g : check_against_golden(doc, load_doc(golden_path),
                                               rel_tol, abs_tol)) {
      gates.push_back(std::move(g));
    }
  }
  return gates;
}

int print_gates(const std::vector<GateOutcome>& gates) {
  ResultTable table({"experiment", "gate", "status", "detail"});
  for (const GateOutcome& g : gates) {
    table.begin_row();
    table.set("experiment", g.experiment);
    table.set("gate", g.gate);
    table.set("status", to_string(g.status));
    table.set("detail", g.detail);
  }
  std::cout << "== paper-parity gates ==\n";
  table.write_pretty(std::cout);
  if (!all_passed(gates)) {
    std::cout << "\nPARITY GATES FAILED\n";
    return 1;
  }
  std::cout << "\nall parity gates passed\n";
  return 0;
}

std::vector<ResultsDoc> run_selected(const CliOptions& cli) {
  const std::vector<const ExperimentSpec*> specs = select_experiments(cli);
  const bool quiet = cli.has("quiet");
  const bool strip_rev = cli.has("strip-rev");
  const std::string git_rev = strip_rev ? std::string{} : current_git_rev();
  const std::string out_dir = cli.get("out", "");
  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
  }
  // One context for all experiments: --config/--set are parsed and
  // validated once; run_experiment copies it per experiment.
  const RunContext ctx = make_context(cli);
  const bool progress = cli.has("progress");
  std::vector<ResultsDoc> docs;
  for (const ExperimentSpec* spec : specs) {
    if (!quiet) {
      std::cerr << "running " << spec->name << " ...\n";
    }
    RunContext run_ctx = ctx;
    if (progress) {
      // One structured line per watchdog chunk. Sweeps run the points on a
      // thread pool, so the line is assembled first and written under a
      // lock — interleaved heartbeats stay line-atomic.
      static std::mutex progress_mutex;
      const std::string name = spec->name;
      run_ctx.options.heartbeat = [name](Cycle cycle, std::int64_t delivered,
                                         double elapsed) {
        std::ostringstream line;
        line << "progress experiment=" << name << " cycle=" << cycle
             << " delivered=" << delivered << " elapsed="
             << format_fixed(elapsed, 2) << "s\n";
        const std::scoped_lock lock(progress_mutex);
        std::cerr << line.str();
      };
    }
    ResultsDoc doc = run_experiment(*spec, run_ctx);
    doc.header.git_rev = git_rev;
    if (!out_dir.empty()) {
      const std::filesystem::path base =
          std::filesystem::path(out_dir) / spec->name;
      write_file(base.string() + ".json", to_json(doc).dump());
      std::ostringstream csv;
      write_csv(doc, csv);
      write_file(base.string() + ".csv", csv.str());
    }
    if (!quiet) print_doc(doc, cli.has("csv"), std::cout);
    docs.push_back(std::move(doc));
  }
  return docs;
}

int cmd_list(const CliOptions& cli) {
  cli.reject_unknown(Flags{"markdown"});
  if (cli.has("markdown")) {
    std::cout << "| experiment | paper ref | topology | what it reproduces "
                 "|\n|---|---|---|---|\n";
    for (const ExperimentSpec& spec : experiment_registry()) {
      std::cout << "| `" << spec.name << "` | " << spec.paper_ref << " | "
                << spec.topology << " | " << spec.title << " |\n";
    }
    return 0;
  }
  ResultTable table({"experiment", "paper_ref", "topology", "title"});
  for (const ExperimentSpec& spec : experiment_registry()) {
    table.begin_row();
    table.set("experiment", spec.name);
    table.set("paper_ref", spec.paper_ref);
    table.set("topology", spec.topology);
    table.set("title", spec.title);
  }
  table.write_pretty(std::cout);
  return 0;
}

int cmd_run(const CliOptions& cli) {
  cli.reject_unknown(flags({kContextFlags, kSweepFlags, kSelectFlags}));
  run_selected(cli);
  return 0;
}

int cmd_check(const CliOptions& cli) {
  cli.reject_unknown(flags({kGoldenFlags, {"in"}}));
  if (!cli.has("in")) return usage("check needs --in=DIR");
  const std::vector<ResultsDoc> docs = load_docs(cli.get("in"));
  const std::vector<GateOutcome> gates =
      evaluate_gates(docs, cli.get("goldens", ""),
                     cli.get_number("rel-tol", 0.05),
                     cli.get_number("abs-tol", 0.05));
  return print_gates(gates);
}

int cmd_render(const CliOptions& cli) {
  cli.reject_unknown(flags({kGoldenFlags, {"in", "out"}}));
  if (!cli.has("in")) return usage("render needs --in=DIR");
  const std::vector<ResultsDoc> docs = load_docs(cli.get("in"));
  const std::vector<GateOutcome> gates =
      evaluate_gates(docs, cli.get("goldens", ""),
                     cli.get_number("rel-tol", 0.05),
                     cli.get_number("abs-tol", 0.05));
  const std::string out = cli.get("out", "RESULTS.md");
  write_file(out, render_markdown(docs, gates));
  std::cout << "wrote " << out << " (" << docs.size() << " experiments, "
            << gates.size() << " gates)\n";
  return all_passed(gates) ? 0 : 1;
}

int cmd_gate(const CliOptions& cli) {
  cli.reject_unknown(
      flags({kContextFlags, kSweepFlags, kSelectFlags, kGoldenFlags}));
  if (!cli.has("goldens")) return usage("gate needs --goldens=DIR");
  const std::vector<ResultsDoc> docs = run_selected(cli);
  const std::vector<GateOutcome> gates =
      evaluate_gates(docs, cli.get("goldens"),
                     cli.get_number("rel-tol", 0.05),
                     cli.get_number("abs-tol", 0.05));
  return print_gates(gates);
}

// ---------------------------------------------------------------------------
// observe: one instrumented run with spatial telemetry + packet tracing
// forced on, emitting the heatmap document (JSON + long CSV), the Chrome
// trace-event JSON (load in Perfetto / chrome://tracing), and the compact
// binary trace. Every artifact is round-trip-validated before it is written:
// a file that exists is a file the readers can parse.

int cmd_observe(const CliOptions& cli) {
  cli.reject_unknown(flags({kContextFlags, {"out", "name", "strip-rev"}}));
  const RunContext ctx = make_context(cli);
  SimParams p = ctx.base;
  p.telemetry.enabled = true;
  p.trace.enabled = true;

  Simulator sim(p);
  sim.run(ctx.options.warmup);
  sim.begin_measurement();
  sim.run(ctx.options.measure);

  const std::string out_dir = cli.get("out", "observe");
  std::filesystem::create_directories(out_dir);
  const std::string name = cli.get("name", "congestion");
  const std::filesystem::path base = std::filesystem::path(out_dir) / name;

  // Heatmap document: validated by parsing the emitted JSON back through
  // the schema reader.
  ResultsDoc doc = telemetry::build_heatmap_doc(sim, name, ctx.scale);
  doc.header.warmup = ctx.options.warmup;
  if (cli.has("strip-rev")) doc.header.git_rev.clear();
  const std::string json_text = to_json(doc).dump();
  (void)doc_from_json(Json::parse(json_text));  // throws on schema breakage
  write_file(base.string() + "_heatmap.json", json_text);
  std::ostringstream csv;
  write_csv(doc, csv);
  write_file(base.string() + "_heatmap.csv", csv.str());

  // Traces: binary round-trip and Chrome-JSON parse checked in-memory
  // before the files land.
  const telemetry::PacketTracer& tracer = sim.packet_tracer();
  std::ostringstream bin;
  telemetry::write_trace_binary(tracer.events(), tracer.dropped_events(), bin);
  {
    std::istringstream check(bin.str());
    std::vector<telemetry::TraceEvent> decoded;
    std::int64_t dropped = 0;
    telemetry::read_trace_binary(check, decoded, dropped);  // throws
    if (decoded.size() != tracer.events().size()) {
      throw std::runtime_error("observe: binary trace failed round-trip");
    }
  }
  write_file(base.string() + "_trace.bin", bin.str());
  std::ostringstream chrome;
  telemetry::write_chrome_trace(tracer.events(), chrome);
  (void)Json::parse(chrome.str());  // throws when not well-formed JSON
  write_file(base.string() + "_trace.json", chrome.str());

  const telemetry::TelemetrySink& sink = sim.telemetry_sink();
  std::cerr << "observe: " << sink.frames() << " frames ("
            << sink.dropped_frames() << " dropped), "
            << tracer.events().size() << " trace events from "
            << tracer.sampled_packets() << " sampled packets ("
            << tracer.dropped_events() << " dropped)\n"
            << "wrote " << base.string() << "_heatmap.{json,csv} and "
            << base.string() << "_trace.{json,bin}\n";
  return 0;
}

// ---------------------------------------------------------------------------
// perf: raw engine stepping throughput, one sample per point.

/// Wall-clock cycles for one timed point, sized so every point finishes in
/// well under a second on the scan-free engine while still averaging over
/// enough cycles that per-cycle noise washes out.
Cycle default_perf_cycles(const std::string& scale) {
  if (scale == "tiny") return 60000;
  if (scale == "small") return 20000;
  if (scale == "medium") return 8000;
  if (scale == "exa") return 200;  // ~100k routers: every cycle is costly
  return 600;  // paper
}

int cmd_perf(const CliOptions& cli) {
  cli.reject_unknown(Flags{"scales", "loads", "set", "cycles", "warmup",
                           "engine-threads", "phases", "out"});
  const std::vector<std::string> scales =
      split_csv(cli.get("scales", "tiny,medium"));
  // The --set assignments on top of a scale's preset.
  const auto assignments = set_assignments(cli);
  const auto configured = [&assignments](SimParams p) {
    for (const auto& [key, value] : assignments) apply_param(p, key, value);
    return p;
  };
  std::vector<double> loads;
  for (const std::string& item : split_csv(cli.get("loads", "0.05,0.3"))) {
    loads.push_back(parse_number<double>(item, "--loads"));
  }
  const Cycle warmup = flag_at_least<Cycle>(cli, "warmup", 500, 0);
  // --engine-threads=1,2,8 measures the same points at several shard
  // counts (engine.threads); points are tagged with their shard count.
  std::vector<std::int32_t> thread_counts;
  for (const std::string& item :
       split_csv(cli.get("engine-threads", "1"))) {
    thread_counts.push_back(
        parse_number<std::int32_t>(item, "--engine-threads"));
  }
  // --phases folds the engine's per-phase wall-time accounting (summed over
  // shards, barrier wait included) into each point. The profiler's clock
  // reads add overhead, so phase-profiled cycles/sec are not comparable
  // with unprofiled ones; the document flags them.
  const bool phases = cli.has("phases");

  Json points = Json::array();
  for (const std::string& scale : scales) {
    for (const double load : loads) {
      for (const std::int32_t threads : thread_counts) {
      SimParams p = configured(presets::by_name(scale));
      p.traffic.load = load;
      p.engine.threads = threads;
      const Cycle cycles =
          flag_at_least(cli, "cycles", default_perf_cycles(scale), Cycle{1});

      Simulator sim(p);
      if (phases) sim.enable_phase_profiler();
      sim.run(warmup);
      sim.begin_measurement();
      if (phases) sim.enable_phase_profiler();  // reset: measure window only
      const auto t0 = std::chrono::steady_clock::now();
      sim.run(cycles);
      const auto t1 = std::chrono::steady_clock::now();
      const double seconds =
          std::chrono::duration<double>(t1 - t0).count();
      const double cps =
          seconds > 0.0 ? static_cast<double>(cycles) / seconds : 0.0;

      Json pt = Json::object();
      pt.set("scale", scale);
      pt.set("nodes", p.nodes());
      pt.set("load", load);
      if (threads != 1) {
        pt.set("engine_threads", static_cast<std::int64_t>(threads));
      }
      pt.set("cycles", static_cast<std::int64_t>(cycles));
      pt.set("seconds", seconds);
      pt.set("cycles_per_sec", cps);
      pt.set("delivered", sim.metrics().delivered);
      std::cerr << "perf " << scale << " load=" << load;
      if (threads != 1) std::cerr << " threads=" << threads;
      std::cerr << ": " << static_cast<std::int64_t>(cps)
                << " cycles/sec (" << cycles << " cycles, "
                << sim.metrics().delivered << " delivered)\n";
      if (phases) {
        const telemetry::PhaseProfiler& prof = sim.phase_profiler();
        Json breakdown = Json::object();
        for (std::int32_t ph = 0; ph < telemetry::kPhaseCount; ++ph) {
          const auto phase = static_cast<telemetry::Phase>(ph);
          const double s = prof.seconds(phase);
          breakdown.set(telemetry::to_string(phase), s);
          std::cerr << "  phase " << telemetry::to_string(phase) << ": "
                    << format_fixed(s * 1e3, 2) << " ms ("
                    << format_fixed(prof.total_seconds() > 0.0
                                        ? 100.0 * s / prof.total_seconds()
                                        : 0.0,
                                    1)
                    << "%)\n";
        }
        pt.set("phase_seconds", std::move(breakdown));
        if (sim.shard_count() > 1) {
          // Per shard: the traffic draws (inline and drawn ahead in the
          // barrier's slack), the barrier wait left over, and how many
          // cycles the shard reached the end-of-cycle barrier last.
          Json shards = Json::array();
          for (std::int32_t i = 0; i < sim.shard_count(); ++i) {
            const telemetry::PhaseProfiler& sp = sim.shard_phase_profiler(i);
            const auto us_per_cycle = [&](telemetry::Phase phase) {
              return sp.cycles() > 0 ? 1e6 * sp.seconds(phase) /
                                           static_cast<double>(sp.cycles())
                                     : 0.0;
            };
            const double inject = us_per_cycle(telemetry::Phase::kInject);
            const double barrier = us_per_cycle(telemetry::Phase::kBarrier);
            std::cerr << "  shard " << i << ": inject "
                      << format_fixed(inject, 2) << " us/cycle, barrier "
                      << format_fixed(barrier, 2) << " us/cycle, last "
                      << sp.last_arrivals() << " of " << sp.cycles()
                      << " cycles\n";
            Json shard = Json::object();
            shard.set("inject_us_per_cycle", inject);
            shard.set("barrier_us_per_cycle", barrier);
            shard.set("last_arrivals", sp.last_arrivals());
            shards.push_back(std::move(shard));
          }
          pt.set("shards", std::move(shards));
        }
      }
      points.push_back(std::move(pt));
      }
    }
  }

  Json doc = Json::object();
  doc.set("schema", "dfsim-bench-engine/v1");
  // No preset sets a mechanism or a pattern: --set alone chooses them.
  const SimParams shown = configured(SimParams{});
  doc.set("routing", to_string(shown.routing.kind));
  doc.set("traffic", to_string(shown.traffic.kind));
  doc.set("warmup", static_cast<std::int64_t>(warmup));
  doc.set("points", points);
  if (phases) doc.set("phase_profiled", true);

  if (cli.has("out")) {
    write_file(cli.get("out"), doc.dump());
    std::cerr << "wrote " << cli.get("out") << "\n";
  } else {
    std::cout << doc.dump();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli(argc, argv);
  if (cli.positional().empty()) return usage();
  const std::string command = cli.positional().front();
  try {
    if (command == "list") return cmd_list(cli);
    if (command == "run") return cmd_run(cli);
    if (command == "check") return cmd_check(cli);
    if (command == "render") return cmd_render(cli);
    if (command == "gate") return cmd_gate(cli);
    if (command == "observe") return cmd_observe(cli);
    if (command == "perf") return cmd_perf(cli);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return usage("unknown command '" + command + "'");
}
