// Report-layer unit tests: JSON canonical round-trip (emit -> parse ->
// re-emit byte-identical), schema document round-trip, config-hash
// stability and sensitivity, and a parity-gate self-test where a
// deliberately corrupted golden must fail while the pristine one passes.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "report/json.hpp"
#include "report/parity.hpp"
#include "report/registry.hpp"
#include "report/render.hpp"
#include "report/runner.hpp"
#include "report/schema.hpp"
#include "sim/config_io.hpp"

using namespace dfsim;
using namespace dfsim::report;

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------

void test_json_roundtrip() {
  Json root = Json::object();
  root.set("string", Json("hi \"there\"\nline2\ttab"));
  root.set("bool_t", Json(true));
  root.set("bool_f", Json(false));
  root.set("null", Json());
  root.set("int", Json(42.0));
  root.set("neg", Json(-17.0));
  root.set("zero", Json(0.0));
  root.set("neg_zero", Json(-0.0));
  Json numbers = Json::array();
  // Awkward doubles: non-terminating binary fractions, tiny/huge exponents,
  // values needing all 17 digits.
  for (const double v : {0.1, 1.0 / 3.0, 2.5e-17, 6.02214076e23, 123.456,
                         0.30000000000000004, 1e-300, -3.5}) {
    numbers.push_back(Json(v));
  }
  root.set("numbers", std::move(numbers));
  Json nested = Json::array();
  Json row = Json::array();
  row.push_back(Json(1.0));
  row.push_back(Json());
  nested.push_back(std::move(row));
  root.set("nested", std::move(nested));

  const std::string once = root.dump();
  const std::string twice = Json::parse(once).dump();
  assert(once == twice && "emit -> parse -> re-emit must be byte-identical");
  const std::string thrice = Json::parse(twice).dump();
  assert(twice == thrice);

  // Parsed values survive exactly.
  const Json back = Json::parse(once);
  assert(back.get("numbers").at(0).as_number() == 0.1);
  assert(back.get("numbers").at(1).as_number() == 1.0 / 3.0);
  assert(back.get("string").as_string() == "hi \"there\"\nline2\ttab");
  assert(back.get("null").is_null());
  assert(back.get("neg_zero").as_number() == 0.0);

  // Non-finite numbers serialize as null (missing data).
  assert(Json::number_to_string(kNaN) == "null");

  // Parse errors throw instead of corrupting.
  bool threw = false;
  try {
    (void)Json::parse("{\"unterminated\": ");
  } catch (const std::exception&) {
    threw = true;
  }
  assert(threw);
  std::cout << "json roundtrip ok\n";
}

ResultsDoc make_test_doc() {
  ResultsDoc doc;
  doc.header.experiment = "fig5b";
  doc.header.title = "test doc";
  doc.header.paper_ref = "Fig. 5b";
  doc.header.topology = "dragonfly";
  doc.header.scale = "tiny";
  doc.header.nodes = 72;
  doc.header.config_hash = config_hash(presets::tiny());
  doc.header.git_rev = "";
  doc.header.seed = 1;
  doc.header.warmup = 1000;
  doc.header.measure = 2000;
  doc.header.reps = 1;

  Panel panel;
  panel.name = "ADV+1";
  panel.kind = Panel::Kind::kGrid;
  panel.x_label = "load";
  panel.x_labels = {"0.10", "0.45"};
  panel.x_values = {0.10, 0.45};
  panel.series = {"MIN", "VAL", "PB", "OLM", "Base", "Hybrid", "ECtN"};
  // Shaped like the paper: MIN collapsed, VAL bounded at 0.5, ECtN's
  // latency under PB/OLM, counters recovering Valiant bandwidth.
  panel.metrics.emplace_back(
      "latency_avg",
      std::vector<std::vector<double>>{
          {300.0, 260.0, 250.0, 245.0, 235.0, 238.0, 230.0},
          {kNaN, 280.0, 290.0, 285.0, 260.0, 262.0, 255.0}});
  panel.metrics.emplace_back(
      "throughput", std::vector<std::vector<double>>{
                        {0.09, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10},
                        {0.11, 0.42, 0.40, 0.41, 0.43, 0.44, 0.43}});
  panel.metrics.emplace_back(
      "backlog_per_node", std::vector<std::vector<double>>{
                              {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0},
                              {30.0, 0.5, 0.6, 0.5, 0.4, 0.4, 0.4}});
  panel.notes.push_back("synthetic panel for the self-test");
  doc.panels.push_back(std::move(panel));

  Panel info;
  info.name = "info";
  info.kind = Panel::Kind::kInfo;
  info.columns = {"k", "v"};
  info.cells = {{"answer", "42"}};
  doc.panels.push_back(std::move(info));
  return doc;
}

void test_schema_roundtrip() {
  const ResultsDoc doc = make_test_doc();
  const std::string once = to_json(doc).dump();
  const ResultsDoc parsed = doc_from_json(Json::parse(once));
  const std::string twice = to_json(parsed).dump();
  assert(once == twice && "schema round-trip must be byte-identical");

  assert(parsed.header.experiment == "fig5b");
  assert(parsed.header.nodes == 72);
  const Panel* panel = parsed.panel("ADV+1");
  assert(panel && panel->series.size() == 7);
  assert(panel->value("throughput", "0.45", "VAL") == 0.42);
  assert(std::isnan(panel->value("latency_avg", "0.45", "MIN")));
  assert(parsed.panel("info") &&
         parsed.panel("info")->cells[0][1] == "42");

  // CSV emission covers every non-info cell.
  std::ostringstream csv;
  write_csv(parsed, csv);
  const std::string text = csv.str();
  assert(text.find("fig5b,ADV+1,throughput,0.45,VAL,0.42") !=
         std::string::npos);
  // NaN cells serialize as an empty value field.
  assert(text.find("fig5b,ADV+1,latency_avg,0.45,MIN,\n") !=
         std::string::npos);

  // Unsupported schema versions are rejected.
  Json bad = Json::parse(once);
  bad.set("schema", Json("dfsim-results/v999"));
  bool threw = false;
  try {
    (void)doc_from_json(bad);
  } catch (const std::exception&) {
    threw = true;
  }
  assert(threw);
  std::cout << "schema roundtrip ok\n";
}

void test_config_hash() {
  const SimParams a = presets::tiny();
  const SimParams b = presets::tiny();
  assert(config_hash(a) == config_hash(b) && "hash must be deterministic");
  assert(canonical_params_text(a) == canonical_params_text(b));

  // Every INI-reachable knob must shift the hash.
  SimParams c = presets::tiny();
  apply_param(c, "routing.pb_ugal_threshold", "5");
  assert(config_hash(c) != config_hash(a));
  SimParams d = presets::tiny();
  apply_param(d, "traffic.load", "0.33");
  assert(config_hash(d) != config_hash(a));
  SimParams e = presets::tiny();
  apply_param(e, "router.through_priority", "true");
  assert(config_hash(e) != config_hash(a));

  // The canonical text is itself a loadable INI overlay: applying every
  // line back reproduces the same hash (keys stay in sync with config_io).
  std::istringstream lines(canonical_params_text(c));
  SimParams rebuilt = presets::tiny();
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t eq = line.find(" = ");
    assert(eq != std::string::npos);
    apply_param(rebuilt, line.substr(0, eq), line.substr(eq + 3));
  }
  assert(config_hash(rebuilt) == config_hash(c));

  // Pinned value: changing the canonical serialization (field order,
  // formatting) breaks every committed golden, so it must be deliberate.
  assert(fnv1a_hex("dfsim") == "0f4e95700ea5e5be");
  std::cout << "config hash ok (tiny = " << config_hash(a) << ")\n";
}

// Pinned config hashes of presets and of configs with each gated row on:
// goldens, RESULTS.md headers and benchmark digests carry these, so a move
// here must be deliberate.
void test_pinned_config_hashes() {
  using Sets = std::initializer_list<std::pair<const char*, const char*>>;
  auto tiny_with = [](Sets sets) {
    SimParams p = presets::tiny();
    for (const auto& [key, value] : sets) apply_param(p, key, value);
    return p;
  };
  const std::tuple<const char*, SimParams, std::string> pinned[] = {
      {"tiny", presets::tiny(), "86c575540ba2194a"},
      {"small", presets::small(), "45f45c08ad93e136"},
      {"medium", presets::medium(), "e3dd6a44e1109c35"},
      {"paper", presets::paper(), "4f765c924dc9db04"},
      {"exa", presets::exa(), "2712104a6ec344b2"},
      {"fbfly(3,2,2)", presets::fbfly(3, 2, 2), "aff1f9a578dc3d73"},
      {"torus(4,2,2)", presets::torus(4, 2, 2), "1c8c5fac86c4fe3e"},
      {"tiny+faults",
       tiny_with({{"fault.enabled", "true"},
                  {"fault.seed", "42"},
                  {"fault.onset", "100"},
                  {"fault.link_fail_fraction", "0.25"},
                  {"fault.link_class", "global"},
                  {"fault.flap_period", "50"},
                  {"fault.flap_down", "10"},
                  {"fault.router_fail_fraction", "0.05"},
                  {"fault.degrade_fraction", "0.1"},
                  {"fault.degrade_latency", "4"},
                  {"fault.hop_cap", "32"}}),
       "d23016254515eb3f"},
      {"tiny+telemetry",
       tiny_with({{"telemetry.enabled", "true"},
                  {"telemetry.sample_period", "50"}}),
       "f6b4452fc0d20e06"},
      {"tiny+trace",
       tiny_with({{"trace.enabled", "true"},
                  {"trace.seed", "7"},
                  {"trace.sample_rate", "0.5"}}),
       "bef2d3e866e2fde2"},
      {"tiny+threads4", tiny_with({{"engine.threads", "4"}}),
       "21e3772c03be2a3a"},
      {"tiny+trace_path", tiny_with({{"traffic.trace_path", "run.dftrace"}}),
       "5b9bf0c2723171a1"},
      {"tiny+ARN",
       tiny_with({{"routing.kind", "ARN"},
                  {"notify.threshold", "0.4"},
                  {"notify.throttle_injection", "true"}}),
       "5a64b9bc42c98206"},
  };
  for (const auto& [name, params, hash] : pinned) {
    if (config_hash(params) != hash) {
      std::cerr << name << ": config hash " << config_hash(params)
                << " != pinned " << hash << "\n"
                << canonical_params_text(params);
    }
    assert(config_hash(params) == hash);
  }
  std::cout << "pinned config hashes ok\n";
}

void test_trend_gates() {
  const ResultsDoc good = make_test_doc();
  {
    const auto outcomes = check_trend_gates(good);
    assert(!outcomes.empty());
    assert(all_passed(outcomes));
  }
  {
    // MIN stops collapsing -> the min-collapses gate must fail.
    ResultsDoc bad = good;
    auto& thpt = bad.panels[0].metrics[1].second;
    thpt[1][0] = 0.44;  // MIN throughput at the top load
    const auto outcomes = check_trend_gates(bad);
    assert(!all_passed(outcomes));
  }
  {
    // VAL exceeding its 0.5 bound must fail.
    ResultsDoc bad = good;
    bad.panels[0].metrics[1].second[1][1] = 0.61;
    assert(!all_passed(check_trend_gates(bad)));
  }
  {
    // ECtN losing its latency win must fail.
    ResultsDoc bad = good;
    bad.panels[0].metrics[0].second[1][6] = 400.0;
    assert(!all_passed(check_trend_gates(bad)));
  }
  std::cout << "trend gates ok\n";
}

void test_golden_gates() {
  const ResultsDoc doc = make_test_doc();
  {
    // Pristine golden: everything inside the band.
    const auto outcomes = check_against_golden(doc, doc);
    assert(outcomes.size() == 1);
    assert(outcomes[0].status == GateStatus::kPass);
  }
  {
    // Tiny jitter inside the tolerance band still passes.
    ResultsDoc golden = doc;
    golden.panels[0].metrics[0].second[0][0] *= 1.01;
    assert(all_passed(check_against_golden(doc, golden)));
  }
  {
    // Corrupted golden (out-of-band value) must fail.
    ResultsDoc golden = doc;
    golden.panels[0].metrics[1].second[1][1] = 0.30;  // VAL throughput -29%
    const auto outcomes = check_against_golden(doc, golden);
    assert(outcomes.size() == 1);
    assert(outcomes[0].status == GateStatus::kFail);
  }
  {
    // Truncated golden (missing panel) must fail.
    ResultsDoc golden = doc;
    golden.panels[0].name = "renamed";
    assert(!all_passed(check_against_golden(doc, golden)));
  }
  {
    // Saturated latency cells are exempt: MIN's latency at 0.45 diverges
    // but its backlog marks it saturated in both docs.
    ResultsDoc golden = doc;
    golden.panels[0].metrics[0].second[1][0] = 9999.0;
    assert(all_passed(check_against_golden(doc, golden)));
  }
  {
    // Config drift at identical settings is a failure, not a skip.
    ResultsDoc golden = doc;
    golden.header.config_hash = "0000000000000000";
    const auto outcomes = check_against_golden(doc, golden);
    assert(outcomes.size() == 1 && outcomes[0].status == GateStatus::kFail);
  }
  {
    // Different settings (another scale) skip instead of failing.
    ResultsDoc golden = doc;
    golden.header.scale = "medium";
    const auto outcomes = check_against_golden(doc, golden);
    assert(outcomes.size() == 1 && outcomes[0].status == GateStatus::kSkip);
  }
  std::cout << "golden gates ok\n";
}

void test_registry_and_render() {
  // Registry sanity: unique names, resolvable, every spec has docs text.
  const auto& registry = experiment_registry();
  assert(registry.size() == 21);
  for (const ExperimentSpec& spec : registry) {
    assert(find_experiment(spec.name) == &spec);
    assert(std::string(spec.title).size() > 4);
    assert(std::string(spec.description).size() > 40);
  }
  assert(find_experiment("nope") == nullptr);
  assert(find_experiment("congestion_map") != nullptr);

  // Renderer: the synthetic doc yields a report with gate table, headers,
  // a saturated cell printed as "sat", and the trend commentary.
  const ResultsDoc doc = make_test_doc();
  std::vector<GateOutcome> gates = check_trend_gates(doc);
  const std::string md = render_markdown({doc}, gates);
  assert(md.find("## Paper-parity gates") != std::string::npos);
  assert(md.find("min-collapses") != std::string::npos);
  assert(md.find("| sat |") != std::string::npos);
  assert(md.find("peak accepted load") != std::string::npos);
  assert(md.find("synthetic panel for the self-test") != std::string::npos);
  // Deterministic: same inputs, same bytes.
  assert(md == render_markdown({doc}, gates));
  std::cout << "registry + renderer ok\n";
}

RunContext short_tiny_context(std::int32_t engine_threads) {
  RunContext ctx;
  ctx.scale = "tiny";
  ctx.base = presets::tiny();
  ctx.base.engine.threads = engine_threads;
  ctx.options.warmup = 100;
  ctx.options.measure = 100;
  ctx.loads = std::vector<double>{0.2};
  ctx.reps = 1;
  return ctx;
}

void test_user_keys_win() {
  // A key the user assigned (--set or --config, recorded by
  // RunContext::assign) is never replaced by an experiment's default:
  // fig5a's UN pattern yields to traffic.kind, and ablation_workloads'
  // hot-set sizing to traffic.hotspot_count.
  RunContext adv = short_tiny_context(1);
  adv.assign("traffic.kind", "ADV");
  assert(run_experiment(*find_experiment("fig5a"), adv).header.config_hash ==
         config_hash(adv.base));
  // A trace path selects trace replay, so it counts as traffic.kind.
  RunContext traced = short_tiny_context(1);
  traced.assign("traffic.trace_path", "replay.trace");
  assert(traced.assigned.contains("traffic.kind"));

  // The HOTSPOT row under a user's hotspot_count = 4 is the user's own
  // hotspot(n=4, f=0.30) pattern, the row's default fraction.
  const ExperimentSpec& workloads = *find_experiment("ablation_workloads");
  RunContext sized = short_tiny_context(1);
  sized.lineup = std::vector<RoutingKind>{RoutingKind::kCbBase};
  sized.assign("traffic.hotspot_count", "4");
  RunContext own = sized;
  own.assign("traffic.kind", "hotspot");
  own.assign("traffic.hotspot_fraction", "0.3");
  const Panel rows = run_experiment(workloads, sized).panels.at(0);
  const Panel one = run_experiment(workloads, own).panels.at(0);
  assert(one.x_labels == std::vector<std::string>{"HOTSPOT(n=4,f=0.30)"});
  const auto hot = static_cast<std::size_t>(
      std::find(rows.x_labels.begin(), rows.x_labels.end(), "HOTSPOT") -
      rows.x_labels.begin());
  assert(hot < rows.x_labels.size());
  for (std::size_t m = 0; m < rows.metrics.size(); ++m) {
    assert(rows.metrics[m].second[hot] == one.metrics[m].second[0]);
  }
  std::cout << "user keys win ok\n";
}

void test_companion_engine_threads() {
  // The experiments that build their base from another preset (the
  // fbfly/torus companions, the radix sweep's per-radix presets) keep
  // engine.threads: the header reports the shard count, and the panels
  // differ from the serial run's (a different deterministic simulation),
  // so every series really ran sharded.
  for (const char* name : {"ablation_fbfly", "ablation_fbfly_transient",
                           "ablation_torus", "ablation_radix_range"}) {
    const ExperimentSpec& spec = *find_experiment(name);
    const ResultsDoc serial = run_experiment(spec, short_tiny_context(1));
    const ResultsDoc sharded = run_experiment(spec, short_tiny_context(2));
    assert(serial.header.engine_threads == 1);
    assert(sharded.header.engine_threads == 2);
    assert(sharded.header.config_hash_serial == serial.header.config_hash);
    assert(sharded.panels.size() == serial.panels.size());
    const auto panel_json = [](const Panel& panel) {
      ResultsDoc one;
      one.panels.push_back(panel);
      return to_json(one).dump();
    };
    for (std::size_t i = 0; i < sharded.panels.size(); ++i) {
      assert(panel_json(sharded.panels[i]) != panel_json(serial.panels[i]));
    }
  }
  // table1 simulates nothing: a sharded request is the serial document.
  const ExperimentSpec& table1 = *find_experiment("table1");
  assert(to_json(run_experiment(table1, short_tiny_context(2))).dump() ==
         to_json(run_experiment(table1, short_tiny_context(1))).dump());
  std::cout << "companion engine.threads ok\n";
}

void test_transient_panel_threads() {
  // A transient panel runs one job per (series, rep) on the context's pool:
  // at threads = 1 every rep runs on the calling thread, and the panel is
  // the same at every pool size (reps merge order-free).
  std::vector<TransientSeries> series;
  for (const RoutingKind kind : {RoutingKind::kCbBase, RoutingKind::kOlm}) {
    SimParams p = presets::tiny();
    p.routing.kind = kind;
    series.push_back(TransientSeries{to_string(kind), p});
  }
  TransientOptions topt;
  topt.before.kind = TrafficKind::kUniform;
  topt.before.load = 0.2;
  topt.after = topt.before;
  topt.after.kind = TrafficKind::kAdversarial;
  topt.after.adv_offset = 1;
  topt.warmup = 200;
  topt.pre = 20;
  topt.post = 60;
  topt.reps = 3;
  std::mutex mu;
  std::set<std::thread::id> workers;
  topt.heartbeat = [&](Cycle, std::int64_t, double) {
    const std::lock_guard<std::mutex> lock(mu);
    workers.insert(std::this_thread::get_id());
  };
  const auto panel_json = [](const Panel& panel) {
    ResultsDoc one;
    one.panels.push_back(panel);
    return to_json(one).dump();
  };
  const std::string serial =
      panel_json(run_transient_panel("p", series, topt, 10, 10, 1));
  assert(workers == std::set<std::thread::id>{std::this_thread::get_id()});
  for (const int threads : {2, 4}) {
    assert(panel_json(run_transient_panel("p", series, topt, 10, 10,
                                          threads)) == serial);
  }
  std::cout << "transient panel pool ok\n";
}

void test_instrumented_one_shard() {
  // The ECtN overhead monitor and the telemetry sink keep whole-network
  // state: a sharded request runs one shard, reports it, and says why in a
  // note; the results are the serial run's.
  for (const char* name : {"ablation_ectn_overhead", "congestion_map"}) {
    const ExperimentSpec& spec = *find_experiment(name);
    const ResultsDoc serial = run_experiment(spec, short_tiny_context(1));
    ResultsDoc sharded = run_experiment(spec, short_tiny_context(2));
    assert(sharded.header.engine_threads == 1);
    assert(sharded.header.config_hash == serial.header.config_hash);
    std::size_t noted = 0;
    for (Panel& panel : sharded.panels) {
      for (auto it = panel.notes.begin(); it != panel.notes.end();) {
        if (it->find("keeps whole-network state") != std::string::npos) {
          it = panel.notes.erase(it);
          ++noted;
        } else {
          ++it;
        }
      }
    }
    assert(noted == 1);
    assert(to_json(sharded).dump() == to_json(serial).dump());
  }
  std::cout << "instrumented experiments at one shard ok\n";
}

}  // namespace

int main() {
  test_json_roundtrip();
  test_schema_roundtrip();
  test_config_hash();
  test_pinned_config_hashes();
  test_trend_gates();
  test_golden_gates();
  test_registry_and_render();
  test_user_keys_win();
  test_companion_engine_threads();
  test_transient_panel_threads();
  test_instrumented_one_shard();
  std::cout << "test_report: all ok\n";
  return 0;
}
