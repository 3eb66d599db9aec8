// Schema-versioned experiment results ("dfsim-results/v2"): the document
// every registered experiment emits, with JSON and CSV serializations and
// the canonical-config hash that ties a result file to the exact SimParams
// that produced it. Missing/invalid measurements are NaN in memory and
// `null` in JSON.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "engine/experiment.hpp"
#include "report/json.hpp"
#include "sim/config_io.hpp"

namespace dfsim::report {

inline constexpr const char* kSchemaVersion = "dfsim-results/v2";
/// v1 documents (pre-fault-overlay: no fault-overlay metric columns, no
/// fault.* block in the canonical config text) are still accepted on read —
/// committed goldens are not forcibly regenerated by a schema bump.
inline constexpr const char* kSchemaVersionLegacy = "dfsim-results/v1";

/// Past this injection backlog per node the run is saturated and delivered-
/// packet latency is no longer meaningful (the paper cuts its curves there);
/// renderers print "sat" for latency cells whose backlog exceeds it.
inline constexpr double kSaturationBacklog = 4.0;

// ---------------------------------------------------------------------------
// Document model

struct Header {
  std::string schema = kSchemaVersion;
  std::string experiment;  // registry name, e.g. "fig5b"
  std::string title;       // "Figure 5b — adversarial traffic (ADV+1)"
  std::string paper_ref;   // "Fig. 5b", "Sec. VI-B", ...
  std::string topology;    // "dragonfly" | "fbfly" | "torus"
  std::string scale;       // preset name the run used
  std::int32_t nodes = 0;
  std::string config_hash;  // hex FNV-1a of canonical_params_text(base)
  /// Worker-shard count the run used (engine.threads). Serialized only when
  /// != 1 so serial documents (and all committed goldens) are byte-stable.
  std::int32_t engine_threads = 1;
  /// When engine_threads != 1: config_hash of the same params with threads
  /// forced to 1 — lets golden gating match a parallel run against the
  /// serial golden it approximates (see parity.cpp check_against_golden).
  std::string config_hash_serial;
  std::string git_rev;      // short rev, or "" for goldens
  std::uint64_t seed = 1;
  Cycle warmup = 0;
  Cycle measure = 0;
  std::int32_t reps = 1;
};

/// One result table. Grid panels hold steady-state metrics over an x-axis
/// (load, threshold, %UN, pattern name, ...) x a series line-up (routing
/// mechanisms, variants). Transient panels hold per-cycle timelines.
/// Info panels are preformatted string tables (Table I).
struct Panel {
  enum class Kind : std::uint8_t { kGrid, kTransient, kInfo };

  std::string name;
  Kind kind = Kind::kGrid;

  // Grid / transient layout.
  std::string x_label;                 // "load", "cycle", "pattern", ...
  std::vector<std::string> x_labels;   // formatted tick labels
  std::vector<double> x_values;        // numeric ticks; NaN for categorical
  std::vector<std::string> series;
  /// metric name -> x.size() rows of series.size() values (NaN = missing).
  std::vector<std::pair<std::string, std::vector<std::vector<double>>>>
      metrics;

  // Info layout.
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> cells;

  /// Free-form commentary computed at run time (e.g. a valid-threshold
  /// range); rendered verbatim under the panel.
  std::vector<std::string> notes;

  [[nodiscard]] const std::vector<std::vector<double>>* metric(
      const std::string& metric_name) const;
  /// Cell lookup by x tick label and series name; NaN when absent.
  [[nodiscard]] double value(const std::string& metric_name,
                             const std::string& x_tick,
                             const std::string& series_name) const;
  [[nodiscard]] std::size_t series_index(const std::string& series_name) const;
  [[nodiscard]] std::size_t x_index(const std::string& x_tick) const;
  /// True when the cell's run is past kSaturationBacklog — its latency is
  /// not meaningful (renderers print "sat", golden gates exempt it).
  [[nodiscard]] bool saturated_cell(std::size_t xi, std::size_t si) const;
};

struct ResultsDoc {
  Header header;
  std::vector<Panel> panels;

  [[nodiscard]] const Panel* panel(const std::string& name) const;
};

// ---------------------------------------------------------------------------
// Serialization

[[nodiscard]] Json to_json(const ResultsDoc& doc);
/// Throws std::runtime_error on schema mismatch or malformed documents.
[[nodiscard]] ResultsDoc doc_from_json(const Json& json);

/// Long-format CSV: panel,metric,x,series,value — one row per cell, the
/// flat shape spreadsheet/pandas consumers want.
void write_csv(const ResultsDoc& doc, std::ostream& os);

// ---------------------------------------------------------------------------
// Config hash

/// 64-bit FNV-1a over `text`, as 16 lowercase hex chars.
[[nodiscard]] std::string fnv1a_hex(const std::string& text);

[[nodiscard]] inline std::string config_hash(const SimParams& params) {
  return fnv1a_hex(canonical_params_text(params));
}

/// Short git revision of `HEAD` in the current working directory, or
/// "unknown" when git is unavailable.
[[nodiscard]] std::string current_git_rev();

}  // namespace dfsim::report
