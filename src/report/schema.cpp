#include "report/schema.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

namespace dfsim::report {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

// ---------------------------------------------------------------------------
// Panel lookups

const std::vector<std::vector<double>>* Panel::metric(
    const std::string& metric_name) const {
  for (const auto& [n, rows] : metrics) {
    if (n == metric_name) return &rows;
  }
  return nullptr;
}

std::size_t Panel::series_index(const std::string& series_name) const {
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (series[i] == series_name) return i;
  }
  return series.size();
}

std::size_t Panel::x_index(const std::string& x_tick) const {
  for (std::size_t i = 0; i < x_labels.size(); ++i) {
    if (x_labels[i] == x_tick) return i;
  }
  return x_labels.size();
}

double Panel::value(const std::string& metric_name, const std::string& x_tick,
                    const std::string& series_name) const {
  const auto* rows = metric(metric_name);
  const std::size_t xi = x_index(x_tick);
  const std::size_t si = series_index(series_name);
  if (!rows || xi >= rows->size() || si >= (*rows)[xi].size()) return kNaN;
  return (*rows)[xi][si];
}

bool Panel::saturated_cell(std::size_t xi, std::size_t si) const {
  const auto* backlog = metric("backlog_per_node");
  return backlog && xi < backlog->size() && si < (*backlog)[xi].size() &&
         (*backlog)[xi][si] > kSaturationBacklog;
}

const Panel* ResultsDoc::panel(const std::string& name) const {
  for (const Panel& p : panels) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// JSON serialization

namespace {

Json number_or_null(double v) {
  return std::isfinite(v) ? Json(v) : Json();
}

Json string_array(const std::vector<std::string>& items) {
  Json arr = Json::array();
  for (const std::string& s : items) arr.push_back(Json(s));
  return arr;
}

std::vector<std::string> strings_from(const Json& arr) {
  std::vector<std::string> out;
  out.reserve(arr.size());
  for (const Json& item : arr.items()) out.push_back(item.as_string());
  return out;
}

const char* kind_name(Panel::Kind kind) {
  switch (kind) {
    case Panel::Kind::kGrid: return "grid";
    case Panel::Kind::kTransient: return "transient";
    case Panel::Kind::kInfo: return "info";
  }
  return "grid";
}

Panel::Kind kind_from_name(const std::string& name) {
  if (name == "grid") return Panel::Kind::kGrid;
  if (name == "transient") return Panel::Kind::kTransient;
  if (name == "info") return Panel::Kind::kInfo;
  throw std::runtime_error("results: unknown panel kind '" + name + "'");
}

}  // namespace

Json to_json(const ResultsDoc& doc) {
  Json root = Json::object();
  const Header& h = doc.header;
  root.set("schema", Json(h.schema));
  root.set("experiment", Json(h.experiment));
  root.set("title", Json(h.title));
  root.set("paper_ref", Json(h.paper_ref));
  root.set("topology", Json(h.topology));
  root.set("scale", Json(h.scale));
  root.set("nodes", Json(static_cast<double>(h.nodes)));
  root.set("config_hash", Json(h.config_hash));
  // Schema-additive shard metadata: absent for serial runs, so serial
  // documents (the committed goldens among them) keep their bytes.
  if (h.engine_threads != 1) {
    root.set("engine_threads", Json(static_cast<double>(h.engine_threads)));
    root.set("config_hash_serial", Json(h.config_hash_serial));
  }
  root.set("git_rev", Json(h.git_rev));
  root.set("seed", Json(static_cast<double>(h.seed)));
  root.set("warmup", Json(static_cast<double>(h.warmup)));
  root.set("measure", Json(static_cast<double>(h.measure)));
  root.set("reps", Json(static_cast<double>(h.reps)));

  Json panels = Json::array();
  for (const Panel& panel : doc.panels) {
    Json p = Json::object();
    p.set("name", Json(panel.name));
    p.set("kind", Json(kind_name(panel.kind)));
    if (panel.kind == Panel::Kind::kInfo) {
      p.set("columns", string_array(panel.columns));
      Json rows = Json::array();
      for (const auto& row : panel.cells) rows.push_back(string_array(row));
      p.set("rows", std::move(rows));
    } else {
      p.set("x_label", Json(panel.x_label));
      p.set("x_labels", string_array(panel.x_labels));
      Json xs = Json::array();
      for (const double v : panel.x_values) xs.push_back(number_or_null(v));
      p.set("x_values", std::move(xs));
      p.set("series", string_array(panel.series));
      Json metrics = Json::object();
      for (const auto& [name, rows] : panel.metrics) {
        Json table = Json::array();
        for (const auto& row : rows) {
          Json r = Json::array();
          for (const double v : row) r.push_back(number_or_null(v));
          table.push_back(std::move(r));
        }
        metrics.set(name, std::move(table));
      }
      p.set("metrics", std::move(metrics));
    }
    if (!panel.notes.empty()) p.set("notes", string_array(panel.notes));
    panels.push_back(std::move(p));
  }
  root.set("panels", std::move(panels));
  return root;
}

ResultsDoc doc_from_json(const Json& json) {
  ResultsDoc doc;
  Header& h = doc.header;
  h.schema = json.get("schema").as_string();
  if (h.schema != kSchemaVersion) {
    throw std::runtime_error("results: unsupported schema '" + h.schema +
                             "' (want " + kSchemaVersion + ")");
  }
  h.experiment = json.get("experiment").as_string();
  h.title = json.get_string("title");
  h.paper_ref = json.get_string("paper_ref");
  h.topology = json.get_string("topology");
  h.scale = json.get_string("scale");
  h.nodes = static_cast<std::int32_t>(json.get_number("nodes"));
  h.config_hash = json.get_string("config_hash");
  h.engine_threads =
      static_cast<std::int32_t>(json.get_number("engine_threads", 1));
  h.config_hash_serial = json.get_string("config_hash_serial", "");
  h.git_rev = json.get_string("git_rev");
  h.seed = static_cast<std::uint64_t>(json.get_number("seed", 1));
  h.warmup = static_cast<Cycle>(json.get_number("warmup"));
  h.measure = static_cast<Cycle>(json.get_number("measure"));
  h.reps = static_cast<std::int32_t>(json.get_number("reps", 1));

  for (const Json& p : json.get("panels").items()) {
    Panel panel;
    panel.name = p.get("name").as_string();
    panel.kind = kind_from_name(p.get("kind").as_string());
    if (panel.kind == Panel::Kind::kInfo) {
      panel.columns = strings_from(p.get("columns"));
      for (const Json& row : p.get("rows").items()) {
        panel.cells.push_back(strings_from(row));
      }
    } else {
      panel.x_label = p.get_string("x_label");
      panel.x_labels = strings_from(p.get("x_labels"));
      for (const Json& v : p.get("x_values").items()) {
        panel.x_values.push_back(v.is_number() ? v.as_number() : kNaN);
      }
      panel.series = strings_from(p.get("series"));
      if (panel.x_values.size() != panel.x_labels.size()) {
        throw std::runtime_error("results: panel '" + panel.name +
                                 "': x_values/x_labels size mismatch");
      }
      for (const auto& [name, table] : p.get("metrics").members()) {
        std::vector<std::vector<double>> rows;
        for (const Json& row : table.items()) {
          std::vector<double> r;
          r.reserve(row.size());
          for (const Json& v : row.items()) {
            r.push_back(v.is_number() ? v.as_number() : kNaN);
          }
          // Reject ragged/truncated documents here so downstream consumers
          // (renderer, gates) can index by x/series position safely.
          if (r.size() != panel.series.size()) {
            throw std::runtime_error("results: panel '" + panel.name +
                                     "' metric '" + name +
                                     "': row width != series count");
          }
          rows.push_back(std::move(r));
        }
        if (rows.size() != panel.x_labels.size()) {
          throw std::runtime_error("results: panel '" + panel.name +
                                   "' metric '" + name +
                                   "': row count != x tick count");
        }
        panel.metrics.emplace_back(name, std::move(rows));
      }
    }
    if (const Json* notes = p.find("notes")) {
      panel.notes = strings_from(*notes);
    }
    doc.panels.push_back(std::move(panel));
  }
  return doc;
}

namespace {

/// RFC-4180 escaping: labels like "HOTSPOT(n=9,f=0.30)" carry commas.
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void write_csv(const ResultsDoc& doc, std::ostream& os) {
  os << "experiment,panel,metric,x,series,value\n";
  for (const Panel& panel : doc.panels) {
    if (panel.kind == Panel::Kind::kInfo) continue;
    for (const auto& [metric, rows] : panel.metrics) {
      for (std::size_t xi = 0; xi < rows.size(); ++xi) {
        for (std::size_t si = 0; si < rows[xi].size(); ++si) {
          os << csv_field(doc.header.experiment) << ','
             << csv_field(panel.name) << ',' << csv_field(metric) << ','
             << csv_field(xi < panel.x_labels.size() ? panel.x_labels[xi]
                                                     : std::string{})
             << ','
             << csv_field(si < panel.series.size() ? panel.series[si]
                                                   : std::string{})
             << ',';
          if (std::isfinite(rows[xi][si])) {
            os << Json::number_to_string(rows[xi][si]);
          }
          os << '\n';
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Config hash

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    hash *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::string current_git_rev() {
  std::string rev = "unknown";
  if (FILE* pipe = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof(buf), pipe)) {
      rev.assign(buf);
      while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
        rev.pop_back();
      }
      if (rev.empty()) rev = "unknown";
    }
    ::pclose(pipe);
  }
  return rev;
}

}  // namespace dfsim::report
