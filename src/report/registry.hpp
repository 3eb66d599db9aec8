// The declarative experiment registry: every paper figure, table, and
// ablation is one ExperimentSpec row — its docs text, its runner and its
// trend gates — executed through the shared runner instead of a standalone
// bench binary. `dfsim_run` lists and runs these; scripts/reproduce.sh runs
// the whole registry; the paper-parity gates and RESULTS.md renderer
// consume the emitted documents.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "report/parity.hpp"
#include "report/runner.hpp"
#include "report/schema.hpp"

namespace dfsim::report {

/// Appends an experiment's panels to `doc`, leaving `ctx` at the parameters
/// its runs used (the header reports them). A runner that repeats its runs
/// with its own count rather than ctx.options.reps records it in
/// doc.header.reps.
using ExperimentRun = std::function<void(RunContext& ctx, ResultsDoc& doc)>;

struct ExperimentSpec {
  const char* name;       // registry key: "fig5a", "ablation_torus", ...
  const char* title;      // figure title used in headers and RESULTS.md
  const char* paper_ref;  // "Fig. 5a", "Sec. VI-B", "beyond the paper"
  const char* topology;   // "dragonfly" | "fbfly" | "torus"
  const char* description;  // expectations commentary rendered in RESULTS.md
  ExperimentRun run;
  TrendGates gates = nullptr;  // check_trend_gates runs these; none -> null
};

/// All registered experiments, in paper order.
[[nodiscard]] const std::vector<ExperimentSpec>& experiment_registry();

/// nullptr when `name` is not registered.
[[nodiscard]] const ExperimentSpec* find_experiment(const std::string& name);

/// Runs a spec and stamps the document header (name/title/ref + config hash
/// + scale + cycle budget) — the only way results documents are produced.
[[nodiscard]] ResultsDoc run_experiment(const ExperimentSpec& spec,
                                        const RunContext& ctx);

}  // namespace dfsim::report
