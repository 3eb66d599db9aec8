// Paper-parity regression gates over results documents:
//  * trend gates — qualitative claims the reproduction must keep (MIN
//    collapses on ADV+1, VAL respects its 0.5 bound, ECtN keeps its latency
//    win, counter triggers adapt faster than credit triggers), evaluated on
//    any scale;
//  * golden gates — tolerance-banded numeric comparison against a committed
//    reference curve produced at the same scale/seed/cycle budget.
#pragma once

#include <string>
#include <vector>

#include "report/schema.hpp"

namespace dfsim::report {

enum class GateStatus : std::uint8_t { kPass, kFail, kSkip };

struct GateOutcome {
  std::string experiment;
  std::string gate;
  GateStatus status = GateStatus::kSkip;
  std::string detail;
};

/// Evaluates the trend gates the experiment's registry row names (none ->
/// empty).
[[nodiscard]] std::vector<GateOutcome> check_trend_gates(const ResultsDoc& doc);

/// One experiment's trend gates: appends an outcome per gate to `out`. A
/// gate whose panel or series is missing (a custom --routings line-up)
/// SKIPs instead of failing.
using TrendGates = void (*)(const ResultsDoc& doc,
                            std::vector<GateOutcome>& out);
void fig5a_gates(const ResultsDoc& doc, std::vector<GateOutcome>& out);
void fig5b_gates(const ResultsDoc& doc, std::vector<GateOutcome>& out);
void fig7_gates(const ResultsDoc& doc, std::vector<GateOutcome>& out);
void fault_degradation_gates(const ResultsDoc& doc,
                             std::vector<GateOutcome>& out);
void fault_transient_gates(const ResultsDoc& doc,
                           std::vector<GateOutcome>& out);
void notification_gates(const ResultsDoc& doc, std::vector<GateOutcome>& out);
void congestion_map_gates(const ResultsDoc& doc,
                          std::vector<GateOutcome>& out);

/// Cell-by-cell comparison: pass when |a-b| <= abs_tol + rel_tol*max(|a|,|b|)
/// (transient panels get doubled tolerances — per-birth-window means are
/// noisier). Latency cells where either side is saturated (backlog_per_node
/// beyond kSaturationBacklog) are skipped, matching how the paper cuts its
/// curves. Mismatched settings (scale/seed/cycles) skip the comparison;
/// a config-hash mismatch at identical settings FAILS — the config drifted
/// and the goldens must be regenerated deliberately.
[[nodiscard]] std::vector<GateOutcome> check_against_golden(
    const ResultsDoc& doc, const ResultsDoc& golden, double rel_tol = 0.05,
    double abs_tol = 0.05);

[[nodiscard]] bool all_passed(const std::vector<GateOutcome>& outcomes);

[[nodiscard]] std::string to_string(GateStatus status);

}  // namespace dfsim::report
