// Config-file overlay: a partial INI-style file overrides only the keys it
// mentions on top of a base SimParams (usually a preset). Keys are dotted,
// e.g. `topo.a = 16`, `routing.kind = ECtN`, `traffic.load = 0.35`. Parsing,
// the canonical text and validation read one table in config_io.cpp, a row
// per key with its valid range.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "sim/config.hpp"

namespace dfsim {

/// The `key = value` assignments of the INI file at `path`, in file order,
/// each key with its `[section]` prefix. Throws std::runtime_error when the
/// file cannot be opened and std::invalid_argument on a line without '='.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> read_params(
    const std::string& path);

/// Applies a single `key = value` assignment (an INI line, a `--set`
/// entry). Throws std::invalid_argument naming the key when it is unknown or
/// its value does not parse; a number must parse whole and fit its field.
void apply_param(SimParams& params, const std::string& key,
                 const std::string& value);

/// Every SimParams knob as "key = value" lines in the table's fixed order,
/// less the rows whose gate is off. It reloads as an INI overlay, and
/// report::config_hash hashes it: any behavioral config change is
/// *supposed* to change the hash.
[[nodiscard]] std::string canonical_params_text(const SimParams& params);

/// The one validity check of a configuration: every number within its
/// row's range, then the cross-key rules (docs/CONFIG.md). Throws
/// std::invalid_argument naming the first key that fails.
void validate(const SimParams& params);

/// A bounded row's valid range, [lo, hi] inclusive (hi may be infinite).
struct ParamRange {
  const char* key;
  double lo;
  double hi;
  bool integral;
};

/// Every bounded row, in table order.
[[nodiscard]] std::vector<ParamRange> param_ranges();

}  // namespace dfsim
