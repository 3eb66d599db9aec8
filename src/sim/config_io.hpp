// Config-file overlay: a partial INI-style file overrides only the keys it
// mentions on top of a base SimParams (usually a preset). Keys are dotted,
// e.g. `topo.a = 16`, `routing.kind = ECtN`, `traffic.load = 0.35`. Parsing
// and the canonical text read one table in config_io.cpp, a row per key.
#pragma once

#include <string>

#include "sim/config.hpp"

namespace dfsim {

/// Loads `path` on top of `base`. Throws std::runtime_error when the file
/// cannot be opened and std::invalid_argument on unknown keys or bad values.
[[nodiscard]] SimParams load_params(const std::string& path,
                                    const SimParams& base);

/// Applies a single `key = value` assignment; exposed for tests and for
/// `--set key=value` style overrides. A number must parse whole and fit its
/// field, or std::invalid_argument names the key.
void apply_param(SimParams& params, const std::string& key,
                 const std::string& value);

/// Every SimParams knob as "key = value" lines in the table's fixed order,
/// less the rows whose gate is off. It reloads as an INI overlay, and
/// report::config_hash hashes it: any behavioral config change is
/// *supposed* to change the hash.
[[nodiscard]] std::string canonical_params_text(const SimParams& params);

}  // namespace dfsim
