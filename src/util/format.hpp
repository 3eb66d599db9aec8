// Number formatting shared by the config text and the JSON writer.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace dfsim {

/// Shortest text that strtod parses back to exactly `v`.
[[nodiscard]] inline std::string shortest_round_trip(double v) {
  if (v == 0.0) return "0";  // normalize -0.0 as well
  // Integers up to 2^53 print exactly without an exponent or fraction.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  // Shortest %.*g form that survives strtod round-trip.
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace dfsim
