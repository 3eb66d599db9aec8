// Number formatting shared by the config text and the JSON writer, and the
// one whole-parse rule that config values and command-line numbers follow.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <type_traits>

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

/// All of `text` must parse as one T that fits (std::from_chars, so an
/// unsigned T refuses '-'); a single leading '+' is read. Otherwise throws
/// std::invalid_argument naming `what` (a config key or a --flag).
template <typename T>
  requires std::is_arithmetic_v<T>
[[nodiscard]] T parse_number(const std::string& text, const std::string& what) {
  const char* first = text.data();
  const char* last = first + text.size();
  if (text.size() > 1 && text[0] == '+' && text[1] != '-') ++first;
  T v{};
  const auto [end, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || end != last) {
    throw std::invalid_argument(
        "bad number for " + what + ": '" + text + "'" +
        (ec == std::errc::result_out_of_range ? " (out of range)" : ""));
  }
  return v;
}

}  // namespace dfsim
