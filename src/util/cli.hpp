// Minimal `--key=value` / `--flag` command-line parser plus environment
// helpers. All benches share it; no external dependency.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/format.hpp"

namespace dfsim {

class CliOptions {
 public:
  CliOptions(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Throws std::invalid_argument naming the first `--key` outside `known`,
  /// so a command rejects a flag it does not read instead of ignoring it.
  void reject_unknown(std::span<const std::string_view> known) const;

  /// Value of `--key=value`; empty string when absent or valueless.
  [[nodiscard]] std::string get(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;

  /// Numeric lookup: `fallback` when the flag is absent or valueless;
  /// otherwise the value must parse whole and fit T (parse_number, the rule
  /// config values follow), or std::invalid_argument names `--key`.
  template <typename T>
  [[nodiscard]] T get_number(const std::string& key, T fallback) const {
    const Option* opt = find(key);
    if (opt == nullptr || !opt->has_value) return fallback;
    return parse_number<T>(opt->value, "--" + key);
  }

  /// Environment variable lookup with fallback.
  [[nodiscard]] static std::string env(const std::string& name,
                                       const std::string& fallback);
  /// Integer environment lookup that tolerates unset or garbage values
  /// (DFSIM_* knobs stay lenient; flags do not).
  [[nodiscard]] static std::int64_t env_int(const std::string& name,
                                            std::int64_t fallback);

  /// Tolerant parse behind env_int: the fallback on empty/garbage input
  /// rather than a throw.
  [[nodiscard]] static std::int64_t parse_int(const std::string& text,
                                              std::int64_t fallback);

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  struct Option {
    std::string key;
    std::string value;
    bool has_value = false;
  };
  [[nodiscard]] const Option* find(const std::string& key) const;

  std::vector<Option> options_;
  std::vector<std::string> positional_;
};

}  // namespace dfsim
