#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace dfsim {

CliOptions::CliOptions(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      Option opt;
      const std::size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        opt.key = arg.substr(2);
      } else {
        opt.key = arg.substr(2, eq - 2);
        opt.value = arg.substr(eq + 1);
        opt.has_value = true;
      }
      options_.push_back(std::move(opt));
    } else {
      positional_.push_back(arg);
    }
  }
}

const CliOptions::Option* CliOptions::find(const std::string& key) const {
  // Last occurrence wins, so scripted callers can append overrides.
  const Option* found = nullptr;
  for (const Option& opt : options_) {
    if (opt.key == key) found = &opt;
  }
  return found;
}

bool CliOptions::has(const std::string& key) const {
  return find(key) != nullptr;
}

void CliOptions::reject_unknown(
    std::span<const std::string_view> known) const {
  for (const Option& opt : options_) {
    if (std::find(known.begin(), known.end(), opt.key) == known.end()) {
      throw std::invalid_argument("unknown flag --" + opt.key +
                                  " (this command does not read it)");
    }
  }
}

std::string CliOptions::get(const std::string& key) const {
  const Option* opt = find(key);
  return opt != nullptr ? opt->value : std::string();
}

std::string CliOptions::get(const std::string& key,
                            const std::string& fallback) const {
  const Option* opt = find(key);
  return (opt != nullptr && opt->has_value) ? opt->value : fallback;
}

std::int64_t CliOptions::parse_int(const std::string& text,
                                   std::int64_t fallback) {
  if (text.empty()) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || (end != nullptr && *end != '\0')) {
    return fallback;
  }
  return static_cast<std::int64_t>(value);
}

std::string CliOptions::env(const std::string& name,
                            const std::string& fallback) {
  const char* value = std::getenv(name.c_str());
  return value != nullptr ? std::string(value) : fallback;
}

std::int64_t CliOptions::env_int(const std::string& name,
                                 std::int64_t fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) return fallback;
  return parse_int(value, fallback);
}

}  // namespace dfsim
