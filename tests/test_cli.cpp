// CliOptions: flag parsing, whole-parse numeric flags, unknown-flag
// rejection, and tolerant env parsing (the bench/common.cpp
// DFSIM_WARMUP/DFSIM_MEASURE fix).
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/cli.hpp"

int main() {
  using namespace dfsim;

  {
    const char* argv[] = {"prog", "--scale=tiny", "--csv", "--warmup=500",
                          "--load=0.35", "positional", "--warmup=800"};
    CliOptions cli(7, const_cast<char**>(argv));
    assert(cli.has("scale"));
    assert(cli.get("scale") == "tiny");
    assert(cli.has("csv"));
    assert(cli.get("csv").empty());
    assert(cli.get_number<std::int64_t>("warmup", 0) == 800);  // last wins
    assert(cli.get_number("load", 0.0) == 0.35);
    assert(!cli.has("measure"));
    assert(cli.get_number<std::int64_t>("measure", 123) == 123);
    assert(cli.get("missing", "fallback") == "fallback");
    assert(cli.positional().size() == 1);
    assert(cli.positional()[0] == "positional");
  }

  // Numeric flags parse whole and fit their type, or throw naming the flag.
  {
    const char* argv[] = {"prog",
                          "--warmup=banana",
                          "--load=1.5x",
                          "--threads=2x",
                          "--reps=4294967297",
                          "--seed=18446744073709551616",
                          "--big=18446744073709551615",
                          "--plus=+7"};
    CliOptions cli(8, const_cast<char**>(argv));
    const auto throws_naming = [&](auto read, const std::string& flag) {
      try {
        read();
      } catch (const std::invalid_argument& e) {
        return std::string(e.what()).find(flag) != std::string::npos;
      }
      return false;
    };
    assert(throws_naming(
        [&] { (void)cli.get_number<std::int64_t>("warmup", 42); }, "--warmup"));
    assert(throws_naming([&] { (void)cli.get_number("load", 0.5); }, "--load"));
    assert(throws_naming([&] { (void)cli.get_number("threads", 0); },
                         "--threads"));
    assert(throws_naming([&] { (void)cli.get_number<std::int32_t>("reps", 1); },
                         "--reps"));
    assert(throws_naming(
        [&] { (void)cli.get_number<std::uint64_t>("seed", 1); }, "--seed"));
    // The full uint64 range, and a leading '+', as config values read them.
    assert(cli.get_number<std::uint64_t>("big", 1) == 18446744073709551615ull);
    assert(cli.get_number("plus", 0) == 7);
  }

  // reject_unknown names the first flag outside the known list.
  {
    const char* argv[] = {"prog", "run", "--scale=tiny", "--csv",
                          "--warmpu=5", "--seed=3"};
    CliOptions cli(6, const_cast<char**>(argv));
    const std::vector<std::string_view> known = {"scale", "csv", "warmup",
                                                 "seed"};
    std::string err;
    try {
      cli.reject_unknown(known);
    } catch (const std::invalid_argument& e) {
      err = e.what();
    }
    assert(err.find("unknown flag --warmpu") != std::string::npos);
    const std::vector<std::string_view> all = {"scale", "csv", "warmpu",
                                               "seed"};
    cli.reject_unknown(all);  // every flag known: no throw
  }

  // parse_int covers the env paths used by bench/common.cpp.
  assert(CliOptions::parse_int("", 7) == 7);
  assert(CliOptions::parse_int("  ", 7) == 7);
  assert(CliOptions::parse_int("1000", 7) == 1000);
  assert(CliOptions::parse_int("10garbage", 7) == 7);
  assert(CliOptions::parse_int("-250", 7) == -250);

  // env / env_int: unset, valid, and garbage values.
  unsetenv("DFSIM_TEST_VAR");
  assert(CliOptions::env("DFSIM_TEST_VAR", "dflt") == "dflt");
  assert(CliOptions::env_int("DFSIM_TEST_VAR", 99) == 99);
  setenv("DFSIM_TEST_VAR", "1234", 1);
  assert(CliOptions::env("DFSIM_TEST_VAR", "dflt") == "1234");
  assert(CliOptions::env_int("DFSIM_TEST_VAR", 99) == 1234);
  setenv("DFSIM_TEST_VAR", "not-a-number", 1);
  assert(CliOptions::env_int("DFSIM_TEST_VAR", 99) == 99);
  unsetenv("DFSIM_TEST_VAR");

  return EXIT_SUCCESS;
}
