// Pins every registry document: all 21 experiments run at tiny scale with
// their default line-ups and x-grids (shortened windows), and the FNV-1a
// digest of each canonical JSON document must match the table below. A
// refactor of src/report/ must keep every digest; a change that is meant to
// move results regenerates the table from this test's output (it prints
// every row on a mismatch). Digests assume one toolchain: floats are
// bit-identical for a fixed compiler, not across compiler upgrades.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "report/registry.hpp"

using namespace dfsim;
using namespace dfsim::report;

namespace {

// fnv1a_hex(to_json(doc).dump()) per experiment, git rev empty.
const std::map<std::string, std::string> kDigests{
    {"table1", "7cabfc94c923dee1"},
    {"fig5a", "093b335ca10eba85"},
    {"fig5b", "41f70dc52dacc8cc"},
    {"fig5c", "bafc1b0fe828287c"},
    {"fig6", "d2c214265ae0c202"},
    {"fig7", "9484909ca122d36e"},
    {"fig8", "995e5781fab58bf0"},
    {"fig9", "05ac89adaa7700b1"},
    {"fig10", "d4ff9170158ef2ca"},
    {"ablation_radix_range", "be3c6df6291aaf47"},
    {"ablation_ectn_overhead", "06065036638af5c4"},
    {"ablation_minpath", "f29b98f7729211d3"},
    {"ablation_misrouting", "3202965ee34b70bc"},
    {"ablation_workloads", "a2d808ad0518864b"},
    {"ablation_fbfly", "f93650126135ebbf"},
    {"ablation_fbfly_transient", "d8d0f6ca7012e3f1"},
    {"ablation_torus", "4fd352efcb160cf3"},
    {"fault_degradation", "f08bd585d0ca2112"},
    {"fault_transient", "6e0d26a103e0924c"},
    {"notification_transient", "8258e61986b5038d"},
    {"congestion_map", "145cd8b2b21f73df"},
};

}  // namespace

int main() {
  RunContext ctx;
  ctx.scale = "tiny";
  ctx.base = presets::by_name(ctx.scale);
  ctx.options.warmup = 300;
  ctx.options.measure = 500;

  int mismatches = 0;
  std::string table;
  for (const ExperimentSpec& spec : experiment_registry()) {
    const ResultsDoc doc = run_experiment(spec, ctx);
    const std::string digest = fnv1a_hex(to_json(doc).dump());
    table += std::string("    {\"") + spec.name + "\", \"" + digest + "\"},\n";
    const auto pinned = kDigests.find(spec.name);
    if (pinned == kDigests.end() || pinned->second != digest) {
      std::fprintf(stderr, "%s: digest %s, pinned %s\n", spec.name,
                   digest.c_str(),
                   pinned == kDigests.end() ? "(none)"
                                            : pinned->second.c_str());
      ++mismatches;
    }
  }
  if (kDigests.size() != experiment_registry().size()) {
    std::fprintf(stderr, "%zu digests pinned for %zu experiments\n",
                 kDigests.size(), experiment_registry().size());
    ++mismatches;
  }
  if (mismatches > 0) {
    std::fprintf(stderr, "digest table of this build:\n%s", table.c_str());
    return EXIT_FAILURE;
  }
  std::printf("%zu registry documents match their digests\n",
              kDigests.size());
  return EXIT_SUCCESS;
}
