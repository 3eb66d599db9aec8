// Micro-benchmark: contention-counter update cost — the paper argues the
// mechanism is cheap (Section VI-B); this quantifies head-event and
// tail-departure updates plus threshold evaluation.
#include <benchmark/benchmark.h>

#include "routing/contention_counters.hpp"
#include "routing/triggers.hpp"
#include "util/rng.hpp"

namespace {

void BM_CounterUpdateCycle(benchmark::State& state) {
  using namespace dfsim;
  const auto ports = static_cast<std::int32_t>(state.range(0));
  ContentionCounters counters(ports);
  Rng rng(11);
  for (auto _ : state) {
    const auto p = static_cast<PortIndex>(
        rng.next_below(static_cast<std::uint64_t>(ports)));
    counters.on_head(p);
    benchmark::DoNotOptimize(counters.value(p));
    counters.on_tail_departure(p);
  }
}
BENCHMARK(BM_CounterUpdateCycle)->Arg(15)->Arg(31)->Arg(64);

void BM_TriggerEvaluation(benchmark::State& state) {
  using namespace dfsim;
  ContentionThresholdTrigger trigger{6, false, 4};
  Rng rng(13);
  std::int64_t fired = 0;
  for (auto _ : state) {
    const auto counter =
        static_cast<std::int32_t>(rng.next_below(12));
    if (trigger.fires(counter, rng)) ++fired;
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_TriggerEvaluation);

void BM_StatisticalTriggerEvaluation(benchmark::State& state) {
  using namespace dfsim;
  ContentionThresholdTrigger trigger{6, true, 4};
  Rng rng(13);
  std::int64_t fired = 0;
  for (auto _ : state) {
    const auto counter =
        static_cast<std::int32_t>(rng.next_below(12));
    if (trigger.fires(counter, rng)) ++fired;
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_StatisticalTriggerEvaluation);

}  // namespace
