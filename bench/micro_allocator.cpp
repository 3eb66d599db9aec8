// Micro-benchmark: separable allocator throughput at several radix/VC
// shapes (simulator hot path #1): one iteration on multi-request batches,
// and the engine's per-router call, allocate(batch, speedup 2), on the
// one-request-per-input batches it sees almost every cycle.
#include <benchmark/benchmark.h>

#include "router/allocator.hpp"
#include "util/rng.hpp"

namespace {

void BM_AllocatorIteration(benchmark::State& state) {
  using namespace dfsim;
  const auto ports = static_cast<std::int32_t>(state.range(0));
  const auto vcs = static_cast<std::int32_t>(state.range(1));
  SeparableAllocator alloc(ports, ports, vcs);
  Rng rng(7);

  AllocRequestBatch requests;
  requests.reserve(ports, vcs);
  for (std::int32_t i = 0; i < ports; ++i) {
    for (VcIndex vc = 0; vc < vcs; ++vc) {
      if (rng.next_bool(0.6)) {
        requests.add(static_cast<PortIndex>(i), vc,
                     static_cast<PortIndex>(rng.next_below(
                         static_cast<std::uint64_t>(ports))));
      }
    }
  }
  std::int64_t grants = 0;
  for (auto _ : state) {
    const auto g = alloc.allocate_iteration(requests);
    grants += static_cast<std::int64_t>(g.size());
    benchmark::DoNotOptimize(grants);
  }
  state.counters["grants/iter"] =
      benchmark::Counter(static_cast<double>(grants),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_AllocatorIteration)
    ->Args({15, 3})   // medium preset router
    ->Args({31, 3})   // paper preset router
    ->Args({64, 4});  // stress

// Each input requests with probability 0.6, one random VC to one random
// output, so some outputs are contested. Third arg: 1 = allocate() (its
// one-pass path), 0 = the same cycle as begin_cycle() + two iterate()
// calls, for comparison.
void BM_AllocateOneRequestPerInput(benchmark::State& state) {
  using namespace dfsim;
  const auto ports = static_cast<std::int32_t>(state.range(0));
  const auto vcs = static_cast<std::int32_t>(state.range(1));
  const bool one_call = state.range(2) != 0;
  constexpr std::int32_t kSpeedup = 2;
  SeparableAllocator alloc(ports, ports, vcs);
  Rng rng(7);

  AllocRequestBatch requests;
  requests.reserve(ports, vcs);
  for (std::int32_t i = 0; i < ports; ++i) {
    if (rng.next_bool(0.6)) {
      requests.add(static_cast<PortIndex>(i),
                   static_cast<VcIndex>(
                       rng.next_below(static_cast<std::uint64_t>(vcs))),
                   static_cast<PortIndex>(rng.next_below(
                       static_cast<std::uint64_t>(ports))));
    }
  }
  std::int64_t grants = 0;
  for (auto _ : state) {
    if (one_call) {
      grants += static_cast<std::int64_t>(
          alloc.allocate(requests, kSpeedup).size());
    } else {
      alloc.begin_cycle();
      for (std::int32_t it = 0; it < kSpeedup; ++it) {
        if (alloc.iterate(requests).empty() && it > 0) break;
      }
      grants += static_cast<std::int64_t>(alloc.cycle_grants().size());
    }
    benchmark::DoNotOptimize(grants);
  }
  state.counters["grants/iter"] =
      benchmark::Counter(static_cast<double>(grants),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_AllocateOneRequestPerInput)
    ->Args({15, 3, 1})
    ->Args({15, 3, 0})
    ->Args({31, 3, 1})
    ->Args({31, 3, 0});

}  // namespace
