// SpinBarrier completion contract (the sharded cycle loop advances the
// clock in it). Over kThreads threads and kGenerations generations:
//  - the completion runs exactly once per generation, on one thread, and
//    before any waiter returns;
//  - every write a thread made before arriving is visible to it;
//  - its own writes are visible to every thread after the release;
//  - the idle step (where shards draw traffic ahead) runs only on waiters,
//    never on the thread that completes the generation.
// The shared state is plain (non-atomic) memory on purpose: under TSan any
// missing happens-before edge is reported as a data race.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "engine/spin_barrier.hpp"

namespace {

constexpr std::int32_t kThreads = 4;
constexpr std::int64_t kGenerations = 20000;

struct Shared {
  std::int64_t arrived[kThreads] = {};  // written by each thread pre-arrival
  std::int64_t completions = 0;         // written only by completions
  std::int64_t published = -1;          // last generation the completion saw
  std::int64_t bad = 0;                 // failures seen by completions
};

}  // namespace

int main() {
  dfsim::SpinBarrier barrier(kThreads);
  Shared s;
  std::vector<std::int64_t> thread_bad(kThreads, 0);
  std::vector<std::int64_t> thread_ran(kThreads, 0);
  std::vector<std::int64_t> thread_idle(kThreads, 0);

  const auto body = [&](std::int32_t t) {
    const auto ti = static_cast<std::size_t>(t);
    for (std::int64_t g = 0; g < kGenerations; ++g) {
      s.arrived[t] = g;
      bool completed = false;
      std::int64_t idle_calls = 0;
      barrier.arrive_and_wait(
          [&] {
            completed = true;
            // Every thread's pre-arrival write of this generation is
            // visible.
            for (std::int32_t i = 0; i < kThreads; ++i) {
              if (s.arrived[i] != g) ++s.bad;
            }
            // Exactly once per generation: the previous one ran for g - 1.
            if (s.completions != g || s.published != g - 1) ++s.bad;
            ++s.completions;
            s.published = g;
            ++thread_ran[ti];
          },
          [&] {
            // Thread-local work only; every other call yields instead.
            ++idle_calls;
            return (idle_calls & 1) != 0;
          });
      // The completion ran before this thread returned, and its writes are
      // visible here; the completing thread never idled.
      if (s.completions != g + 1 || s.published != g ||
          (completed && idle_calls != 0)) {
        ++thread_bad[ti];
      }
      thread_idle[ti] += idle_calls;
    }
  };

  std::vector<std::thread> workers;
  for (std::int32_t t = 1; t < kThreads; ++t) workers.emplace_back(body, t);
  body(0);
  for (std::thread& w : workers) w.join();

  std::int64_t ran = 0;
  std::int64_t bad = s.bad;
  std::int64_t idled = 0;
  for (std::int32_t t = 0; t < kThreads; ++t) {
    ran += thread_ran[static_cast<std::size_t>(t)];
    bad += thread_bad[static_cast<std::size_t>(t)];
    idled += thread_idle[static_cast<std::size_t>(t)];
  }
  // Waiters did idle: kThreads - 1 of them per generation.
  if (bad != 0 || ran != kGenerations || s.completions != kGenerations ||
      idled == 0) {
    std::fprintf(stderr,
                 "barrier contract broken: %lld failures, %lld completions "
                 "run over %lld generations, %lld idle calls\n",
                 static_cast<long long>(bad), static_cast<long long>(ran),
                 static_cast<long long>(kGenerations),
                 static_cast<long long>(idled));
    return EXIT_FAILURE;
  }

  // The plain no-completion form still synchronizes.
  std::int64_t shared = 0;
  dfsim::SpinBarrier pair(2);
  std::thread writer([&] {
    shared = 42;
    pair.arrive_and_wait();
  });
  pair.arrive_and_wait();
  const bool seen = shared == 42;  // read before join: the barrier orders it
  writer.join();
  if (!seen) {
    std::fprintf(stderr, "plain arrive_and_wait lost a write\n");
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
