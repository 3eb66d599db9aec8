#include "engine/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>

#include "util/cli.hpp"

namespace dfsim {

void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& job) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::size_t error_index = n;
  std::exception_ptr error;
  auto worker = [&]() {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        job(i);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  if (error) std::rethrow_exception(error);
}

int pool_threads(int threads, std::size_t jobs) {
  if (threads <= 0) {
    threads = static_cast<int>(
        CliOptions::env_int("DFSIM_THREADS",
                            static_cast<std::int64_t>(
                                std::thread::hardware_concurrency())));
  }
  return static_cast<int>(std::clamp<std::int64_t>(
      threads, 1, std::max<std::int64_t>(1, static_cast<std::int64_t>(jobs))));
}

std::vector<SteadyResult> run_sweep(const std::vector<SweepPoint>& points,
                                    int threads) {
  std::vector<SteadyResult> results(points.size());
  if (points.empty()) return results;

  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return points[a].params.traffic.load >
                            points[b].params.traffic.load;
                   });
  parallel_for(points.size(), pool_threads(threads, points.size()),
               [&](std::size_t k) {
                 const SweepPoint& pt = points[order[k]];
                 results[order[k]] = run_steady(pt.params, pt.options);
               });
  return results;
}

}  // namespace dfsim
