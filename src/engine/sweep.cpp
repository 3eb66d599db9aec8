#include "engine/sweep.hpp"

#include <atomic>
#include <exception>
#include <mutex>
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

std::vector<SteadyResult> run_sweep(const std::vector<SweepPoint>& points,
                                    int threads) {
  std::vector<SteadyResult> results(points.size());
  if (points.empty()) return results;

  if (threads <= 0) {
    threads = static_cast<int>(
        CliOptions::env_int("DFSIM_THREADS",
                            static_cast<std::int64_t>(
                                std::thread::hardware_concurrency())));
  }
  if (threads < 1) threads = 1;
  threads = std::min<int>(threads, static_cast<int>(points.size()));

  parallel_for(points.size(), threads, [&](std::size_t i) {
    results[i] = run_steady(points[i].params, points[i].options);
  });
  return results;
}

}  // namespace dfsim
