// Sense-reversing spin barrier for the sharded cycle loop. Shard counts are
// small (<= cores) and the phases between barriers are short, so spinning
// beats futex-based std::barrier wakeup latency here — and the plain
// acquire/release atomics are fully visible to TSan (the suppression file
// stays empty). A waiter spends its spin on a caller-supplied idle step and
// yields only when that step has nothing to do.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace dfsim {

class SpinBarrier {
 public:
  /// Default idle step: no work, so the waiter yields.
  struct NoIdle {
    bool operator()() const { return false; }
  };

  explicit SpinBarrier(std::int32_t parties) : parties_(parties) {}

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  /// Blocks until all `parties` threads have arrived. The last arrival runs
  /// `completion` (once per generation, while every other thread still
  /// waits), then resets the count and releases the generation; it never
  /// calls `idle`. Every other arrival calls `idle()` while the generation
  /// is unchanged: a short, bounded step of work on state only the caller
  /// touches, returning true when it did some and false to yield instead.
  /// The acq_rel chain on count_ makes every write before arriving visible
  /// to the completion; the release/acquire pair on gen_ makes those writes
  /// and the completion's visible to every thread after the barrier.
  template <typename Completion, typename Idle = NoIdle>
  void arrive_and_wait(Completion&& completion, Idle&& idle = Idle()) {
    const std::uint64_t gen = gen_.load(std::memory_order_acquire);
    if (count_.fetch_add(1, std::memory_order_acq_rel) == parties_ - 1) {
      count_.store(0, std::memory_order_relaxed);
      completion();
      gen_.store(gen + 1, std::memory_order_release);
      return;
    }
    while (gen_.load(std::memory_order_acquire) == gen) {
      if (!idle()) std::this_thread::yield();
    }
  }

  void arrive_and_wait() { arrive_and_wait([] {}); }

 private:
  const std::int32_t parties_;
  // Arrivals write count_ while waiters poll gen_: separate lines.
  alignas(64) std::atomic<std::int32_t> count_{0};
  alignas(64) std::atomic<std::uint64_t> gen_{0};
};

}  // namespace dfsim
