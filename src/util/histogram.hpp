// Log2-bucketed latency histogram: fixed storage (no heap allocation), O(1)
// insert, and approximate quantiles by linear interpolation inside the
// matching power-of-two bucket. Bucket b holds values v with
// bit_width(v) == b, i.e. [2^(b-1), 2^b); bucket 0 holds v <= 0. Mean-only
// latency hides exactly the tail effects skewed workloads create — p50/p95/
// p99 from this histogram are what the experiment drivers report.
//
// Values at or beyond the top bucket are NOT silently folded into it (that
// would make p99 under-report whenever the tail leaves the tracked range):
// they are counted separately in overflow(), still contribute to total(),
// and quantiles landing in the overflow region report the range's upper
// boundary — a visibly saturated "at least this much" answer rather than an
// interpolated underestimate.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace dfsim {

class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void add(std::int64_t value) {
    ++total_;
    const int b = value <= 0 ? 0
                             : static_cast<int>(std::bit_width(
                                   static_cast<std::uint64_t>(value)));
    if (b >= kBuckets - 1) {  // at or beyond the top bucket: overflow
      ++overflow_;
      return;
    }
    ++buckets_[static_cast<std::size_t>(b)];
  }

  [[nodiscard]] std::int64_t total() const { return total_; }
  /// Samples at or beyond the tracked range (value >= 2^(kBuckets-2)).
  [[nodiscard]] std::int64_t overflow() const { return overflow_; }
  [[nodiscard]] std::int64_t bucket(int b) const {
    return buckets_[static_cast<std::size_t>(b)];
  }
  /// Upper boundary of the tracked range; quantiles report this value when
  /// they land among the overflow samples.
  [[nodiscard]] static double overflow_boundary() {
    return std::ldexp(1.0, kBuckets - 2);
  }

  /// Value at quantile q in [0, 1]; 0 when empty. Exact to within the
  /// bucket's linear interpolation (a factor-of-2 band); saturates at
  /// overflow_boundary() when the rank falls into the overflow region.
  [[nodiscard]] double quantile(double q) const {
    if (total_ <= 0) return 0.0;
    double rank = q * static_cast<double>(total_);
    if (rank < 1.0) rank = 1.0;
    std::int64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      const std::int64_t n = buckets_[static_cast<std::size_t>(b)];
      if (n <= 0) continue;
      if (static_cast<double>(seen + n) >= rank) {
        const double lo = b == 0 ? 0.0 : std::ldexp(1.0, b - 1);
        const double hi = std::ldexp(1.0, b);
        const double frac =
            (rank - static_cast<double>(seen)) / static_cast<double>(n);
        return lo + (hi - lo) * frac;
      }
      seen += n;
    }
    return overflow_boundary();
  }

  void merge(const LatencyHistogram& other) {
    for (int b = 0; b < kBuckets; ++b) {
      buckets_[static_cast<std::size_t>(b)] +=
          other.buckets_[static_cast<std::size_t>(b)];
    }
    total_ += other.total_;
    overflow_ += other.overflow_;
  }

  friend bool operator==(const LatencyHistogram&,
                         const LatencyHistogram&) = default;

 private:
  std::array<std::int64_t, kBuckets> buckets_{};
  std::int64_t total_ = 0;
  std::int64_t overflow_ = 0;
};

}  // namespace dfsim
