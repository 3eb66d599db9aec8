// Host facts stamped on every benchmark result, process memory readings,
// and the order statistics the benchmark reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dfsim::bench {

/// What makes two results comparable: runs are paired only when every
/// field but `git_rev` and `seed` matches (see id()).
struct HostFingerprint {
  std::int32_t nproc = 0;
  std::string cpu_model;
  std::string l2;  // per-core L2 size as the kernel reports it ("2048K")
  std::string l3;
  std::string compiler;
  std::string build_type;
  std::string git_rev;
  std::uint64_t seed = 0;

  /// "<nproc>c-<8 hex>": hash of the host fields, without git_rev and seed,
  /// so the same machine and toolchain give the same id on every commit.
  [[nodiscard]] std::string id() const;
  /// One-line JSON object with every field plus the id.
  [[nodiscard]] std::string json() const;
};

[[nodiscard]] HostFingerprint host_fingerprint(std::uint64_t seed);

/// Peak resident set of this process so far (getrusage ru_maxrss), MiB.
[[nodiscard]] double peak_rss_mib();
/// Current resident set of this process (/proc/self/statm), bytes.
[[nodiscard]] std::int64_t current_rss_bytes();

/// Median of `values` (mean of the middle two for even sizes); 0 if empty.
[[nodiscard]] double median(std::vector<double> values);

/// The highest percentile that still has at least `beyond` samples above
/// it: the value at ascending rank n - beyond - 1, and that rank's
/// percentile 100 * (n - beyond) / n. Falls back to the maximum when there
/// are too few samples.
struct TailPoint {
  double value = 0.0;
  double percentile = 100.0;
};
[[nodiscard]] TailPoint tail_with_samples_beyond(std::vector<double> values,
                                                 std::size_t beyond);

}  // namespace dfsim::bench
