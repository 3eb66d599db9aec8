#include "host.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>

#include "report/schema.hpp"

#ifndef DFSIM_BENCH_BUILD_TYPE
#define DFSIM_BENCH_BUILD_TYPE "unknown"
#endif

namespace dfsim::bench {

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::size_t begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

/// Size of cpu0's unified or data cache at `level`, as sysfs prints it.
std::string cache_size(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    if (read_line(dir + "/level") != std::to_string(level)) continue;
    if (read_line(dir + "/type") == "Instruction") continue;
    return read_line(dir + "/size");
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string HostFingerprint::id() const {
  const std::string host = cpu_model + "|" + l2 + "|" + l3 + "|" + compiler +
                           "|" + build_type;
  return std::to_string(nproc) + "c-" + report::fnv1a_hex(host).substr(0, 8);
}

std::string HostFingerprint::json() const {
  std::ostringstream os;
  os << "{\"id\": " << json_string(id()) << ", \"nproc\": " << nproc
     << ", \"cpu\": " << json_string(cpu_model) << ", \"l2\": "
     << json_string(l2) << ", \"l3\": " << json_string(l3)
     << ", \"compiler\": " << json_string(compiler)
     << ", \"build_type\": " << json_string(build_type)
     << ", \"git_rev\": " << json_string(git_rev) << ", \"seed\": " << seed
     << "}";
  return os.str();
}

HostFingerprint host_fingerprint(std::uint64_t seed) {
  HostFingerprint fp;
  fp.nproc = static_cast<std::int32_t>(std::thread::hardware_concurrency());
  fp.cpu_model = cpu_model();
  fp.l2 = cache_size(2);
  fp.l3 = cache_size(3);
  fp.compiler = compiler();
  fp.build_type = DFSIM_BENCH_BUILD_TYPE;
  fp.git_rev = report::current_git_rev();
  fp.seed = seed;
  return fp;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::int64_t current_rss_bytes() {
  std::ifstream in("/proc/self/statm");
  std::int64_t size_pages = 0;
  std::int64_t resident_pages = 0;
  in >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

TailPoint tail_with_samples_beyond(std::vector<double> values,
                                   std::size_t beyond) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= beyond) return TailPoint{values.back(), 100.0};
  return TailPoint{values[n - beyond - 1],
                   100.0 * static_cast<double>(n - beyond) /
                       static_cast<double>(n)};
}

}  // namespace dfsim::bench
