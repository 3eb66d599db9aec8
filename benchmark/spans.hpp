// In-memory span recorder for the benchmark's traced run.
//
// Every span wraps one call the benchmark makes into a dfsim layer, named
// "<layer>.<call>" after the src/ module it enters ("engine.run",
// "report.run_experiment", ...). Spans are opened and closed on the main
// thread only, so they nest strictly: a span's children are sequential and
// lie inside it. Nothing is written until the run ends; the spans are then
// emitted as Chrome trace-event JSON (complete "X" events, the format
// Perfetto and chrome://tracing open) and summarised as per-layer self time.
#pragma once

#include <chrono>
#include <cstdint>
#include <iomanip>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace dfsim::bench {

struct Span {
  std::string name;
  std::int32_t parent = -1;  // index into the recorder's spans; -1 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  /// A disabled recorder records nothing; scopes on it cost one branch.
  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), origin_(Clock::now()) {}

  /// Suspends or resumes recording (spans opened while paused are dropped,
  /// together with their children).
  void set_paused(bool paused) { paused_ = paused; }

  class Scope {
   public:
    Scope(SpanRecorder& rec, std::string name) : rec_(rec) {
      id_ = rec_.open(std::move(name));
    }
    ~Scope() { rec_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    std::int32_t id_ = -1;
  };

  [[nodiscard]] Scope scope(std::string name) {
    return Scope(*this, std::move(name));
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer: each span's duration minus the time its direct
  /// children cover, summed over the spans of the layer (the name's prefix
  /// before the first '.'). Because children nest inside their parent, the
  /// self times of all layers sum to the root spans' duration.
  [[nodiscard]] std::map<std::string, double> layer_self_seconds() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string layer = s.name.substr(0, s.name.find('.'));
      self[layer] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) *
                     1e-9;
    }
    return self;
  }

  /// Chrome trace-event JSON; `run_id` tags every span of this run.
  void write_chrome_trace(std::ostream& os, const std::string& run_id) const {
    os << std::fixed << std::setprecision(3)  // microseconds, ns resolution
       << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string layer = s.name.substr(0, s.name.find('.'));
      if (i > 0) os << ",\n";
      os << "    {\"name\": \"" << s.name << "\", \"cat\": \"" << layer
         << "\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": "
         << static_cast<double>(s.start_ns) * 1e-3
         << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
         << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
         << ", \"run\": \"" << run_id << "\"}}";
    }
    os << "\n  ]\n}\n";
  }

 private:
  std::int32_t open(std::string name) {
    if (!enabled_ || paused_) return -1;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(
        Span{std::move(name), open_.empty() ? -1 : open_.back(), now_ns(), 0});
    open_.push_back(id);
    return id;
  }

  void close(std::int32_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_.pop_back();
  }

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool enabled_;
  bool paused_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace dfsim::bench
