// Output side of the benchmark driver: a flat JSON object writer, an
// in-memory span log, and host-clock/CPU readers. Everything is printed
// once, when the driver ends, so no I/O happens inside a timed region.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0` on the steady clock.
double seconds_since(Clock::time_point t0);

/// One flat JSON object, fields in insertion order. Doubles are printed
/// with 17 significant digits so no measured digit is lost.
class JsonObject {
 public:
  void put(const std::string& key, double v);
  void put(const std::string& key, std::uint64_t v);
  void put(const std::string& key, bool v);
  void put(const std::string& key, const std::string& v);
  /// Inserts pre-rendered JSON (an array or object) under `key`.
  void put_raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

/// A span: one timed call into a layer, with the span that caused it.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the log was created
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the log, -1 for a root
};

/// Spans kept in memory and rendered when the driver ends. Disabled logs
/// still time (the end-to-end numbers come from the same calls) but keep
/// nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  /// Opens a span under the innermost open one; returns its index.
  int open(const std::string& name);
  /// Closes span `id` and returns its duration in seconds.
  double close(int id, Clock::time_point start);
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::string json() const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times one call as a span; `seconds()` is valid after `end()`.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name)
      : log_(log), id_(log.open(name)) {}
  ~ScopedSpan() { end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  double end() {
    if (!done_) {
      seconds_ = log_.close(id_, start_);
      done_ = true;
    }
    return seconds_;
  }

 private:
  SpanLog& log_;
  int id_;
  Clock::time_point start_ = Clock::now();
  bool done_ = false;
  double seconds_ = 0.0;
};

/// Process user+system CPU seconds (all threads) so far.
double process_cpu_s();
/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// CPU time of one thread of this process, read from /proc/self/task.
struct ThreadCpu {
  long tid = 0;
  double cpu_s = 0.0;  ///< on-CPU time (schedstat, ns resolution)
  double sys_s = 0.0;  ///< system time (stat, clock-tick resolution)
};
std::vector<ThreadCpu> thread_cpu();

}  // namespace perfbench
