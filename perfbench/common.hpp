// Shared pieces of the perfbench binary: span recording, a small JSON
// writer, option parsing and the verdict comparison every output check
// uses.
//
// Spans are recorded by the benchmark around its own calls into the
// library (the library itself is not instrumented).  They stay in
// memory until the process ends and are then written as Chrome
// trace-event JSON, which Perfetto and chrome://tracing open directly.
// When tracing is off a SpanScope costs one relaxed load.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/fault_sim.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Monotonic nanoseconds; steady_clock is CLOCK_MONOTONIC on Linux, so
/// spans from several processes (and from run.py) share one time axis.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- JSON -------------------------------------------------------------

[[nodiscard]] std::string json_escape(const std::string& s);

/// Append-only JSON object writer: `Json j; j.num("a", 1).str("b", "x");
/// j.render()` gives {"a":1,"b":"x"}.  Nested values are added pre-rendered.
class Json {
 public:
  Json& num(const std::string& key, double value);
  Json& num(const std::string& key, std::uint64_t value);
  Json& str(const std::string& key, const std::string& value);
  Json& boolean(const std::string& key, bool value);
  Json& raw(const std::string& key, const std::string& rendered);
  [[nodiscard]] std::string render() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

[[nodiscard]] std::string json_array(const std::vector<std::string>& rendered);
[[nodiscard]] std::string json_numbers(const std::vector<double>& values);

// --- tracing ----------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t req = 0;
  unsigned tid = 0;
  /// Pre-rendered extra "args" members (without braces), may be empty.
  std::string args;
};

class Trace {
 public:
  static Trace& instance();
  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(Span span);
  /// Writes every recorded span as Chrome trace-event JSON; `pid` and
  /// `process` label this process's track.  Returns false on I/O error.
  bool write(const std::string& path, unsigned pid,
             const std::string& process) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Small dense per-thread id for the trace's tid field.
[[nodiscard]] unsigned thread_index();

/// RAII span around one call.  Parents nest per thread; the request id
/// is inherited from the enclosing span unless given.
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::uint64_t req = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void arg(const char* key, std::uint64_t value);

 private:
  bool on_;
  Span span_;
};

// --- options ------------------------------------------------------------

struct Options {
  std::string mode;
  std::uint64_t seed = 1;
  double seconds = 0;        // time-bounded phase length (0 = fixed work)
  unsigned iterations = 0;   // bulk: fixed-work iteration count
  unsigned requests = 0;     // service: fixed-work requests per client
  unsigned threads = 1;      // worker and client thread cap
  std::string workdir = ".";
  std::string out;
  std::string trace;         // empty = tracing off
};

// --- checks -------------------------------------------------------------

/// Verdict equality: per-class coverage, overall coverage, escapes and
/// op count.  Dispatch and scheduling telemetry are deliberately left out.
[[nodiscard]] inline bool same_verdict(const prt::analysis::CampaignResult& a,
                                       const prt::analysis::CampaignResult& b) {
  return a.by_class == b.by_class && a.overall == b.overall &&
         a.escapes == b.escapes && a.ops == b.ops;
}

/// `count` distinct ascending indices in [0, size), drawn from `seed`.
[[nodiscard]] std::vector<std::size_t> sample_indices(std::size_t size,
                                                      std::size_t count,
                                                      std::uint64_t seed);

/// Collects output-check failures; every failure is also printed.
class Checks {
 public:
  void fail(const std::string& what);
  [[nodiscard]] std::uint64_t failures() const { return failures_; }
  [[nodiscard]] std::string render() const;

 private:
  std::uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// Peak resident set of this process so far, in KiB.  Workloads read it
/// when their timed phase ends, before the output checks allocate.
[[nodiscard]] std::uint64_t peak_rss_kib();

/// Writes the result object to opt.out and the trace (when enabled).
/// Returns the process exit code.
int finish(const Options& opt, Json& result, const Checks& checks,
           unsigned pid, const std::string& process);

int run_bulk(const Options& opt);
int run_service(const Options& opt);
int run_layers(const Options& opt);

}  // namespace perfbench
