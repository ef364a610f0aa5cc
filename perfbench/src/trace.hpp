#pragma once
// In-memory span recorder for the traced replay.
//
// A span is (name, start, end, parent, run id).  Spans nest through an
// explicit stack: begin() makes the innermost open span the new one's
// parent.  Everything stays in memory until the run ends; chrome_json()
// then renders Chrome trace-event JSON (load it in Perfetto or
// chrome://tracing).  A disabled tracer records nothing and reads no clock,
// which is what the tracing-overhead measurement compares against.

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::uint64_t kNoRun = ~std::uint64_t{0};

struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  ///< index into the span list; -1 for a root
  std::uint64_t run = kNoRun;

  [[nodiscard]] double duration_us() const { return end_us - start_us; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Returns a stable pointer to a copy of `name` (span names built at run
  /// time, e.g. "apps.nyx.run", must outlive the spans that use them).
  const char* intern(const std::string& name);

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int begin(const char* name, std::uint64_t run = kNoRun);
  void end(int index);

  /// RAII begin/end.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t run = kNoRun)
        : tracer_(tracer), index_(tracer.begin(name, run)) {}
    ~Scope() { tracer_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Chrome trace-event JSON ("X" complete events, microsecond timestamps).
  [[nodiscard]] std::string chrome_json() const;

 private:
  using Clock = std::chrono::steady_clock;
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::deque<std::string> names_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
[[nodiscard]] std::vector<double> self_times_us(const std::vector<Span>& spans);

}  // namespace perfbench
