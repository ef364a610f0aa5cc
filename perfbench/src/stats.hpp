#pragma once
// The benchmark's own arithmetic: order statistics, the tail-percentile rule
// and failed-run accounting.  Pure functions, checked by selftest.cpp.

#include <cstdint>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile (`p` in [0, 100]) of unsorted samples, the
/// "linear" method of numpy and of Python's statistics.quantiles(...,
/// method="inclusive").  0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// The highest percentile level, out of 99.9 / 99 / 95 / 90 / 75 / 50, that
/// leaves at least ten of `n` samples beyond it (n * (100 - level) / 100 >= 10).
/// Below 20 samples no level qualifies and the rule falls back to 50.
[[nodiscard]] double tail_level(std::size_t n);

/// p50 plus the tail percentile chosen by tail_level, with the sample count.
struct Summary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_level = 50.0;
  std::size_t n = 0;
};
[[nodiscard]] Summary summarize(const std::vector<double>& samples);

/// Correctness facts about one plan cell, as the benchmark observed them.
struct CellCheck {
  std::uint64_t attempted = 0;  ///< runs the plan asked for
  std::uint64_t completed = 0;  ///< runs that came back
  bool error = false;           ///< the cell reported an error
  bool tally_matches = true;    ///< tallies equal the reference check's
};

/// Runs of the cell that count as failed: every run when the cell has an
/// error or its tally differs from the reference (no run of it can be
/// trusted), otherwise the runs that did not complete.
[[nodiscard]] std::uint64_t failed_runs(const CellCheck& cell);

/// failed / attempted over a set of cells; 0 when nothing was attempted.
struct FailedCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const CellCheck& cell) {
    attempted += cell.attempted;
    failed += failed_runs(cell);
  }
  /// Counts `n` attempted runs, `bad` of them failed (e.g. replayed runs).
  void add(std::uint64_t n, std::uint64_t bad) {
    attempted += n;
    failed += bad;
  }
  [[nodiscard]] double share() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  }
};

}  // namespace perfbench
