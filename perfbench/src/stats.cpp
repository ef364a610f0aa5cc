#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double tail_level(std::size_t n) {
  // Levels in tenths of a percent, so the "ten samples beyond" test is exact
  // integer arithmetic: n * (1000 - level) / 1000 >= 10.
  for (const int level : {999, 990, 950, 900, 750, 500}) {
    if (static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(1000 - level) >= 10000) {
      return level / 10.0;
    }
  }
  return 50.0;
}

Summary summarize(const std::vector<double>& samples) {
  Summary s;
  s.n = samples.size();
  s.p50 = percentile(samples, 50.0);
  s.tail_level = tail_level(samples.size());
  s.tail = percentile(samples, s.tail_level);
  return s;
}

std::uint64_t failed_runs(const CellCheck& cell) {
  if (cell.error || !cell.tally_matches) return cell.attempted;
  return cell.attempted - std::min(cell.completed, cell.attempted);
}

}  // namespace perfbench
