#pragma once
// One fleet campaign: a dist::Coordinator plus in-process workers on
// loopback, each worker's socket wrapped in a counting net::Stream so the
// benchmark sees the wire from outside the dist layer.

#include <cstdint>
#include <string>

#include "ffis/exp/plan.hpp"
#include "ffis/exp/result.hpp"

namespace perfbench {

/// What the transport wrappers observed, summed over the workers.
struct WireStats {
  std::uint64_t bytes = 0;   ///< both directions, prefixes included
  std::uint64_t frames = 0;  ///< both directions
  double recv_wait_s = 0.0;  ///< worker time blocked in recv_exact
  double connected_s = 0.0;  ///< worker connection lifetimes
  /// Seconds from the campaign start to the first and last result frame
  /// (RunBatch) a worker sent, and the rows in that first frame.
  double first_result_s = -1.0;
  double last_result_s = -1.0;
  std::uint64_t first_result_rows = 0;
  std::uint64_t result_rows = 0;
};

struct FleetRun {
  ffis::exp::ExperimentReport report;
  double wall_s = 0.0;  ///< Coordinator::run start to return, workers joined
  WireStats wire;
};

/// Serves `plan` from a coordinator to `workers` one-thread workers sharing
/// the checkpoint store at `store_dir`, in units of `unit_runs` runs.
[[nodiscard]] FleetRun run_fleet(const ffis::exp::ExperimentPlan& plan,
                                 const std::string& store_dir, std::size_t workers,
                                 std::uint64_t unit_runs);

}  // namespace perfbench
