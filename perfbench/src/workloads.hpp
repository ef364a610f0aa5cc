#pragma once
// The benchmark's four campaign workloads.  Each call builds a fresh plan
// with fresh application objects, so the applications' in-process caches
// (Nyx density field, QMC traces, Montage tiles) start cold every time and
// every campaign pays the set-up a user pays.

#include <cstdint>
#include <string>
#include <vector>

#include "ffis/exp/plan.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// Runs per cell of every plan the workload builds.
  std::uint64_t runs_per_cell = 0;
  /// Executed through dist::Coordinator + workers instead of exp::Engine.
  bool fleet = false;
  /// Runs per cell the traced replay samples (seeded).
  std::uint64_t replay_per_cell = 0;
};

/// Names accepted by find_workload, in BENCHMARK.json order.
[[nodiscard]] const std::vector<WorkloadSpec>& workloads();

/// The spec named `name`; throws std::invalid_argument for unknown names.
[[nodiscard]] const WorkloadSpec& find_workload(const std::string& name);

/// A fresh plan for `spec` whose cells use `seed` as the campaign seed.
[[nodiscard]] ffis::exp::ExperimentPlan make_plan(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace perfbench
