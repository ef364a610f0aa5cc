#include "workloads.hpp"

#include <memory>
#include <stdexcept>

#include "ffis/apps/montage/montage_app.hpp"
#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/apps/qmc/qmc_app.hpp"

namespace perfbench {

namespace {

const std::vector<std::string> kSyscallFaults{"BF", "SW", "DW"};

std::shared_ptr<const ffis::nyx::NyxApp> nyx_dumps(std::size_t n, int dumps) {
  ffis::nyx::NyxConfig config;
  config.field.n = n;
  config.timesteps = dumps;
  return std::make_shared<const ffis::nyx::NyxApp>(config);
}

/// bench_perf_engine's dense mosaic: a 6x3 grid with 50 % overlap, so the
/// overlap-driven stages carry realistic weight next to the final coadd.
std::shared_ptr<const ffis::montage::MontageApp> dense_montage() {
  ffis::montage::MontageConfig config;
  config.scene.tile_x0 = {0, 24, 48, 72, 96, 120};
  config.scene.tile_y0 = {0, 24, 48};
  return std::make_shared<const ffis::montage::MontageApp>(config);
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs{
      {"nyx-stage", 40, false, 24},
      {"montage-qmc-stage", 48, false, 12},
      {"whole-run", 40, false, 20},
      {"fleet-warm", 96, true, 16},
  };
  return specs;
}

const WorkloadSpec& find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return spec;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

ffis::exp::ExperimentPlan make_plan(const WorkloadSpec& spec, std::uint64_t seed) {
  ffis::exp::PlanBuilder grid;
  grid.runs(spec.runs_per_cell).seed(seed);
  if (spec.name == "nyx-stage") {
    // Restart dumps: stage 2 of a 2-dump 80^3 run and stage 3 of a 3-dump
    // 96^3 run each rewrite one slab of a multi-MiB plotfile in place, so
    // every run forks cheaply and then pays a dirty-range analysis.
    grid.app(nyx_dumps(80, 2)).faults(kSyscallFaults).stage(2).product();
    grid.app(nyx_dumps(96, 3)).faults(kSyscallFaults).stage(3).product();
  } else if (spec.name == "montage-qmc-stage") {
    grid.app(dense_montage()).faults(kSyscallFaults).stages(1, 4).product();
    grid.app(std::make_shared<const ffis::qmc::QmcApp>())
        .faults(kSyscallFaults)
        .stages(1, 2)
        .product();
  } else if (spec.name == "whole-run") {
    // Stage -1: no checkpoint, so every run executes the full write path;
    // the two media faults mount vfs::BlockDevice under the run's store.
    std::vector<std::string> faults = kSyscallFaults;
    faults.emplace_back("BIT_ROT@pwrite{sector=512,scrub=on,width=1}");
    faults.emplace_back("TORN_SECTOR@pwrite{sector=4096,scrub=on}");
    grid.app(std::make_shared<const ffis::nyx::NyxApp>()).faults(faults).product();
    grid.app(std::make_shared<const ffis::qmc::QmcApp>()).faults(faults).product();
  } else if (spec.name == "fleet-warm") {
    grid.app(nyx_dumps(80, 2)).faults(kSyscallFaults).stage(2).product();
    grid.app(std::make_shared<const ffis::qmc::QmcApp>())
        .faults(kSyscallFaults)
        .stage(2)
        .product();
  } else {
    throw std::invalid_argument("no plan for workload '" + spec.name + "'");
  }
  return grid.build();
}

}  // namespace perfbench
