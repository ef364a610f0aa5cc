#pragma once
// Traced replay: re-executes a seeded sample of a plan's injection runs on
// the calling thread through the same public calls core::FaultInjector
// makes, with a span around each one, and checks every replayed outcome
// against the engine's keep_details result for that run.
//
// Set-up spans (one root "setup"):
//   core.golden            FaultInjector::run_golden
//   core.capture           Checkpoint::capture
//   core.grow_golden_tree  Checkpoint::grow_golden_tree
//   core.store_load        CheckpointStore::load_golden / load_checkpoint
//   vfs.snapshot_decode    SnapshotCodec::decode of the loaded trees
//   apps.<app>.golden_artifacts, core.profile (profile_resume / IoProfiler)
// Per-run spans (one root "run" per run, run id = flat sample index):
//   core.fork              RunScratch::acquire
//   faults.arm             FaultingFs::arm, or the BlockDevice arm
//   apps.<app>.run         Application::run_from / run
//   vfs.diff_tree          MemFs::diff_tree
//   apps.<app>.analyze     analyze_dirty / analyze
//   apps.<app>.classify    comparison-blob test + Application::classify

#include <cstdint>
#include <memory>
#include <vector>

#include "ffis/core/checkpoint_store.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/exp/result.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunSample {
  std::size_t cell = 0;
  std::uint64_t run = 0;
};

/// Up to `per_cell` distinct runs of every cell, drawn from `seed`, in
/// (cell, run) order.
[[nodiscard]] std::vector<RunSample> sample_runs(const ffis::exp::ExperimentPlan& plan,
                                                 std::uint64_t per_cell, std::uint64_t seed);

/// Counters summed over the replayed runs.
struct ReplayTotals {
  std::uint64_t runs = 0;
  std::uint64_t mismatches = 0;  ///< outcome/fired/skip differs from the engine
  std::uint64_t fired = 0;
  std::uint64_t analyze_skipped = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t dirty_bytes = 0;  ///< bytes in the diff's dirty ranges
  std::uint64_t cow_bytes = 0;
  std::uint64_t chunk_detaches = 0;
  std::uint64_t chunks_allocated = 0;
  std::uint64_t sectors_faulted = 0;
  std::uint64_t crc_runs = 0;  ///< runs whose scrub rejected a read
};

class Replay {
 public:
  /// Prepares every cell of `plan` as exp::Engine does with its default
  /// options (checkpoints and diff classification on).  With `store`, the
  /// goldens and checkpoints are loaded from it (a warm start) and a missing
  /// entry throws.  Set-up spans go to `tracer`.
  Replay(const ffis::exp::ExperimentPlan& plan, Tracer& tracer,
         const ffis::core::CheckpointStore* store = nullptr);
  ~Replay();
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// Replays `sample`, comparing each run with `expected` (an engine report
  /// of the same plan produced with keep_details).
  ReplayTotals run(const std::vector<RunSample>& sample,
                   const ffis::exp::ExperimentReport& expected, Tracer& tracer) const;

 private:
  struct Cell;
  std::vector<std::unique_ptr<Cell>> cells_;
};

}  // namespace perfbench
