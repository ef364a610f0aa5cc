#pragma once
// Result types produced by exp::Engine and consumed by exp::ResultSink.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "ffis/core/fault_injector.hpp"
#include "ffis/core/outcome.hpp"
#include "ffis/exp/plan.hpp"

namespace ffis::exp {

/// Outcome of one plan cell.  Tallies are deterministic for a given cell
/// spec: runs land in per-index slots and are tallied in run order, so the
/// result is independent of the engine's thread count.
struct CellResult {
  std::size_t index = 0;  ///< position in the plan (and in every sink stream)
  Cell cell;
  core::OutcomeTally tally;
  std::uint64_t runs_completed = 0;  ///< < cell.runs only when cancelled
  std::uint64_t primitive_count = 0;
  std::uint64_t faults_not_fired = 0;
  /// Storage-layer counters summed over the cell's runs (RunResult::fs_stats
  /// per run).  For a checkpointed cell the per-run MemFs is a fork, so
  /// fs.cow_bytes_copied is exactly the copy-on-write cost of resuming — the
  /// number the extent store is designed to shrink.  Arena traffic shows
  /// fresh slabs frozen while bytes recycled grows with every warm run;
  /// media counters (vfs::BlockDevice cells) count corrupted sectors and
  /// scrub rejections.
  vfs::FsStats fs;
  /// Runs whose scrub rejected at least one read (per-run crc_detected > 0)
  /// — exactly the runs the injector's detection override classified
  /// Detected; detected_io_error() is the rest of the Detected tally.
  std::uint64_t detected_crc = 0;
  /// Wall time summed over the cell's runs, split at the execute/classify
  /// boundary (RunResult::execute_ms / analyze_ms).  Thread time, not
  /// elapsed time: runs execute concurrently.
  double execute_ms = 0.0;
  double analyze_ms = 0.0;
  /// Runs whose extent diff was empty — classified Benign with no analysis
  /// (and no analysis-phase reads) at all.
  std::uint64_t analyze_skipped = 0;
  bool golden_cached = false;  ///< golden run came from the engine's cache
  /// Injection runs forked a pre-fault checkpoint (stage-instrumented cell of
  /// a stage-resumable application) instead of re-running the whole workload.
  bool checkpointed = false;
  /// The checkpoint itself was captured for an earlier cell of the same
  /// (app, app_seed, stage) and reused here.
  bool checkpoint_cached = false;
  /// The checkpoint came from the persistent on-disk store
  /// (EngineOptions::checkpoint_dir) instead of being captured this process
  /// — i.e. this cell executed no fault-free prefix stages at all.
  bool checkpoint_loaded = false;
  /// Sorted ids of the workers that contributed runs to this cell under a
  /// dist::Coordinator; empty for single-process execution.  A re-granted
  /// cell legitimately lists several contributors.
  std::vector<std::uint32_t> worker_ids;
  /// Non-empty when the cell could not run at all (golden run threw, or the
  /// application never executes the target primitive — tally is empty then),
  /// or when harness infrastructure failed mid-cell (tally covers only the
  /// runs that completed; application crashes are tallied, never put here).
  std::string error;
  /// Per-run detail in run order (EngineOptions::keep_details only).
  std::vector<core::RunResult> details;

  /// Folds one executed run into the tally and counters.  exp::Engine and
  /// dist::Coordinator both fold through here, in run order, which is what
  /// keeps distributed cells bit-identical to single-process ones.
  void add_run(const core::RunResult& run) {
    ++runs_completed;
    tally.add(run.outcome);
    if (!run.fault_fired && run.outcome != core::Outcome::Crash) ++faults_not_fired;
    fs += run.fs_stats;
    if (run.fs_stats.crc_detected > 0) ++detected_crc;
    execute_ms += run.execute_ms;
    analyze_ms += run.analyze_ms;
    if (run.analyze_skipped) ++analyze_skipped;
  }

  /// Detected runs whose failure surfaced as a reported syscall error or an
  /// analysis-visible deviation rather than a scrub rejection.
  [[nodiscard]] std::uint64_t detected_io_error() const {
    const std::uint64_t detected = tally.count(core::Outcome::Detected);
    return detected - std::min(detected_crc, detected);
  }
};

struct ExperimentReport {
  std::vector<CellResult> cells;  ///< plan order
  std::uint64_t total_runs = 0;   ///< runs actually executed
  std::uint64_t golden_executions = 0;
  std::uint64_t golden_cache_hits = 0;
  std::uint64_t checkpoint_builds = 0;      ///< fault-free prefix captures executed
  std::uint64_t checkpoint_cache_hits = 0;  ///< cells that reused a cached checkpoint
  // Persistent-store traffic (EngineOptions::checkpoint_dir; all 0 without
  // one).  A fully warm plan shows golden_executions == checkpoint_builds
  // == 0 with checkpoints_loaded == the number of checkpoint keys — the
  // "zero prefix stages" signature.
  std::uint64_t checkpoints_loaded = 0;     ///< checkpoint entries served from disk
  std::uint64_t checkpoints_persisted = 0;  ///< checkpoint entries written to disk
  std::uint64_t goldens_loaded = 0;         ///< golden entries served from disk
  std::uint64_t goldens_persisted = 0;      ///< golden entries written to disk
  // Store cache-tier traffic (core::CheckpointStore::Stats, copied after the
  // last phase).  hits/misses count load attempts; evictions/gc only move
  // when a budget (EngineOptions::checkpoint_budget) forces them.  Counters
  // are per-engine even when several engines share one store directory.
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t store_evictions = 0;
  std::uint64_t store_bytes_evicted = 0;
  std::uint64_t store_gc_runs = 0;
  /// Memory held by the engine's checkpoint cache: extent-stored bytes (and
  /// allocated extents) summed over the captured snapshots — actual
  /// footprint, not logical file sizes (sparse payloads store less).
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t checkpoint_chunks = 0;
  /// Runs classified Benign straight from the extent diff, plan-wide.
  std::uint64_t analyses_skipped = 0;
  /// Plan-wide sums of the per-cell counters (see CellResult).
  vfs::FsStats fs;
  std::uint64_t detected_crc = 0;
  // Distributed execution (dist::Coordinator; both 0 for local runs).  The
  // golden/checkpoint counters above stay 0 in distributed reports: each
  // worker maintains its own caches and the coordinator never executes the
  // workload, so there is no meaningful plan-wide number to aggregate.
  std::uint64_t workers_connected = 0;  ///< workers that completed the handshake
  std::uint64_t units_regranted = 0;    ///< work units re-queued after loss/timeout
  /// Units landed by a previous coordinator incarnation and restored from
  /// the campaign journal (never re-granted, never re-executed).
  std::uint64_t units_replayed_from_journal = 0;
  /// Hellos carrying the reconnect flag — worker retry loops that re-joined
  /// after a transport fault or a coordinator restart.
  std::uint64_t worker_reconnects = 0;
  /// Stale-grant re-queues: granted units whose worker stopped sending rows
  /// *and* liveness heartbeats past the unit timeout.
  std::uint64_t heartbeat_timeouts = 0;
  bool cancelled = false;

  /// Sums the finished cells into total_runs, analyses_skipped, fs and
  /// detected_crc.  Call once, after the last cell is final.
  void sum_cells() {
    for (const CellResult& cell : cells) {
      total_runs += cell.runs_completed;
      analyses_skipped += cell.analyze_skipped;
      fs += cell.fs;
      detected_crc += cell.detected_crc;
    }
  }
};

}  // namespace ffis::exp
