#include "replay.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>

#include "ffis/core/checkpoint.hpp"
#include "ffis/core/fault_injector.hpp"
#include "ffis/core/io_profiler.hpp"
#include "ffis/core/run_scratch.hpp"
#include "ffis/faults/fault_generator.hpp"
#include "ffis/faults/faulting_fs.hpp"
#include "ffis/faults/media_faults.hpp"
#include "ffis/util/rng.hpp"
#include "ffis/vfs/block_device.hpp"
#include "ffis/vfs/snapshot_codec.hpp"

namespace perfbench {

namespace core = ffis::core;
namespace vfs = ffis::vfs;

struct Replay::Cell {
  const core::Application* app = nullptr;
  std::uint64_t app_seed = 0;
  int stage = -1;
  std::unique_ptr<ffis::faults::FaultGenerator> generator;
  std::shared_ptr<const core::AnalysisResult> golden;
  std::shared_ptr<const vfs::MemFs> golden_tree;
  std::shared_ptr<const core::GoldenArtifacts> artifacts;
  std::shared_ptr<const core::Checkpoint> checkpoint;
  std::uint64_t primitive_count = 0;
  const char* run_span = "";
  const char* analyze_span = "";
  const char* classify_span = "";
};

std::vector<RunSample> sample_runs(const ffis::exp::ExperimentPlan& plan, std::uint64_t per_cell,
                                   std::uint64_t seed) {
  std::vector<RunSample> out;
  ffis::util::Rng rng(seed ^ 0x7e91a5ULL);
  for (std::size_t c = 0; c < plan.size(); ++c) {
    const std::uint64_t runs = plan.cells()[c].runs;
    std::vector<std::uint64_t> idx(runs);
    for (std::uint64_t r = 0; r < runs; ++r) idx[r] = r;
    // Partial Fisher-Yates: the first `take` slots become a uniform sample.
    const std::uint64_t take = std::min(per_cell, runs);
    for (std::uint64_t i = 0; i < take; ++i) {
      std::swap(idx[i], idx[i + rng.uniform(runs - i)]);
    }
    std::sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(take));
    for (std::uint64_t i = 0; i < take; ++i) out.push_back({c, idx[i]});
  }
  return out;
}

Replay::Replay(const ffis::exp::ExperimentPlan& plan, Tracer& tracer,
               const core::CheckpointStore* store) {
  const vfs::MemFs::Options fs_options{};
  using GoldenKey = std::pair<const core::Application*, std::uint64_t>;
  using CheckpointKey = std::tuple<const core::Application*, std::uint64_t, int>;
  struct GoldenSlot {
    std::shared_ptr<const core::AnalysisResult> analysis;
    std::shared_ptr<const vfs::MemFs> tree;
  };
  struct CheckpointSlot {
    std::shared_ptr<const core::Checkpoint> checkpoint;
    std::shared_ptr<const vfs::MemFs> tree;
  };
  std::map<GoldenKey, GoldenSlot> goldens;
  std::map<CheckpointKey, CheckpointSlot> checkpoints;
  const auto checkpointed = [](const ffis::exp::Cell& c) {
    return c.stage >= 1 && c.app->stage_count() >= c.stage;
  };
  // As in the engine, a golden tree is needed only when some cell of the key
  // diffs against it instead of a checkpoint-grown tree.
  std::map<GoldenKey, bool> tree_needed;
  for (const auto& c : plan.cells()) {
    tree_needed[{c.app, c.app_seed()}] |= !checkpointed(c);
  }

  Tracer::Scope setup(tracer, "setup");
  for (const ffis::exp::Cell& spec : plan.cells()) {
    auto cell = std::make_unique<Cell>();
    cell->app = spec.app;
    cell->app_seed = spec.app_seed();
    cell->stage = spec.stage;
    const std::string app_name = spec.app->name();
    cell->run_span = tracer.intern("apps." + app_name + ".run");
    cell->analyze_span = tracer.intern("apps." + app_name + ".analyze");
    cell->classify_span = tracer.intern("apps." + app_name + ".classify");

    ffis::faults::CampaignConfig config;
    config.application = app_name;
    config.fault = spec.fault;
    config.runs = spec.runs;
    config.seed = spec.seed;
    config.stage = spec.stage;
    cell->generator = std::make_unique<ffis::faults::FaultGenerator>(std::move(config));

    const GoldenKey gkey{spec.app, cell->app_seed};
    auto [git, gnew] = goldens.try_emplace(gkey);
    if (gnew) {
      const bool want_tree = tree_needed[gkey];
      if (store != nullptr) {
        Tracer::Scope span(tracer, "core.store_load");
        auto loaded = store->load_golden(
            core::CheckpointStore::Key::of(*spec.app, cell->app_seed, -1, fs_options),
            fs_options, want_tree);
        if (!loaded || (want_tree && loaded->tree == nullptr)) {
          throw std::runtime_error("warm store has no golden entry for " + spec.label);
        }
        git->second = {std::move(loaded->analysis), std::move(loaded->tree)};
      } else {
        Tracer::Scope span(tracer, "core.golden");
        std::shared_ptr<const vfs::MemFs> tree;
        git->second.analysis = std::make_shared<const core::AnalysisResult>(
            core::FaultInjector::run_golden(*spec.app, cell->app_seed,
                                            want_tree ? &tree : nullptr, fs_options));
        git->second.tree = std::move(tree);
      }
    }
    cell->golden = git->second.analysis;
    cell->golden_tree = git->second.tree;

    if (checkpointed(spec)) {
      const CheckpointKey ckey{spec.app, cell->app_seed, spec.stage};
      auto [cit, cnew] = checkpoints.try_emplace(ckey);
      if (cnew && store != nullptr) {
        std::optional<core::CheckpointStore::LoadedCheckpoint> loaded;
        {
          Tracer::Scope span(tracer, "core.store_load");
          loaded = store->load_checkpoint(
              core::CheckpointStore::Key::of(*spec.app, cell->app_seed, spec.stage, fs_options),
              fs_options, true);
        }
        if (!loaded || loaded->golden_tree == nullptr) {
          throw std::runtime_error("warm store has no checkpoint entry for " + spec.label);
        }
        if (!loaded->app_state.empty()) (void)spec.app->restore_state(cell->app_seed, loaded->app_state);
        {
          // The store decodes through an mmap of the entry; decoding the same
          // two trees from an in-memory blob times the codec on its own.
          const vfs::MemFs* trees[] = {&loaded->checkpoint->fs(), loaded->golden_tree.get()};
          auto blob = std::make_shared<const ffis::util::Bytes>(vfs::SnapshotCodec::encode(trees));
          vfs::MemFs a(fs_options);
          vfs::MemFs b(fs_options);
          vfs::MemFs* targets[] = {&a, &b};
          Tracer::Scope span(tracer, "vfs.snapshot_decode");
          vfs::SnapshotCodec::decode(*blob, targets, blob);
        }
        cit->second = {std::move(loaded->checkpoint), std::move(loaded->golden_tree)};
      } else if (cnew) {
        {
          Tracer::Scope span(tracer, "core.capture");
          cit->second.checkpoint =
              core::Checkpoint::capture(*spec.app, cell->app_seed, spec.stage, fs_options);
        }
        Tracer::Scope span(tracer, "core.grow_golden_tree");
        cit->second.tree = cit->second.checkpoint->grow_golden_tree(*spec.app, cell->app_seed);
      }
      cell->checkpoint = cit->second.checkpoint;
      cell->golden_tree = cit->second.tree;
    }

    {
      Tracer::Scope span(tracer, tracer.intern("apps." + app_name + ".golden_artifacts"));
      vfs::MemFs scratch = cell->golden_tree->fork(vfs::MemFs::Concurrency::SingleThread);
      cell->artifacts = spec.app->golden_artifacts(scratch, *cell->golden);
    }
    {
      Tracer::Scope span(tracer, "core.profile");
      const auto& signature = cell->generator->signature();
      cell->primitive_count =
          cell->checkpoint
              ? core::profile_resume(*spec.app, *cell->checkpoint, signature, cell->app_seed)
                    .primitive_count
              : core::IoProfiler::profile(*spec.app, signature, cell->app_seed, spec.stage)
                    .primitive_count;
    }
    if (cell->primitive_count == 0) {
      throw std::runtime_error("cell " + spec.label + " never executes its target primitive");
    }
    cells_.push_back(std::move(cell));
  }
}

Replay::~Replay() = default;

ReplayTotals Replay::run(const std::vector<RunSample>& sample,
                         const ffis::exp::ExperimentReport& expected, Tracer& tracer) const {
  ReplayTotals totals;
  const vfs::MemFs::Options fs_options{};
  for (std::size_t s = 0; s < sample.size(); ++s) {
    const Cell& cell = *cells_[sample[s].cell];
    const auto& signature = cell.generator->signature();
    ffis::util::Rng rng(cell.generator->run_seed(sample[s].run));
    const std::uint64_t instance = rng.uniform(cell.primitive_count);
    const std::uint64_t feature_seed = rng();

    core::RunResult result;
    std::optional<vfs::FsDiff> diff;
    {
      Tracer::Scope run_span(tracer, "run", s);
      std::optional<core::RunScratch::Lease> lease;
      {
        Tracer::Scope span(tracer, "core.fork", s);
        lease.emplace(core::RunScratch::current().acquire(
            cell.checkpoint ? static_cast<const void*>(cell.checkpoint.get())
                            : static_cast<const void*>(&cell),
            cell.checkpoint ? &cell.checkpoint->fs() : nullptr, fs_options));
      }
      vfs::MemFs& backing = lease->fs();
      const bool media = ffis::faults::is_media_model(signature.model);
      std::shared_ptr<vfs::BlockDevice> device;
      std::optional<ffis::faults::FaultingFs> instrument;
      {
        Tracer::Scope span(tracer, "faults.arm", s);
        if (media) {
          device = std::make_shared<vfs::BlockDevice>(ffis::faults::media_device_options(signature));
          backing.set_media(device);
        }
        instrument.emplace(backing);
        if (device != nullptr) instrument->gate_media(device.get());
        if (media) {
          instrument->configure(signature);
          device->arm(ffis::faults::media_arm_spec(signature, instance, feature_seed));
        } else {
          instrument->arm(signature, instance, feature_seed);
        }
        if (cell.stage > 0) instrument->set_enabled(false);
      }
      const core::RunContext ctx{.fs = *instrument,
                                 .app_seed = cell.app_seed,
                                 .instrumented_stage = cell.stage,
                                 .instrument = &*instrument};
      bool crashed = false;
      {
        Tracer::Scope span(tracer, cell.run_span, s);
        try {
          if (cell.checkpoint) {
            cell.app->run_from(ctx, cell.checkpoint->stage());
          } else {
            cell.app->run(ctx);
          }
        } catch (const std::exception&) {
          crashed = true;
          result.outcome = core::Outcome::Crash;
        }
      }
      result.fault_fired = media ? device->fired() : instrument->fired();
      if (!crashed) {
        {
          Tracer::Scope span(tracer, "vfs.diff_tree", s);
          diff.emplace(backing.diff_tree(*cell.golden_tree));
        }
        if (diff->empty()) {
          result.outcome = core::Outcome::Benign;
          result.analyze_skipped = true;
        } else {
          try {
            {
              Tracer::Scope span(tracer, cell.analyze_span, s);
              result.analysis =
                  cell.app->analyze_dirty(backing, *diff, *cell.golden, cell.artifacts.get());
            }
            Tracer::Scope span(tracer, cell.classify_span, s);
            result.outcome = result.analysis->comparison_blob == cell.golden->comparison_blob
                                 ? core::Outcome::Benign
                                 : cell.app->classify(*cell.golden, *result.analysis);
          } catch (const std::exception&) {
            result.outcome = core::Outcome::Crash;
          }
        }
      }
      result.fs_stats = backing.stats();
      if (result.fs_stats.crc_detected > 0) result.outcome = core::Outcome::Detected;
    }

    const auto& details = expected.cells.at(sample[s].cell).details;
    const bool matches = sample[s].run < details.size() &&
                         details[sample[s].run].outcome == result.outcome &&
                         details[sample[s].run].fault_fired == result.fault_fired &&
                         details[sample[s].run].analyze_skipped == result.analyze_skipped;
    ++totals.runs;
    if (!matches) ++totals.mismatches;
    if (result.fault_fired) ++totals.fired;
    if (result.analyze_skipped) ++totals.analyze_skipped;
    totals.bytes_read += result.fs_stats.bytes_read;
    totals.cow_bytes += result.fs_stats.cow_bytes_copied;
    totals.chunk_detaches += result.fs_stats.chunk_detaches;
    totals.chunks_allocated += result.fs_stats.chunks_allocated;
    totals.sectors_faulted += result.fs_stats.sectors_faulted;
    if (result.fs_stats.crc_detected > 0) ++totals.crc_runs;
    if (diff.has_value()) {
      for (const auto& file : diff->changed) {
        for (const auto& range : file.ranges) totals.dirty_bytes += range.length;
      }
    }
  }
  return totals;
}

}  // namespace perfbench
