// Integration tests: full FFIS campaigns against the three mini-apps,
// asserting the qualitative shapes the paper reports, plus end-to-end
// metadata experiments (sweep + doctor).

#include <gtest/gtest.h>

#include <cstdio>

#include "ffis/analysis/field_injector.hpp"
#include "ffis/analysis/hdf5_doctor.hpp"
#include "ffis/analysis/metadata_sweep.hpp"
#include "ffis/apps/montage/montage_app.hpp"
#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/apps/nyx/plotfile.hpp"
#include "ffis/apps/qmc/qmc_app.hpp"
#include "ffis/core/campaign.hpp"
#include "ffis/h5/writer.hpp"
#include "ffis/util/serialize.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace {

using namespace ffis;
using core::Outcome;

core::CampaignResult run_campaign(const core::Application& app, const std::string& fault,
                                  std::uint64_t runs, int stage = -1) {
  faults::CampaignConfig config;
  config.fault = fault;
  config.runs = runs;
  config.seed = 42;
  config.stage = stage;
  core::Campaign campaign(app, faults::FaultGenerator(config));
  return campaign.run();
}

nyx::NyxConfig small_nyx_config() {
  nyx::NyxConfig config;
  config.field.n = 32;
  return config;
}

// --- Nyx campaign shapes (paper Fig. 7) --------------------------------------------

TEST(NyxCampaigns, BitFlipIsMostlyBenign) {
  nyx::NyxApp app(small_nyx_config());
  const auto result = run_campaign(app, "BF", 80);
  EXPECT_EQ(result.faults_not_fired, 0u);
  // Paper: 91.1% benign, SDC 0.8% (lowest of the three apps).
  EXPECT_GT(result.tally.fraction(Outcome::Benign), 0.6);
  EXPECT_LT(result.tally.fraction(Outcome::Sdc), 0.25);
}

TEST(NyxCampaigns, DroppedWriteIsAlmostAllSdc) {
  nyx::NyxApp app(small_nyx_config());
  const auto result = run_campaign(app, "DW", 80);
  // Paper: 1000/1000 SDC.
  EXPECT_GT(result.tally.fraction(Outcome::Sdc), 0.8);
}

TEST(NyxCampaigns, ShornWriteIsTheMostBenignFault) {
  nyx::NyxApp app(small_nyx_config());
  const auto sw = run_campaign(app, "SW", 80);
  const auto dw = run_campaign(app, "DW", 80);
  // Paper: SW all benign; at minimum it must be far more benign than DW.
  EXPECT_GT(sw.tally.fraction(Outcome::Benign),
            dw.tally.fraction(Outcome::Benign) + 0.4);
}

TEST(NyxCampaigns, AverageValueDetectorConvertsDwSdcToDetected) {
  // The paper's headline mitigation: "all SDC cases with Nyx will be changed
  // to detected cases after using the average-value-based method".
  auto config = small_nyx_config();
  config.use_average_value_detector = true;
  nyx::NyxApp protected_app(config);
  const auto result = run_campaign(protected_app, "DW", 60);
  EXPECT_EQ(result.tally.count(Outcome::Sdc), 0u);
  EXPECT_GT(result.tally.fraction(Outcome::Detected), 0.8);
}

// --- QMCPACK campaign shapes ----------------------------------------------------------

TEST(QmcCampaigns, BitFlipIsSdcHeavy) {
  qmc::QmcApp app;
  const auto result = run_campaign(app, "BF", 60);
  // Paper: ~60% SDC, ~0.8% detected — SDC dominates the corrupted runs.
  EXPECT_GT(result.tally.fraction(Outcome::Sdc), 0.3);
  EXPECT_GT(result.tally.fraction(Outcome::Sdc),
            3.0 * result.tally.fraction(Outcome::Detected));
}

TEST(QmcCampaigns, DroppedWriteIsDetectedHeavy) {
  qmc::QmcApp app;
  const auto result = run_campaign(app, "DW", 60);
  // Paper: detected 43% >> SDC 8% — the NUL holes are visible corruption.
  EXPECT_GT(result.tally.fraction(Outcome::Detected),
            result.tally.fraction(Outcome::Sdc));
  EXPECT_GT(result.tally.fraction(Outcome::Detected), 0.3);
}

TEST(QmcCampaigns, ShornWriteHasNoDetected) {
  qmc::QmcApp app;
  const auto result = run_campaign(app, "SW", 60);
  // Paper: all SHORN_WRITE faults are benign or SDC (none detected).
  EXPECT_LE(result.tally.fraction(Outcome::Detected), 0.05);
  EXPECT_GT(result.tally.fraction(Outcome::Sdc), 0.3);
}

TEST(QmcCampaigns, FaultsInVmcSeriesAreBenign) {
  // ~40% of writes land in He.s000 / the XML echo, which the post-analysis
  // never reads: those runs must be benign (the error-masking the paper
  // attributes to multi-file output).
  qmc::QmcApp app;
  const auto result = run_campaign(app, "BF", 60);
  EXPECT_GT(result.tally.fraction(Outcome::Benign), 0.25);
  EXPECT_LT(result.tally.fraction(Outcome::Benign), 0.6);
}

// --- Montage campaign shapes ------------------------------------------------------------

TEST(MontageCampaigns, StageTwoIsTheMostResilient) {
  // Paper V-B: the mDiffExec stage has the lowest SDC rate because its
  // output feeds plane-fitting, which absorbs corruption.
  montage::MontageApp app;
  const auto mt1 = run_campaign(app, "BF", 60, 1);
  const auto mt2 = run_campaign(app, "BF", 60, 2);
  EXPECT_LE(mt2.tally.fraction(Outcome::Sdc), mt1.tally.fraction(Outcome::Sdc));
  EXPECT_GT(mt2.tally.fraction(Outcome::Benign), 0.7);
}

TEST(MontageCampaigns, BitFlipSdcRatesAreStableAcrossStages) {
  // Paper: BF SDC rates stay in a narrow band (12.8 / 8 / 9 / 6.8 %).
  montage::MontageApp app;
  for (int stage = 1; stage <= 4; ++stage) {
    const auto result = run_campaign(app, "BF", 60, stage);
    EXPECT_LT(result.tally.fraction(Outcome::Sdc), 0.35) << "stage " << stage;
    EXPECT_GT(result.tally.fraction(Outcome::Benign), 0.5) << "stage " << stage;
  }
}

TEST(MontageCampaigns, DroppedWritesAreNeverBenignInStageThree) {
  montage::MontageApp app;
  const auto result = run_campaign(app, "DW", 60, 3);
  // Paper: 98.3% SDC in stage 3 — nothing is benign, little crashes.
  EXPECT_EQ(result.tally.count(Outcome::Benign), 0u);
  EXPECT_GT(result.tally.fraction(Outcome::Sdc), 0.4);
  EXPECT_LT(result.tally.fraction(Outcome::Crash), 0.1);
}

// --- Metadata experiments end-to-end ------------------------------------------------------

class MetadataEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    config_ = small_nyx_config();
    app_ = std::make_unique<nyx::NyxApp>(config_);

    h5::H5File shape;
    h5::Dataset ds;
    ds.name = nyx::kDensityDatasetName;
    const auto n = static_cast<std::uint64_t>(config_.field.n);
    ds.dims = {n, n, n};
    ds.data.assign(n * n * n, 0.0);
    shape.datasets.push_back(std::move(ds));
    layout_ = h5::plan_layout(shape, config_.h5_options);
  }

  nyx::NyxConfig config_;
  std::unique_ptr<nyx::NyxApp> app_;
  h5::WriteInfo layout_;
};

TEST_F(MetadataEndToEnd, SweepReproducesTableThreeShape) {
  analysis::MetadataSweepConfig sweep_config;
  sweep_config.target_path = config_.plotfile_path;
  sweep_config.metadata_bytes = layout_.metadata_size;
  const auto sweep = analysis::metadata_sweep(*app_, 1, sweep_config);

  // Table III: benign 85.7%, crash 14.1%, SDC 0.2%.
  EXPECT_GT(sweep.tally.fraction(Outcome::Benign), 0.75);
  EXPECT_GT(sweep.tally.fraction(Outcome::Crash), 0.03);
  EXPECT_LT(sweep.tally.fraction(Outcome::Crash), 0.25);
  EXPECT_LT(sweep.tally.fraction(Outcome::Sdc) + sweep.tally.fraction(Outcome::Detected),
            0.06);
}

TEST_F(MetadataEndToEnd, SdcBytesComeFromTheTableFourFields) {
  analysis::MetadataSweepConfig sweep_config;
  sweep_config.target_path = config_.plotfile_path;
  sweep_config.metadata_bytes = layout_.metadata_size;
  const auto sweep = analysis::metadata_sweep(*app_, 1, sweep_config);

  for (const auto& byte_case : sweep.cases) {
    if (byte_case.outcome != Outcome::Sdc) continue;
    const auto* entry = layout_.field_map.find(byte_case.offset);
    ASSERT_NE(entry, nullptr);
    // SDC-capable bytes must be datatype/layout fields (Table IV's list),
    // never signatures, versions or unused space.
    EXPECT_TRUE(entry->cls == h5::FieldClass::DatatypeField ||
                entry->cls == h5::FieldClass::LayoutField)
        << entry->name << " produced SDC";
  }
}

TEST_F(MetadataEndToEnd, DoctorNeutralizesSweepSdcCases) {
  analysis::MetadataSweepConfig sweep_config;
  sweep_config.target_path = config_.plotfile_path;
  sweep_config.metadata_bytes = layout_.metadata_size;
  const auto sweep = analysis::metadata_sweep(*app_, 1, sweep_config);

  // Re-run each SDC byte case and let the doctor repair the file first.
  vfs::MemFs golden_fs;
  core::RunContext ctx{.fs = golden_fs, .app_seed = 1, .instrumented_stage = -1,
                       .instrument = nullptr};
  app_->run(ctx);
  const auto golden = app_->analyze(golden_fs);
  const auto snapshot = vfs::snapshot_tree(golden_fs);
  const util::Bytes golden_file = vfs::read_file(golden_fs, config_.plotfile_path);
  const analysis::Hdf5Doctor doctor(layout_, nyx::kDensityDatasetName);

  std::size_t sdc_cases = 0, repaired = 0;
  for (const auto& byte_case : sweep.cases) {
    if (byte_case.outcome != Outcome::Sdc) continue;
    ++sdc_cases;
    vfs::MemFs fs;
    vfs::restore_tree(fs, snapshot);
    util::Bytes corrupted = golden_file;
    util::Rng rng(sweep_config.seed ^ (byte_case.offset * 0x9e3779b97f4a7c15ULL));
    const std::size_t bit = byte_case.offset * 8 + rng.uniform(7);
    util::flip_bits(corrupted, bit, 2);
    vfs::write_file(fs, config_.plotfile_path, corrupted);

    (void)doctor.diagnose_and_correct(fs, config_.plotfile_path);
    try {
      const auto fixed = app_->analyze(fs);
      if (fixed.comparison_blob == golden.comparison_blob) ++repaired;
    } catch (const std::exception&) {
    }
  }
  if (sdc_cases > 0) {
    // The doctor must neutralize the large majority of metadata SDC bytes.
    EXPECT_GE(static_cast<double>(repaired) / static_cast<double>(sdc_cases), 0.7)
        << repaired << " of " << sdc_cases;
  }
}

// --- Cross-cutting determinism ---------------------------------------------------------

TEST(Determinism, CampaignTalliesAreReproducible) {
  nyx::NyxApp app(small_nyx_config());
  const auto a = run_campaign(app, "BF", 30);
  const auto b = run_campaign(app, "BF", 30);
  for (std::size_t i = 0; i < core::kOutcomeCount; ++i) {
    const auto o = static_cast<Outcome>(i);
    EXPECT_EQ(a.tally.count(o), b.tally.count(o));
  }
}

// --- Pinned on-disk output ------------------------------------------------------------
//
// Fault models target exact byte offsets, so the bytes each application
// writes are part of the science: any drift in an encoder (h5 float arrays,
// FITS pixels, text series) silently changes which field a fault lands in.
// These digests were recorded from the reference per-element codecs; a fast
// path that changes a single output byte fails here.

struct TreeDigest {
  std::size_t files = 0;
  std::uint64_t bytes = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;  ///< chained over (path, fnv1a64(file))
  std::string listing;                           ///< per-file digests, for failure output
};

void fold_tree(vfs::FileSystem& fs, const std::string& dir, TreeDigest& out) {
  for (const std::string& name : fs.readdir(dir)) {
    const std::string path = (dir == "/" ? "" : dir) + "/" + name;
    if (fs.stat(path).is_dir) {
      fold_tree(fs, path, out);
      continue;
    }
    const util::Bytes data = vfs::read_file(fs, path);
    const std::uint64_t file_digest = util::fnv1a64(data);
    util::Bytes record = util::to_bytes(path);
    util::put_le(record, file_digest, 8);
    out.digest = util::fnv1a64(record, out.digest);
    ++out.files;
    out.bytes += data.size();
    char line[32];
    std::snprintf(line, sizeof line, " %016llx\n", static_cast<unsigned long long>(file_digest));
    out.listing += path + line;
  }
}

TreeDigest golden_tree_digest(const core::Application& app) {
  vfs::MemFs fs;
  core::RunContext ctx{.fs = fs, .app_seed = 42, .instrumented_stage = -1,
                       .instrument = nullptr};
  app.run(ctx);
  TreeDigest out;
  fold_tree(fs, "/", out);
  return out;
}

void expect_tree(const core::Application& app, std::size_t files, std::uint64_t bytes,
                 std::uint64_t digest) {
  const TreeDigest got = golden_tree_digest(app);
  EXPECT_EQ(got.files, files);
  EXPECT_EQ(got.bytes, bytes);
  EXPECT_EQ(got.digest, digest) << std::hex << "tree digest 0x" << got.digest << "\n"
                                << got.listing;
}

montage::MontageConfig dense_montage_config() {
  montage::MontageConfig config;
  config.scene.tile_x0 = {0, 24, 48, 72, 96, 120};
  config.scene.tile_y0 = {0, 24, 48};
  return config;
}

TEST(PinnedOutput, NyxDefaultPlotfile) {
  expect_tree(nyx::NyxApp{}, 1, 2099576, 0xcde70eef52257282ULL);
}

TEST(PinnedOutput, NyxTwoDumps80Cubed) {
  nyx::NyxConfig config;
  config.field.n = 80;
  config.timesteps = 2;
  expect_tree(nyx::NyxApp{config}, 1, 4098424, 0xf1bdd244ae21fa17ULL);
}

TEST(PinnedOutput, MontageDefaultMosaic) {
  expect_tree(montage::MontageApp{}, 69, 1678802, 0x7656582932a38601ULL);
}

TEST(PinnedOutput, MontageDense6x3Mosaic) {
  expect_tree(montage::MontageApp{dense_montage_config()}, 143, 3051468,
              0x8136ed02fb8c08faULL);
}

TEST(PinnedOutput, QmcScalarSeries) {
  expect_tree(qmc::QmcApp{}, 3, 149826, 0x07f98b1096407b2bULL);
}

TEST(PinnedOutput, NyxSerializedState) {
  const util::Bytes state = nyx::NyxApp{}.serialize_state(42);
  EXPECT_EQ(state.size(), 2097195u);
  EXPECT_EQ(util::fnv1a64(state), 0xda09e7345b4c51e5ULL);
}

}  // namespace
