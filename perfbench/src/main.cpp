// ffis_perfbench — the campaign benchmark.
//
//   ffis_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--git-sha SHA]
//
// --trace 0 measures the end-to-end metrics with tracing off: it repeats
// whole campaigns of the workload's plan for S seconds, each with fresh
// application objects and a fresh engine (or coordinator and workers), and
// reports medians over the campaigns.  --trace 1 runs the plan once with
// keep_details, replays a seeded sample of its runs on one thread with a
// span around every layer call (replay.hpp), and reports the per-layer
// metrics.  Both modes first compute reference tallies outside any timed
// window and count every run of a cell whose tallies differ as failed:
//
//   local workloads  the reference path (use_checkpoints = false,
//                    use_diff_classification = false), same seed;
//   fleet-warm       the local engine's cold pass, which also fills the
//                    checkpoint store the fleet then starts warm from.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the line before it ("meta: {...}") records the machine, build
// and run parameters.  .bench_out/ receives the same two objects plus, with
// --trace 1, the Chrome trace of the replay.  Local workloads run the engine
// on every hardware thread but one.  Exit code
// 0 when every run passed its checks, 1 otherwise, 2 on usage errors.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ffis/core/checkpoint_store.hpp"
#include "ffis/core/outcome.hpp"
#include "ffis/dist/protocol.hpp"
#include "ffis/exp/engine.hpp"
#include "ffis/exp/sink.hpp"
#include "ffis/util/logging.hpp"
#include "fleet.hpp"
#include "replay.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

namespace exp = ffis::exp;
namespace core = ffis::core;
namespace fs = std::filesystem;
using perfbench::FailedCount;
using Clock = std::chrono::steady_clock;

/// Runs per work unit of the fleet workload.
constexpr std::uint64_t kFleetUnitRuns = 16;
constexpr std::size_t kFleetWorkers = 2;
/// Campaigns a timed window measures at least, however long they take.
constexpr std::size_t kMinCampaigns = 3;
/// The whole invocation is abandoned (exit 3, no result) past this point.
constexpr int kWatchdogSeconds = 170;
/// Results, traces and the fleet's checkpoint store, under the working directory.
const fs::path kOutDir = ".bench_out";

/// Engine threads of the local workloads: every hardware thread but one,
/// which is left to the kernel and the rest of the process so that none of
/// the engine's threads waits for a core.
std::size_t engine_threads() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores > 1 ? cores - 1 : 1;
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  int trace = 0;
  std::string git_sha = "unknown";  ///< recorded in the meta line only
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

/// Ends the process (exit 3, no result line) if the benchmark overruns.
class Watchdog {
 public:
  explicit Watchdog(int seconds)
      : thread_([this, seconds] {
          std::unique_lock lock(mutex_);
          if (!cv_.wait_for(lock, std::chrono::seconds(seconds), [this] { return done_; })) {
            std::fprintf(stderr, "perfbench: watchdog expired after %d s\n", seconds);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

/// Metrics in emission order.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  /// name.p50 and name.tail (tail_level's percentile) of `samples`.
  void add_summary(const std::string& name, const std::vector<double>& samples,
                   const std::string& unit, std::map<std::string, double>& levels) {
    const perfbench::Summary s = perfbench::summarize(samples);
    add(name + ".p50", s.p50, unit);
    add(name + ".tail", s.tail, unit);
    levels[name] = s.tail_level;
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[256];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", items_[i].name.c_str(), items_[i].value,
                    items_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

using Tallies = std::vector<std::array<std::uint64_t, core::kOutcomeCount>>;

Tallies tallies_of(const exp::ExperimentReport& report) {
  Tallies t(report.cells.size());
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
      t[i][o] = report.cells[i].tally.count(static_cast<core::Outcome>(o));
    }
  }
  return t;
}

/// Adds every cell of `report` to `failed` against the reference tallies.
void check_report(const exp::ExperimentPlan& plan, const exp::ExperimentReport& report,
                  const Tallies& reference, FailedCount& failed) {
  const Tallies got = tallies_of(report);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    perfbench::CellCheck check;
    check.attempted = plan.cells()[i].runs;
    if (i >= report.cells.size()) {
      check.error = true;
    } else {
      check.completed = report.cells[i].runs_completed;
      check.error = !report.cells[i].error.empty();
      check.tally_matches = i < reference.size() && got[i] == reference[i];
      if (check.error) {
        std::fprintf(stderr, "perfbench: cell %s: %s\n", plan.cells()[i].label.c_str(),
                     report.cells[i].error.c_str());
      } else if (!check.tally_matches) {
        std::fprintf(stderr, "perfbench: cell %s: tallies differ from the reference\n",
                     plan.cells()[i].label.c_str());
      }
    }
    failed.add(check);
  }
}

/// Tallies of the reference path: no checkpoints, full analysis per run.
Tallies reference_tallies(const perfbench::WorkloadSpec& spec, const Args& args) {
  const auto plan = perfbench::make_plan(spec, args.seed);
  exp::EngineOptions options;
  options.threads = engine_threads();
  options.use_checkpoints = false;
  options.use_diff_classification = false;
  const auto report = exp::Engine(options).run(plan);
  for (const auto& cell : report.cells) {
    if (!cell.error.empty() || cell.runs_completed != cell.cell.runs) {
      throw std::runtime_error("reference path failed on cell " + cell.cell.label + ": " +
                               cell.error);
    }
  }
  return tallies_of(report);
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

/// Restarts the kernel's peak-RSS watermark (VmHWM) at the current RSS.
/// Returns false where the kernel does not support the reset.
bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

/// Peak resident set in MiB: VmHWM when available, else ru_maxrss.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

/// One campaign's end-to-end observations.
struct Campaign {
  double campaign_s = 0.0;
  double setup_s = 0.0;
  double runs_per_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t runs = 0;
};

Campaign local_campaign(const perfbench::WorkloadSpec& spec, const Args& args,
                        const Tallies& reference, FailedCount& failed) {
  const auto plan = perfbench::make_plan(spec, args.seed);
  const std::uint64_t total = plan.total_runs();
  std::atomic<std::int64_t> first_ns{-1};
  std::atomic<std::int64_t> last_ns{-1};
  Clock::time_point start;
  exp::EngineOptions options;
  options.threads = engine_threads();
  options.progress = [&](std::uint64_t done, std::uint64_t runnable) {
    if (done != 1 && done != runnable) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start);
    if (done == 1) first_ns.store(ns.count());
    if (done == runnable) last_ns.store(ns.count());
  };
  exp::Engine engine(options);
  start = Clock::now();
  const auto report = engine.run(plan);
  Campaign c;
  c.campaign_s = seconds_since(start);
  c.runs = report.total_runs;
  c.setup_s = static_cast<double>(first_ns.load()) / 1e9;
  const double span_s = static_cast<double>(last_ns.load() - first_ns.load()) / 1e9;
  c.runs_per_s = span_s > 0.0 ? static_cast<double>(total - 1) / span_s : 0.0;
  check_report(plan, report, reference, failed);
  return c;
}

/// Entry count and bytes of a checkpoint-store directory.
std::pair<std::uint64_t, std::uint64_t> dir_usage(const std::string& dir) {
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    ++entries;
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return {entries, bytes};
}

/// A fresh checkpoint-store directory under the output directory, removed
/// when the holder goes away.
class ScratchStore {
 public:
  explicit ScratchStore(const Args& args)
      : path_(fs::absolute(kOutDir /
                           ("store-" + args.workload + "-" + std::to_string(::getpid())))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchStore() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchStore(const ScratchStore&) = delete;
  ScratchStore& operator=(const ScratchStore&) = delete;
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

/// The untimed cold pass of fleet-warm: fills the store, returns the report.
exp::ExperimentReport cold_local_pass(const exp::ExperimentPlan& plan, const std::string& store,
                                      bool keep_details) {
  exp::EngineOptions options;
  options.threads = engine_threads();
  options.checkpoint_dir = store;
  options.keep_details = keep_details;
  auto report = exp::Engine(options).run(plan);
  for (const auto& cell : report.cells) {
    if (!cell.error.empty()) {
      throw std::runtime_error("local pass failed on cell " + cell.cell.label + ": " + cell.error);
    }
  }
  return report;
}

struct Results {
  Metrics metrics;
  FailedCount failed;
  bool warm_ok = true;
  std::map<std::string, std::string> meta;
};

void end_to_end(const perfbench::WorkloadSpec& spec, const Args& args, Results& out) {
  std::vector<Campaign> campaigns;
  double cpu_s = 0.0;
  Clock::time_point window;
  std::uint64_t runs = 0;
  // One untimed (but checked) campaign first warms the caches, the heap and
  // the store's page cache.  Every timed campaign then starts from a trimmed
  // heap, so the freed memory of earlier campaigns neither inflates its peak
  // RSS nor spares it the page faults a lone campaign pays.  Each peak is
  // read from a watermark reset just before the campaign (the median over
  // campaigns is far steadier than the window's maximum); the trim is
  // outside the CPU time.
  const auto measure = [&](auto&& one_campaign) {
    bool per_campaign_peak = true;
    (void)one_campaign();
    window = Clock::now();
    while (campaigns.size() < kMinCampaigns || seconds_since(window) < args.seconds) {
      ::malloc_trim(0);
      per_campaign_peak = reset_peak_rss() && per_campaign_peak;
      const double cpu_start = cpu_seconds();
      campaigns.push_back(one_campaign());
      cpu_s += cpu_seconds() - cpu_start;
      campaigns.back().peak_rss_mb = peak_rss_mb();
      runs += campaigns.back().runs;
    }
    out.meta["peak_rss_scope"] = per_campaign_peak ? "campaign" : "process";
  };

  if (!spec.fleet) {
    const Tallies reference = reference_tallies(spec, args);
    measure([&] { return local_campaign(spec, args, reference, out.failed); });
  } else {
    ScratchStore store(args);
    const Tallies reference = tallies_of(
        cold_local_pass(perfbench::make_plan(spec, args.seed), store.str(), false));
    const auto before = dir_usage(store.str());
    std::uint64_t regranted = 0;
    measure([&] {
      const auto plan = perfbench::make_plan(spec, args.seed);
      const auto run = perfbench::run_fleet(plan, store.str(), kFleetWorkers, kFleetUnitRuns);
      check_report(plan, run.report, reference, out.failed);
      regranted += run.report.units_regranted;
      Campaign c;
      c.campaign_s = run.wall_s;
      c.runs = run.report.total_runs;
      c.setup_s = run.wire.first_result_s;
      const double span_s = run.wire.last_result_s - run.wire.first_result_s;
      c.runs_per_s = span_s > 0.0 ? static_cast<double>(run.wire.result_rows -
                                                        run.wire.first_result_rows) /
                                        span_s
                                  : 0.0;
      return c;
    });
    // The coordinator's report cannot show warmth (it never runs the
    // workload), so check it from outside: a warm fleet writes nothing.
    const auto after = dir_usage(store.str());
    out.warm_ok = before == after;
    if (!out.warm_ok) {
      std::fprintf(stderr, "perfbench: checkpoint store changed during the timed window "
                           "(%llu entries / %llu bytes -> %llu / %llu)\n",
                   static_cast<unsigned long long>(before.first),
                   static_cast<unsigned long long>(before.second),
                   static_cast<unsigned long long>(after.first),
                   static_cast<unsigned long long>(after.second));
    }
    out.meta["store_entries"] = std::to_string(before.first);
    out.meta["store_bytes"] = std::to_string(before.second);
    out.meta["units_regranted"] = std::to_string(regranted);
  }

  std::vector<double> campaign_s, setup_s, runs_per_s, rss_mb;
  for (const Campaign& c : campaigns) {
    campaign_s.push_back(c.campaign_s);
    setup_s.push_back(c.setup_s);
    runs_per_s.push_back(c.runs_per_s);
    rss_mb.push_back(c.peak_rss_mb);
  }
  out.metrics.add("campaign_s", perfbench::median(campaign_s), "s");
  out.metrics.add("setup_s", perfbench::median(setup_s), "s");
  out.metrics.add("runs_per_s", perfbench::median(runs_per_s), "1/s");
  out.metrics.add("cpu_ms_per_run",
                  runs == 0 ? 0.0 : cpu_s * 1000.0 / static_cast<double>(runs),
                  "ms");
  out.metrics.add("peak_rss_mb", perfbench::median(rss_mb), "MB");
  // Every campaign's values, so a run's spread can be read off its meta line.
  const auto join = [](const std::vector<double>& v) {
    std::string s;
    char buf[32];
    for (double x : v) {
      std::snprintf(buf, sizeof buf, "%s%.4g", s.empty() ? "" : " ", x);
      s += buf;
    }
    return s;
  };
  out.meta["campaigns.campaign_s"] = join(campaign_s);
  out.meta["campaigns.setup_s"] = join(setup_s);
  out.meta["campaigns.runs_per_s"] = join(runs_per_s);
  out.meta["campaigns.peak_rss_mb"] = join(rss_mb);
  out.meta["campaigns"] = std::to_string(campaigns.size());
  out.meta["window_s"] = std::to_string(seconds_since(window));
}

/// Per-call latency of the CSV and JSONL sinks over the report's cells.
std::vector<double> sink_cell_us(const exp::ExperimentPlan& plan,
                                 const exp::ExperimentReport& report) {
  std::vector<double> samples;
  for (int pass = 0; pass < 20; ++pass) {
    std::ostringstream csv_out, jsonl_out;
    exp::CsvSink csv(csv_out);
    exp::JsonlSink jsonl(jsonl_out);
    for (exp::ResultSink* sink : {static_cast<exp::ResultSink*>(&csv),
                                  static_cast<exp::ResultSink*>(&jsonl)}) {
      sink->begin(plan);
      for (const auto& cell : report.cells) {
        const auto t = Clock::now();
        sink->cell(cell);
        samples.push_back(seconds_since(t) * 1e6);
      }
      sink->end(report);
    }
  }
  return samples;
}

/// Encode+decode time of RunBatch frames carrying the report's runs.
std::vector<double> run_batch_codec_us(const exp::ExperimentReport& report) {
  std::vector<ffis::dist::RunRow> rows;
  for (const auto& cell : report.cells) {
    for (std::size_t r = 0; r < cell.details.size(); ++r) {
      const auto& d = cell.details[r];
      ffis::dist::RunRow row;
      row.cell_index = static_cast<std::uint32_t>(cell.index);
      row.run_index = r;
      row.outcome = d.outcome;
      row.fault_fired = d.fault_fired;
      row.analyze_skipped = d.analyze_skipped;
      row.fs_stats = d.fs_stats;
      row.execute_ms = d.execute_ms;
      row.analyze_ms = d.analyze_ms;
      rows.push_back(row);
    }
  }
  std::vector<double> samples;
  for (int pass = 0; pass < 5; ++pass) {
    for (std::size_t begin = 0; begin < rows.size(); begin += ffis::dist::kRunBatchRows) {
      ffis::dist::RunBatch batch;
      const std::size_t end = std::min(rows.size(), begin + ffis::dist::kRunBatchRows);
      batch.rows.assign(rows.begin() + static_cast<std::ptrdiff_t>(begin),
                        rows.begin() + static_cast<std::ptrdiff_t>(end));
      const auto t = Clock::now();
      const auto decoded = ffis::dist::decode_run_batch(ffis::dist::encode(batch));
      samples.push_back(seconds_since(t) * 1e6);
      if (decoded.rows.size() != batch.rows.size()) {
        throw std::runtime_error("RunBatch round trip lost rows");
      }
    }
  }
  return samples;
}

void per_layer(const perfbench::WorkloadSpec& spec, const Args& args, Results& out) {
  const auto plan = perfbench::make_plan(spec, args.seed);
  std::optional<ScratchStore> store;
  std::optional<core::CheckpointStore> warm_store;
  exp::ExperimentReport report;
  perfbench::FleetRun fleet;
  if (!spec.fleet) {
    const Tallies reference = reference_tallies(spec, args);
    exp::EngineOptions options;
    options.threads = engine_threads();
    options.keep_details = true;
    report = exp::Engine(options).run(plan);
    check_report(plan, report, reference, out.failed);
  } else {
    store.emplace(args);
    report = cold_local_pass(plan, store->str(), true);
    const Tallies reference = tallies_of(report);
    const auto fleet_plan = perfbench::make_plan(spec, args.seed);
    fleet = perfbench::run_fleet(fleet_plan, store->str(), kFleetWorkers, kFleetUnitRuns);
    check_report(fleet_plan, fleet.report, reference, out.failed);
    warm_store.emplace(store->str());
  }

  perfbench::Tracer trace(true);
  const perfbench::Replay replay(plan, trace, warm_store ? &*warm_store : nullptr);
  const auto sample = perfbench::sample_runs(plan, spec.replay_per_cell, args.seed);

  // Replay-loop wall time with spans off and on, alternating, best of three
  // each.  Pass 0 only warms the run-store pool; pass 5's spans are kept.
  constexpr bool kTraced[] = {false, true, false, true, false, true, false};
  constexpr int kKept = 5;
  double off_s = 1e300;
  double on_s = 1e300;
  perfbench::ReplayTotals totals;
  for (int pass = 0; pass < 7; ++pass) {
    perfbench::Tracer scratch(kTraced[pass]);
    const auto t = Clock::now();
    const auto pass_totals = replay.run(sample, report, pass == kKept ? trace : scratch);
    const double s = seconds_since(t);
    out.failed.add(pass_totals.runs, pass_totals.mismatches);
    if (pass_totals.mismatches > 0) {
      std::fprintf(stderr, "perfbench: %llu replayed outcomes differ from the engine's\n",
                   static_cast<unsigned long long>(pass_totals.mismatches));
    }
    if (pass == kKept) totals = pass_totals;
    double& best = kTraced[pass] ? on_s : off_s;
    if (pass > 0) best = std::min(best, s);
  }

  // Span aggregates.
  const auto& spans = trace.spans();
  const auto self = perfbench::self_times_us(spans);
  std::map<std::string, double> total_us;
  std::map<std::string, std::vector<double>> samples_us;
  double run_loop_us = 0.0;
  double analyze_self_us = 0.0;
  double app_run_self_us = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    total_us[name] += spans[i].duration_us();
    if (spans[i].run != perfbench::kNoRun) samples_us[name].push_back(spans[i].duration_us());
    if (name == "run") run_loop_us += spans[i].duration_us();
    if (name.starts_with("apps.") && name.ends_with(".analyze")) analyze_self_us += self[i];
    if (name.starts_with("apps.") && name.ends_with(".run")) app_run_self_us += self[i];
  }
  const auto ms_of = [&](const char* name) { return total_us[name] / 1000.0; };
  const auto in_ms = [&](const std::string& name) {
    std::vector<double> v = samples_us[name];
    for (double& x : v) x /= 1000.0;
    return v;
  };
  const double runs = static_cast<double>(std::max<std::uint64_t>(totals.runs, 1));
  std::map<std::string, double> levels;
  Metrics& m = out.metrics;

  m.add("core.golden_ms", ms_of("core.golden"), "ms");
  m.add("core.capture_ms", ms_of("core.capture") + ms_of("core.grow_golden_tree"), "ms");
  m.add("core.profile_ms", ms_of("core.profile"), "ms");
  m.add("core.store_load_ms", ms_of("core.store_load"), "ms");
  m.add_summary("core.fork_us", samples_us["core.fork"], "us", levels);
  // Metric names use the layer's short name; spans carry Application::name().
  for (const auto& [layer, app] : {std::pair{"nyx", "nyx"}, std::pair{"qmc", "qmcpack"},
                                   std::pair{"montage", "montage"}}) {
    const std::string metric = std::string("apps.") + layer;
    const std::string span = std::string("apps.") + app;
    m.add_summary(metric + ".run_ms", in_ms(span + ".run"), "ms", levels);
    m.add_summary(metric + ".analyze_ms", in_ms(span + ".analyze"), "ms", levels);
  }
  m.add_summary("vfs.diff_tree_us", samples_us["vfs.diff_tree"], "us", levels);
  m.add("vfs.analyze_skip_share", static_cast<double>(totals.analyze_skipped) / runs, "share");
  m.add("vfs.dirty_bytes_per_run", static_cast<double>(totals.dirty_bytes) / runs, "B");
  m.add("vfs.bytes_read_per_run", static_cast<double>(totals.bytes_read) / runs, "B");
  m.add("vfs.cow_bytes_per_run", static_cast<double>(totals.cow_bytes) / runs, "B");
  m.add("vfs.chunk_detaches_per_run", static_cast<double>(totals.chunk_detaches) / runs, "count");
  m.add("vfs.chunks_allocated_per_run", static_cast<double>(totals.chunks_allocated) / runs,
        "count");
  m.add("vfs.block_device.sectors_faulted_per_run",
        static_cast<double>(totals.sectors_faulted) / runs, "count");
  m.add("vfs.block_device.crc_detected_share", static_cast<double>(totals.crc_runs) / runs,
        "share");
  m.add("vfs.snapshot_decode_ms", ms_of("vfs.snapshot_decode"), "ms");
  m.add("faults.fired_share", static_cast<double>(totals.fired) / runs, "share");
  m.add("exp.sink_cell_us", perfbench::median(sink_cell_us(plan, report)), "us");

  const double plan_runs = static_cast<double>(plan.total_runs());
  const perfbench::WireStats& wire = fleet.wire;
  m.add("net.bytes_per_run", static_cast<double>(wire.bytes) / plan_runs, "B");
  m.add("net.frames_per_run", static_cast<double>(wire.frames) / plan_runs, "count");
  m.add("net.recv_wait_share", wire.connected_s > 0.0 ? wire.recv_wait_s / wire.connected_s : 0.0,
        "share");
  m.add("dist.run_batch_codec_us",
        spec.fleet ? perfbench::median(run_batch_codec_us(report)) : 0.0, "us");
  m.add("dist.units_regranted", static_cast<double>(fleet.report.units_regranted), "count");

  m.add("trace.analyze_self_share", run_loop_us > 0 ? analyze_self_us / run_loop_us : 0.0,
        "share");
  m.add("trace.app_run_self_share", run_loop_us > 0 ? app_run_self_us / run_loop_us : 0.0,
        "share");
  m.add("trace.overhead_share", on_s / off_s - 1.0, "share");
  m.add("failed_share", out.failed.share(), "share");

  for (const auto& [name, level] : levels) {
    out.meta["tail_level." + name] = std::to_string(level);
  }
  out.meta["replayed_runs"] = std::to_string(totals.runs);
  out.meta["replay_off_s"] = std::to_string(off_s);
  out.meta["replay_on_s"] = std::to_string(on_s);

  const fs::path trace_path =
      kOutDir / ("trace-" + args.workload + "-" + std::to_string(args.seed) + ".json");
  std::ofstream(trace_path) << trace.chrome_json();
  out.meta["trace_file"] = trace_path.string();
}

std::string meta_json(const std::map<std::string, std::string>& meta) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : meta) {
    out += (first ? "\"" : ", \"") + k + "\": \"" + v + "\"";
    first = false;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
    (void)perfbench::find_workload(args.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "usage: ffis_perfbench --workload NAME [--seed N] [--seconds S] "
                         "[--trace 0|1] [--git-sha SHA]\n%s\n",
                 e.what());
    return 2;
  }
  // The injector warns on every run whose fault did not fire; the counts are
  // what the benchmark reports (faults.fired_share), not the log lines.
  ffis::util::set_log_level(ffis::util::LogLevel::Error);
  // One malloc arena per engine thread, fixed before any thread starts.
  // Left to glibc (up to eight per core), the fleet's short-lived coordinator
  // and worker threads leave fragments in many arenas that no trim returns,
  // and the resident set grows from one campaign to the next instead of
  // measuring the campaign.
  mallopt(M_ARENA_MAX, static_cast<int>(engine_threads()));

  Watchdog watchdog(kWatchdogSeconds);
  const perfbench::WorkloadSpec& spec = perfbench::find_workload(args.workload);
  Results out;
  try {
    fs::create_directories(kOutDir);
    if (args.trace == 0) {
      end_to_end(spec, args, out);
    } else {
      per_layer(spec, args, out);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  out.meta["workload"] = spec.name;
  out.meta["seed"] = std::to_string(args.seed);
  out.meta["trace"] = std::to_string(args.trace);
  out.meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  out.meta["engine_threads"] =
      spec.fleet ? std::to_string(kFleetWorkers) + "x1" : std::to_string(engine_threads());
  out.meta["runs_per_cell"] = std::to_string(spec.runs_per_cell);
  out.meta["compiler"] = PERFBENCH_COMPILER;
  out.meta["build_type"] = PERFBENCH_BUILD_TYPE;
  out.meta["git_sha"] = args.git_sha;

  const bool correct = out.failed.failed == 0 && out.warm_ok;
  char head[160];
  std::snprintf(head, sizeof head, "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                correct ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(out.failed.attempted, 1)),
                static_cast<unsigned long long>(out.failed.failed));
  const std::string meta = meta_json(out.meta);
  const std::string result = std::string(head) + "\"metrics\": " + out.metrics.json() + "}";
  std::ofstream(kOutDir / ("result-" + args.workload + "-" +
                                          std::to_string(args.seed) + "-trace" +
                                          std::to_string(args.trace) + ".json"))
      << "{\"meta\": " << meta << ", \"result\": " << result << "}\n";
  std::printf("meta: %s\n%s\n", meta.c_str(), result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
