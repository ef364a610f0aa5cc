#include "ffis/dist/worker.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "ffis/core/checkpoint.hpp"
#include "ffis/core/checkpoint_store.hpp"
#include "ffis/core/fault_injector.hpp"
#include "ffis/dist/protocol.hpp"
#include "ffis/exp/plan_config.hpp"
#include "ffis/faults/fault_generator.hpp"
#include "ffis/net/framing.hpp"
#include "ffis/net/socket.hpp"
#include "ffis/util/thread_pool.hpp"

namespace ffis::dist {

namespace {

// Same cache keys as exp::Engine: goldens depend only on (app, app_seed),
// checkpoints additionally on the instrumented stage.
using GoldenKey = std::pair<const core::Application*, std::uint64_t>;
using CheckpointKey = std::tuple<const core::Application*, std::uint64_t, int>;

struct GoldenSlot {
  std::shared_ptr<const core::AnalysisResult> result;
  std::shared_ptr<const vfs::MemFs> tree;
  bool cached = false;  ///< served from this worker's in-process cache
};

struct CheckpointSlot {
  std::shared_ptr<const core::Checkpoint> checkpoint;
  std::shared_ptr<const vfs::MemFs> golden_tree;
  bool loaded = false;  ///< served from the persistent store
};

/// Everything a worker keeps per plan cell, built lazily on the cell's first
/// granted unit and reused for every later unit of the cell.
struct CellExec {
  std::unique_ptr<faults::FaultGenerator> generator;
  std::unique_ptr<core::FaultInjector> injector;
  CellInfo info;
  bool prepared = false;
  bool info_sent = false;
};

/// The worker's whole execution context: plan, stores, caches, pool.
struct WorkerContext {
  const exp::ExperimentPlan* plan = nullptr;
  /// Built from plan_text for remote workers (ExperimentPlan's default
  /// constructor is builder-private, hence the optional).
  std::optional<exp::ExperimentPlan> owned_plan;
  std::unique_ptr<core::CheckpointStore> store;
  vfs::MemFs::Options fs_options;
  bool use_checkpoints = true;
  bool use_diff_classification = true;
  util::ThreadPool pool;
  std::map<GoldenKey, GoldenSlot> goldens;
  std::map<CheckpointKey, CheckpointSlot> checkpoints;
  std::map<std::uint32_t, CellExec> cells;

  explicit WorkerContext(std::size_t threads) : pool(threads) {}
};

GoldenSlot& ensure_golden(WorkerContext& ctx, const core::Application& app,
                          std::uint64_t app_seed, bool want_tree) {
  const GoldenKey key{&app, app_seed};
  auto it = ctx.goldens.find(key);
  if (it != ctx.goldens.end() && (!want_tree || it->second.tree != nullptr)) {
    it->second.cached = true;
    return it->second;
  }
  GoldenSlot slot;
  const auto store_key =
      ctx.store ? core::CheckpointStore::Key::of(app, app_seed, -1, ctx.fs_options)
                : core::CheckpointStore::Key{};
  if (ctx.store) {
    if (auto loaded = ctx.store->load_golden(store_key, ctx.fs_options, want_tree)) {
      if (!want_tree || loaded->tree != nullptr) {
        slot.result = std::move(loaded->analysis);
        slot.tree = std::move(loaded->tree);
      }
    }
  }
  if (slot.result == nullptr) {
    // Retain the tree whenever a store is active: publishing it is what lets
    // the rest of the fleet diff-classify without running the workload.
    const bool retain = want_tree ||
                        (ctx.store != nullptr && !store_key.app_fingerprint.empty());
    slot.result = std::make_shared<const core::AnalysisResult>(
        core::FaultInjector::run_golden(app, app_seed, retain ? &slot.tree : nullptr,
                                        ctx.fs_options));
    if (ctx.store) ctx.store->save_golden(store_key, *slot.result, slot.tree.get());
    if (!want_tree) slot.tree.reset();
  }
  auto [pos, inserted] = ctx.goldens.insert_or_assign(key, std::move(slot));
  pos->second.cached = !inserted;  // an upgrade re-used the key, not the work
  return pos->second;
}

CheckpointSlot& ensure_checkpoint(WorkerContext& ctx, const core::Application& app,
                                  std::uint64_t app_seed, int stage) {
  const CheckpointKey key{&app, app_seed, stage};
  auto it = ctx.checkpoints.find(key);
  if (it != ctx.checkpoints.end()) return it->second;
  CheckpointSlot slot;
  const auto store_key =
      ctx.store ? core::CheckpointStore::Key::of(app, app_seed, stage, ctx.fs_options)
                : core::CheckpointStore::Key{};
  if (ctx.store) {
    if (auto loaded = ctx.store->load_checkpoint(store_key, ctx.fs_options,
                                                 ctx.use_diff_classification)) {
      if (!loaded->app_state.empty()) {
        (void)app.restore_state(app_seed, loaded->app_state);
      }
      if (!ctx.use_diff_classification || loaded->golden_tree != nullptr) {
        slot.checkpoint = std::move(loaded->checkpoint);
        slot.golden_tree = std::move(loaded->golden_tree);
        slot.loaded = true;
      }
    }
  }
  if (slot.checkpoint == nullptr) {
    slot.checkpoint = core::Checkpoint::capture(app, app_seed, stage, ctx.fs_options);
    if (ctx.use_diff_classification) {
      slot.golden_tree = slot.checkpoint->grow_golden_tree(app, app_seed);
    }
    if (ctx.store) {
      ctx.store->save_checkpoint(store_key, *slot.checkpoint, slot.golden_tree.get(),
                                 app.serialize_state(app_seed));
    }
  }
  return ctx.checkpoints.emplace(key, std::move(slot)).first->second;
}

/// Builds (once) the cell's generator + prepared injector, mirroring the
/// engine's phase 1/2 per cell.  A preparation failure lands in info.error —
/// deterministic, so the coordinator abandons the cell fleet-wide.
CellExec& ensure_cell(WorkerContext& ctx, std::uint32_t cell_index) {
  auto it = ctx.cells.find(cell_index);
  if (it != ctx.cells.end()) return it->second;
  CellExec& exec = ctx.cells[cell_index];
  exec.info.cell_index = cell_index;
  const exp::Cell& cell = ctx.plan->cells()[cell_index];
  try {
    const bool checkpoint_eligible = ctx.use_checkpoints && cell.stage >= 1 &&
                                     cell.app->stage_count() >= cell.stage;
    const bool want_golden_tree =
        ctx.use_diff_classification && !checkpoint_eligible;
    GoldenSlot& golden =
        ensure_golden(ctx, *cell.app, cell.app_seed(), want_golden_tree);
    exec.info.golden_cached = golden.cached;

    faults::CampaignConfig config;
    config.application = cell.app->name();
    config.fault = cell.fault;
    config.runs = cell.runs;
    config.seed = cell.seed;
    config.stage = cell.stage;
    exec.generator = std::make_unique<faults::FaultGenerator>(std::move(config));
    exec.injector = std::make_unique<core::FaultInjector>(
        *cell.app, exec.generator->signature(), cell.app_seed(), cell.stage);
    exec.injector->set_diff_classification(ctx.use_diff_classification);
    exec.injector->set_fs_options(ctx.fs_options);
    if (checkpoint_eligible) {
      CheckpointSlot& cp = ensure_checkpoint(ctx, *cell.app, cell.app_seed(), cell.stage);
      exec.injector->prepare_with_checkpoint(golden.result, cp.checkpoint,
                                             cp.golden_tree);
      exec.info.checkpointed = true;
      exec.info.checkpoint_loaded = cp.loaded;
    } else {
      exec.injector->prepare_with_golden(golden.result, golden.tree);
    }
    exec.info.primitive_count = exec.injector->primitive_count();
    exec.prepared = true;
  } catch (const std::exception& e) {
    exec.info.error = e.what();
    exec.generator.reset();
    exec.injector.reset();
  }
  return exec;
}

RunRow row_from(const core::RunResult& rr, const WorkGrant& grant,
                std::uint64_t run_index) {
  RunRow row;
  row.unit_id = grant.unit_id;
  row.cell_index = grant.cell_index;
  row.run_index = run_index;
  row.outcome = rr.outcome;
  row.fault_fired = rr.fault_fired;
  row.analyze_skipped = rr.analyze_skipped;
  row.fs_stats = rr.fs_stats;
  row.execute_ms = rr.execute_ms;
  row.analyze_ms = rr.analyze_ms;
  return row;
}

/// One connection's I/O: the main thread and the heartbeat thread share the
/// stream, so sends are serialized behind a mutex; only the main thread
/// receives, skipping the Pongs the coordinator interleaves with replies.
struct SessionIo {
  net::Stream* stream = nullptr;
  std::mutex send_mutex;

  void send(util::ByteSpan payload) {
    std::lock_guard lock(send_mutex);
    net::send_frame(*stream, payload);
  }

  [[nodiscard]] std::optional<util::Bytes> recv_reply() {
    while (auto frame = net::recv_frame(*stream)) {
      if (peek_type(*frame) == MsgType::Pong) continue;
      return frame;
    }
    return std::nullopt;
  }
};

/// Sends a Ping every interval until destroyed.  A send failure ends the
/// thread silently — the main thread discovers the dead link on its own next
/// I/O, and two error reports for one failure help nobody.
class HeartbeatThread {
 public:
  HeartbeatThread(SessionIo& io, std::uint64_t interval_ms) {
    if (interval_ms == 0) return;
    thread_ = std::thread([this, &io, interval_ms] {
      for (;;) {
        {
          std::unique_lock lock(mutex_);
          if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                           [this] { return stop_; })) {
            return;
          }
        }
        try {
          const auto ping = encode(Ping{});
          io.send(ping);
        } catch (const std::exception&) {
          return;
        }
      }
    });
  }

  ~HeartbeatThread() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One full coordinator session: connect, handshake, serve until Shutdown.
/// Returns normally on a terminal outcome (Shutdown, rejection, simulated
/// abort); throws net::NetError / decode exceptions on transient transport
/// failures the retry loop may reconnect after.
void run_session(const std::string& host, std::uint16_t port,
                 const WorkerOptions& options, WorkerStats& stats,
                 bool reconnect) {
  net::Socket socket = net::Socket::connect(host, port);
  std::unique_ptr<net::Stream> stream =
      options.transport ? options.transport(std::move(socket))
                        : std::make_unique<net::Socket>(std::move(socket));
  SessionIo io;
  io.stream = stream.get();

  {
    Hello hello;
    hello.worker_name = options.name;
    hello.auth_token = options.auth_token;
    hello.reconnect = reconnect;
    const auto encoded = encode(hello);
    io.send(encoded);
  }
  const auto reply = io.recv_reply();
  if (!reply) throw net::NetError("coordinator closed during the handshake");
  if (peek_type(*reply) == MsgType::HelloReject) {
    stats.reject_reason = decode_hello_reject(*reply).reason;
    return;
  }
  const HelloAck ack = decode_hello_ack(*reply);
  stats.worker_id = ack.worker_id;
  if (reconnect) ++stats.reconnects;

  WorkerContext ctx(options.threads);
  if (options.plan != nullptr) {
    if (plan_fingerprint(*options.plan) != ack.plan_fingerprint) {
      throw std::runtime_error(
          "local plan does not match the coordinator's plan fingerprint");
    }
    ctx.plan = options.plan;
  } else {
    if (ack.plan_text.empty()) {
      throw std::runtime_error(
          "coordinator sent no plan text and no local plan was supplied");
    }
    ctx.owned_plan = exp::build_plan(exp::parse_plan_config(ack.plan_text));
    if (plan_fingerprint(*ctx.owned_plan) != ack.plan_fingerprint) {
      throw std::runtime_error(
          "plan built from the coordinator's plan text does not match its "
          "fingerprint");
    }
    ctx.plan = &*ctx.owned_plan;
  }
  ctx.use_checkpoints = ack.use_checkpoints;
  ctx.use_diff_classification = ack.use_diff_classification;
  if (ack.chunk_size > 0) {
    ctx.fs_options.chunk_size = static_cast<std::size_t>(ack.chunk_size);
  }
  const std::string checkpoint_dir = !options.checkpoint_dir_override.empty()
                                         ? options.checkpoint_dir_override
                                         : ack.checkpoint_dir;
  if (!checkpoint_dir.empty()) {
    ctx.store = std::make_unique<core::CheckpointStore>(checkpoint_dir);
  }

  // Heartbeats start only after the plan checks passed: a worker that is
  // about to bail on a fingerprint mismatch must not keep grants alive.
  HeartbeatThread heartbeat(io, ack.heartbeat_interval_ms);

  for (;;) {
    {
      const auto request = encode(WorkRequest{});
      io.send(request);
    }
    const auto frame = io.recv_reply();
    if (!frame) throw net::NetError("coordinator closed while work was pending");
    if (peek_type(*frame) == MsgType::Shutdown) break;
    const WorkGrant grant = decode_work_grant(*frame);
    if (grant.cell_index >= ctx.plan->size()) {
      throw std::runtime_error("granted a unit of out-of-plan cell " +
                               std::to_string(grant.cell_index));
    }

    CellExec& exec = ensure_cell(ctx, grant.cell_index);
    if (!exec.info_sent) {
      const auto info = encode(exec.info);
      io.send(info);
      exec.info_sent = true;
    }
    if (!exec.prepared) continue;  // cell abandoned fleet-wide; just ask again

    // Execute the whole range into per-run slots, then stream in run order.
    // Seeds come from the generator exactly as the engine derives them, so
    // these rows are bit-identical to a single-process run's.
    const std::uint64_t n = grant.run_end - grant.run_begin;
    std::vector<core::RunResult> results(n);
    util::parallel_for(ctx.pool, static_cast<std::size_t>(n), [&](std::size_t i) {
      const std::uint64_t r = grant.run_begin + i;
      results[i] = exec.injector->execute(exec.generator->run_seed(r));
    });

    const bool abort_now = stats.units_completed == options.abort_after_units;
    const std::uint64_t send_count = abort_now ? n / 2 : n;
    // Rows leave in RunBatch frames: one frame per kRunBatchRows rows
    // instead of one per run, which is most of the result path's framing and
    // syscall cost on a fast unit.  The age threshold backstops slow row
    // production (an encode stall, a preempted worker) so the coordinator's
    // liveness picture never goes stale by more than kRunBatchFlushMs.
    RunBatch batch;
    auto batch_started = std::chrono::steady_clock::now();
    const auto flush = [&] {
      if (batch.rows.empty()) return;
      const auto encoded = encode(batch);
      io.send(encoded);
      batch.rows.clear();
    };
    for (std::uint64_t i = 0; i < send_count; ++i) {
      if (batch.rows.empty()) batch_started = std::chrono::steady_clock::now();
      batch.rows.push_back(row_from(results[i], grant, grant.run_begin + i));
      ++stats.runs_executed;
      if (batch.rows.size() >= kRunBatchRows ||
          std::chrono::steady_clock::now() - batch_started >=
              std::chrono::milliseconds(kRunBatchFlushMs)) {
        flush();
      }
    }
    flush();  // the remainder — before UnitDone, and before a simulated death
    if (abort_now) {
      // Simulated death: no UnitDone, no goodbye — the coordinator must
      // recover by re-granting this unit to someone else.
      stream->shutdown_both();
      stats.aborted = true;
      return;
    }
    {
      const auto done = encode(UnitDone{grant.unit_id});
      io.send(done);
    }
    ++stats.units_completed;
  }
}

}  // namespace

WorkerStats run_worker(const std::string& host, std::uint16_t port,
                       const WorkerOptions& options) {
  WorkerStats stats;
  const std::size_t attempts = std::max<std::size_t>(1, options.retry_attempts);
  std::uint64_t backoff = std::max<std::uint64_t>(1, options.retry_backoff_ms);
  const std::uint64_t backoff_max =
      std::max<std::uint64_t>(backoff, options.retry_backoff_max_ms);
  std::uint64_t jitter_state = options.retry_jitter_seed;

  for (std::size_t attempt = 1;; ++attempt) {
    try {
      run_session(host, port, options, stats, /*reconnect=*/attempt > 1);
      return stats;
    } catch (const net::NetError&) {
      // Unreachable, dropped, or truncated mid-frame: transient.
      if (attempt >= attempts) throw;
    } catch (const std::invalid_argument&) {
      // A garbled link feeds the strict decoders nonsense; the next
      // connection gets a fresh stream.
      if (attempt >= attempts) throw;
    } catch (const std::out_of_range&) {
      if (attempt >= attempts) throw;
    }
    // Everything else (HelloReject lands as reject_reason, plan/fingerprint
    // mismatches as std::runtime_error) is terminal: retrying an
    // incompatible fleet cannot succeed.
    const std::uint64_t sleep_ms =
        backoff / 2 + splitmix64(jitter_state) % (backoff / 2 + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    backoff = std::min(backoff * 2, backoff_max);
  }
}

}  // namespace ffis::dist
