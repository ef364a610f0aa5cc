#include "fleet.hpp"

#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ffis/dist/coordinator.hpp"
#include "ffis/dist/protocol.hpp"
#include "ffis/dist/worker.hpp"
#include "ffis/net/socket.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint32_t le32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

/// Shared sink of every worker's wire observations.
struct Probe {
  explicit Probe(Clock::time_point start) : start(start) {}
  Clock::time_point start;
  std::mutex mutex;
  WireStats stats;
};

/// Counts what crosses one worker socket.  net::send_frame / recv_frame move
/// a frame as a 4-byte length prefix and then the payload, so the wrapper
/// tracks which of the two each call carries; the payload's first byte is
/// the message tag, and a RunBatch payload's next four bytes its row count.
class CountingStream final : public ffis::net::Stream {
 public:
  CountingStream(ffis::net::Socket socket, Probe& probe)
      : socket_(std::move(socket)), probe_(probe), opened_(Clock::now()) {}

  ~CountingStream() override {
    std::lock_guard lock(probe_.mutex);
    probe_.stats.bytes += bytes_;
    probe_.stats.frames += frames_;
    probe_.stats.recv_wait_s += recv_wait_s_;
    probe_.stats.connected_s += seconds_between(opened_, Clock::now());
  }

  CountingStream(const CountingStream&) = delete;
  CountingStream& operator=(const CountingStream&) = delete;

  void send_all(ffis::util::ByteSpan data) override {
    socket_.send_all(data);
    bytes_ += data.size();
    if (!send_payload_next_) {
      ++frames_;
      send_payload_next_ = data.size() == 4 && le32(data.data()) > 0;
      return;
    }
    send_payload_next_ = false;
    if (data.size() >= 5 &&
        data[0] == static_cast<std::byte>(ffis::dist::MsgType::RunBatch)) {
      const std::uint64_t rows = le32(data.data() + 1);
      const double at = seconds_between(probe_.start, Clock::now());
      std::lock_guard lock(probe_.mutex);
      WireStats& s = probe_.stats;
      if (s.first_result_s < 0.0 || at < s.first_result_s) {
        s.first_result_s = at;
        s.first_result_rows = rows;
      }
      if (at > s.last_result_s) s.last_result_s = at;
      s.result_rows += rows;
    }
  }

  bool recv_exact(ffis::util::MutableByteSpan out) override {
    const auto start = Clock::now();
    const bool ok = socket_.recv_exact(out);
    recv_wait_s_ += seconds_between(start, Clock::now());
    if (!ok) return false;
    bytes_ += out.size();
    if (!recv_payload_next_) {
      ++frames_;
      recv_payload_next_ = out.size() == 4 && le32(out.data()) > 0;
    } else {
      recv_payload_next_ = false;
    }
    return true;
  }

  void shutdown_both() noexcept override { socket_.shutdown_both(); }

 private:
  ffis::net::Socket socket_;
  Probe& probe_;
  Clock::time_point opened_;
  bool send_payload_next_ = false;
  bool recv_payload_next_ = false;
  std::uint64_t bytes_ = 0;
  std::uint64_t frames_ = 0;
  double recv_wait_s_ = 0.0;
};

}  // namespace

FleetRun run_fleet(const ffis::exp::ExperimentPlan& plan, const std::string& store_dir,
                   std::size_t workers, std::uint64_t unit_runs) {
  ffis::dist::CoordinatorOptions options;
  options.unit_runs = unit_runs;
  options.engine.checkpoint_dir = store_dir;
  ffis::dist::Coordinator coordinator(plan, options);
  const std::uint16_t port = coordinator.port();

  FleetRun out;
  const auto start = Clock::now();
  Probe probe(start);
  std::exception_ptr failure;
  std::mutex failure_mutex;
  const auto guarded = [&](auto&& body) {
    try {
      body();
    } catch (...) {
      std::lock_guard lock(failure_mutex);
      if (!failure) failure = std::current_exception();
    }
  };

  std::thread serve([&] { guarded([&] { out.report = coordinator.run(); }); });
  std::vector<std::thread> fleet;
  fleet.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    fleet.emplace_back([&, i] {
      guarded([&] {
        ffis::dist::WorkerOptions wo;
        wo.name = "perfbench-" + std::to_string(i);
        wo.threads = 1;
        wo.plan = &plan;
        wo.transport = [&probe](ffis::net::Socket socket) -> std::unique_ptr<ffis::net::Stream> {
          return std::make_unique<CountingStream>(std::move(socket), probe);
        };
        (void)ffis::dist::run_worker("127.0.0.1", port, wo);
      });
    });
  }
  for (auto& t : fleet) t.join();
  serve.join();
  out.wall_s = seconds_between(start, Clock::now());
  if (failure) std::rethrow_exception(failure);
  std::lock_guard lock(probe.mutex);
  out.wire = probe.stats;
  return out;
}

}  // namespace perfbench
