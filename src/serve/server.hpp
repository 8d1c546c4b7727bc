// TxServer: the serving front-end façade.
//
// Composes the pieces of src/serve/ — bounded MPMC submit queues
// (queue.hpp), an admission scheduler deciding queue placement
// (scheduler.hpp), and a pool of runtime-attached workers draining the
// queues through atomically() (worker_pool.hpp) — behind a two-call API:
//
//   serve::TxServer server(rt, {.n_workers = 8, .policy = "window-frame"});
//   server.start();
//   ... server.submit(req) from any thread ...
//   server.stop();   // closes queues, drains, joins
//
// This is the open-loop counterpart of harness/runner.cpp's closed loop:
// there, M threads generate and execute their own transactions; here,
// arrival and execution are decoupled so load beyond capacity shows up as
// queue growth, shed requests, and latency — the quantities a production
// deployment actually observes (see harness/open_loop.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "serve/worker_pool.hpp"

namespace wstm::stm {
class Runtime;
}

namespace wstm::serve {

struct ServerConfig {
  unsigned n_workers = 1;
  /// 0 = one queue per worker (the normal shape; policies assume it).
  unsigned n_queues = 0;
  std::size_t queue_capacity = 1024;
  Backpressure backpressure = Backpressure::kReject;

  /// Admission policy name (scheduler.hpp) and its placement seed.
  std::string policy = "round-robin";
  std::uint64_t seed = 0x5e12e;

  WorkerOptions worker;  ///< latency sink, tracing, steal, park bound
};

class TxServer {
 public:
  /// Builds queues, scheduler (wired to the runtime's contention manager
  /// for the window-frame policy), and the worker pool. Throws
  /// std::invalid_argument for an unknown policy.
  TxServer(stm::Runtime& rt, ServerConfig config);
  ~TxServer();  // stop() if still running

  TxServer(const TxServer&) = delete;
  TxServer& operator=(const TxServer&) = delete;

  void start();

  /// Graceful shutdown: no new submits, queues closed, workers drain every
  /// queued request, pool joined. Idempotent.
  void stop();

  /// Places `req` via the admission scheduler and enqueues it. Stamps
  /// req.enqueue_ns; the caller sets deadline_ns (absolute, 0 = none).
  /// Thread-safe. `producer_slot`, when given, traces a kEnqueue event in
  /// that slot's ring (producers attach to the runtime to get one).
  SubmitResult submit(TxRequest req, unsigned producer_slot = kNoProducerSlot);

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t rejected_full = 0;
    std::uint64_t rejected_stopping = 0;
    std::uint64_t enqueued = 0;   ///< sum over queues
    std::uint64_t dequeued = 0;   ///< sum over queues
    std::uint64_t max_depth = 0;  ///< max over queues' high-water marks
  };
  Stats stats() const;

  AdmissionScheduler& scheduler() noexcept { return *scheduler_; }
  unsigned n_queues() const noexcept { return static_cast<unsigned>(queues_.size()); }
  BoundedQueue& queue(unsigned i) noexcept { return *queues_[i]; }
  const ServerConfig& config() const noexcept { return config_; }

  static constexpr unsigned kNoProducerSlot = ~0u;

 private:
  stm::Runtime& rt_;
  ServerConfig config_;
  std::vector<std::unique_ptr<BoundedQueue>> queues_;
  std::unique_ptr<AdmissionScheduler> scheduler_;
  std::unique_ptr<WorkerPool> pool_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_stopping_{0};
};

}  // namespace wstm::serve
