// Worker pool: runtime-attached threads that drain the submit queues.
//
// Each worker owns one primary queue (worker i drains queue i mod n_queues)
// and runs every request through Runtime::atomically, so the full protocol
// stack — contention manager, escalation ladder, irrevocable fallback —
// applies to served transactions exactly as it does to closed-loop ones.
// Optional stealing lets an idle worker pull from other queues; it is off
// by default because cross-queue stealing re-mixes requests an admission
// policy deliberately separated (the policy comparison in
// bench/fig_serve_scaling.cpp needs placement to mean something).
//
// Shutdown has two flavors the workers distinguish:
//  * TxServer::stop() closes the queues; workers drain every remaining
//    request, then exit ("graceful").
//  * Runtime::shutdown() makes atomically() throw RuntimeStoppedError;
//    workers shed the backlog as cancelled (done hooks not called) and
//    exit, so a dying runtime never strands a parked worker.
#pragma once

#include <cstdint>
#include <thread>
#include <vector>

#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "util/stats.hpp"

namespace wstm::stm {
class Runtime;
class ThreadCtx;
}  // namespace wstm::stm
namespace wstm::trace {
class Recorder;
}

namespace wstm::serve {

struct WorkerOptions {
  /// Park bound for an empty-queue wait; workers wake at least this often
  /// to re-check shutdown.
  std::int64_t pop_timeout_ns = 1'000'000;
  /// Idle workers pull from other queues (see file comment; default off).
  bool steal = false;
  /// Sojourn-latency sink (submit to completion), shared by all workers.
  /// Non-owning; null disables sampling.
  LatencyReservoir* latency = nullptr;
  /// kDequeue tracing. Non-owning; null disables.
  trace::Recorder* recorder = nullptr;
};

class WorkerPool {
 public:
  /// `queues` is non-owning and must outlive the pool.
  WorkerPool(stm::Runtime& rt, std::vector<std::unique_ptr<BoundedQueue>>& queues,
             WorkerOptions options);
  /// Joins if still running (queues must be closed by then — TxServer's
  /// destructor ordering guarantees it).
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void start(unsigned n_workers);

  /// Waits for all workers to exit. Workers only exit once their queues are
  /// closed (and drained) or the runtime is stopping; close first.
  void join();

  unsigned n_workers() const noexcept { return static_cast<unsigned>(threads_.size()); }

 private:
  void worker_main(unsigned idx);
  void execute(stm::ThreadCtx& tc, unsigned queue_idx, const TxRequest& req);

  stm::Runtime& rt_;
  std::vector<std::unique_ptr<BoundedQueue>>& queues_;
  WorkerOptions options_;
  std::vector<std::thread> threads_;
};

}  // namespace wstm::serve
