#include "serve/worker_pool.hpp"

#include "resilience/chaos.hpp"
#include "resilience/errors.hpp"
#include "stm/runtime.hpp"
#include "trace/recorder.hpp"
#include "util/timing.hpp"

namespace wstm::serve {

WorkerPool::WorkerPool(stm::Runtime& rt, std::vector<std::unique_ptr<BoundedQueue>>& queues,
                       WorkerOptions options)
    : rt_(rt), queues_(queues), options_(options) {}

WorkerPool::~WorkerPool() { join(); }

void WorkerPool::start(unsigned n_workers) {
  threads_.reserve(n_workers);
  for (unsigned i = 0; i < n_workers; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

void WorkerPool::join() {
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void WorkerPool::worker_main(unsigned idx) {
  stm::ThreadCtx& tc = rt_.attach_thread();
  const unsigned nq = static_cast<unsigned>(queues_.size());
  const unsigned own_idx = idx % nq;
  BoundedQueue& own = *queues_[own_idx];
  TxRequest req;
  for (;;) {
    unsigned from = own_idx;
    bool got = own.try_pop(&req);
    if (!got && options_.steal) {
      for (unsigned k = 1; k < nq && !got; ++k) {
        from = (own_idx + k) % nq;
        got = queues_[from]->try_pop(&req);
      }
    }
    if (!got) {
      // Exit conditions are only checked at empty: a closed queue is
      // drained first, a stopping runtime sheds its backlog via execute().
      if (rt_.stopping() || own.closed()) break;
      from = own_idx;
      got = own.pop_wait(&req, options_.pop_timeout_ns);
      if (!got) continue;
    }
    execute(tc, from, req);
  }
  // The context stays attached: Runtime teardown (or the harness) aggregates
  // metrics after join, matching the closed-loop worker idiom.
}

void WorkerPool::execute(stm::ThreadCtx& tc, unsigned queue_idx, const TxRequest& req) {
  stm::ThreadMetrics& m = tc.metrics();
  m.serve_dequeued++;

  if (resilience::ChaosInjector* chaos = rt_.chaos()) {
    const auto inj = chaos->at_dequeue(tc.rng());
    if (inj.fault != resilience::ChaosInjector::Fault::kNone) m.chaos_faults++;
  }

  const std::int64_t dequeue_ns = now_ns();
  const std::int64_t wait_ns = dequeue_ns - req.enqueue_ns;
  if (wait_ns > 0) m.serve_queue_wait_ns += wait_ns;
  const bool expired = req.deadline_ns != 0 && dequeue_ns > req.deadline_ns;
  if (options_.recorder != nullptr) {
    options_.recorder->record(tc.slot(), trace::EventKind::kDequeue, req.key, expired ? 1 : 0,
                              trace::kNoEnemy, queue_idx,
                              wait_ns > 0 ? static_cast<std::uint64_t>(wait_ns) : 0);
  }
  if (expired) {
    // Shed: running a transaction whose result nobody can use anymore only
    // steals cycles from requests still inside their deadlines.
    m.serve_expired++;
    return;
  }

  std::uint64_t result;
  try {
    result = rt_.atomically(tc, [&](stm::Tx& tx) { return req.fn(tx, req.ctx, req.arg); });
  } catch (const resilience::RuntimeStoppedError&) {
    m.serve_cancelled++;
    return;
  } catch (const resilience::TxTimeoutError&) {
    return;  // the runtime already counted the timeout
  }

  const std::int64_t done_ns = now_ns();
  m.serve_completed++;
  if (req.deadline_ns != 0 && done_ns > req.deadline_ns) m.serve_deadline_misses++;
  if (options_.latency != nullptr) options_.latency->record(done_ns - req.enqueue_ns);
  if (req.done != nullptr) req.done(req.ctx, req.arg, result);
}

}  // namespace wstm::serve
