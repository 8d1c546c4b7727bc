#include "serve/server.hpp"

#include <stdexcept>

#include "stm/runtime.hpp"
#include "trace/recorder.hpp"
#include "util/timing.hpp"

namespace wstm::serve {

TxServer::TxServer(stm::Runtime& rt, ServerConfig config) : rt_(rt), config_(std::move(config)) {
  if (config_.n_workers == 0) throw std::invalid_argument("TxServer: n_workers must be > 0");
  const unsigned nq = config_.n_queues != 0 ? config_.n_queues : config_.n_workers;
  queues_.reserve(nq);
  for (unsigned i = 0; i < nq; ++i) {
    queues_.push_back(std::make_unique<BoundedQueue>(config_.queue_capacity));
  }
  SchedulerConfig sc;
  sc.n_queues = nq;
  sc.seed = config_.seed;
  sc.manager = &rt_.manager();
  scheduler_ = make_scheduler(config_.policy, sc);
  pool_ = std::make_unique<WorkerPool>(rt_, queues_, config_.worker);
}

TxServer::~TxServer() { stop(); }

void TxServer::start() {
  if (started_.exchange(true)) return;
  pool_->start(config_.n_workers);
}

void TxServer::stop() {
  if (stopped_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  for (auto& q : queues_) q->close();
  if (started_.load(std::memory_order_acquire)) pool_->join();
  stopped_.store(true, std::memory_order_release);
}

SubmitResult TxServer::submit(TxRequest req, unsigned producer_slot) {
  if (stopping_.load(std::memory_order_acquire) || rt_.stopping()) {
    rejected_stopping_.fetch_add(1, std::memory_order_relaxed);
    return SubmitResult::kRejectedStopping;
  }
  req.enqueue_ns = now_ns();
  const unsigned qi = scheduler_->place(req) % n_queues();
  BoundedQueue& q = *queues_[qi];
  const BoundedQueue::PushResult r =
      config_.backpressure == Backpressure::kBlock ? q.push_wait(req) : q.try_push(req);
  switch (r) {
    case BoundedQueue::PushResult::kOk:
      accepted_.fetch_add(1, std::memory_order_relaxed);
      if (config_.worker.recorder != nullptr && producer_slot != kNoProducerSlot) {
        config_.worker.recorder->record(producer_slot, trace::EventKind::kEnqueue, req.key, 0,
                                        trace::kNoEnemy, qi, q.depth());
      }
      return SubmitResult::kAccepted;
    case BoundedQueue::PushResult::kFull:
      return SubmitResult::kRejectedFull;
    case BoundedQueue::PushResult::kClosed:
      rejected_stopping_.fetch_add(1, std::memory_order_relaxed);
      return SubmitResult::kRejectedStopping;
  }
  return SubmitResult::kRejectedStopping;  // unreachable
}

TxServer::Stats TxServer::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected_stopping = rejected_stopping_.load(std::memory_order_relaxed);
  for (const auto& q : queues_) {
    const BoundedQueue::Stats qs = q->stats();
    s.enqueued += qs.enqueued;
    s.dequeued += qs.dequeued;
    s.rejected_full += qs.rejected_full;
    s.max_depth = qs.max_depth > s.max_depth ? qs.max_depth : s.max_depth;
  }
  return s;
}

}  // namespace wstm::serve
