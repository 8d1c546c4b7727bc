// Admission scheduling: which submit queue a request lands in.
//
// Queue placement is the serving layer's counterpart of contention
// management — instead of resolving conflicts after they happen (CMs), the
// admission scheduler tries to keep likely-conflicting requests from
// running concurrently at all, by steering them into the same queue (one
// worker drains a queue, so same-queue requests serialize). "Improving
// High Contention OLTP Performance via Transaction Scheduling" (PAPERS.md)
// shows this beats pure contention management under high contention; the
// policies here span that design space:
//
//   round-robin     spread everything (pure load balance, no isolation)
//   key-hash        static sharding by conflict key (full isolation, no
//                   balance — a Zipfian head overloads one queue)
//   conflict-graph  hot-key clustering: per-key abort-rate EWMAs decide
//                   which keys need isolation; hot keys hash into a small
//                   set of serialization lanes (generalizing Adaptive
//                   Transaction Scheduling's single lane), cold keys
//                   round-robin
//   window-frame    the window CMs' frame assignment reused as a queue
//                   placement: a request's key draws a delay q_k in
//                   [0, alpha) exactly like a window thread draws q_i, its
//                   frame is current_frame + q_k, and its queue is
//                   frame mod n_queues — same-frame requests share a queue,
//                   and the assignment rotates as the frame clock advances
//                   (see cm::ContentionManager::frame_schedule)
//
// place() is called by submitters (any thread) and the feedback hooks by
// workers, so implementations must be thread-safe; all built-ins are
// lock-free over atomics.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace wstm::cm {
class ContentionManager;
}

namespace wstm::serve {

class AdmissionScheduler {
 public:
  virtual ~AdmissionScheduler() = default;

  virtual std::string name() const = 0;

  /// Queue index in [0, n_queues) for `req`. Thread-safe.
  virtual unsigned place(const TxRequest& req) = 0;

  /// Execution feedback from a worker: the request on `key` committed after
  /// `aborts` aborted attempts. Default ignores it (stateless policies).
  virtual void on_executed(std::uint64_t key, std::uint32_t aborts) {
    (void)key, (void)aborts;
  }

  unsigned n_queues() const noexcept { return n_queues_; }

 protected:
  explicit AdmissionScheduler(unsigned n_queues) : n_queues_(n_queues) {}

  unsigned n_queues_;
};

struct SchedulerConfig {
  unsigned n_queues = 1;
  std::uint64_t seed = 1;

  /// Contention manager of the serving runtime; the window-frame policy
  /// introspects its frame schedule (null or a non-window manager degrades
  /// it to static key-hash placement). Non-owning.
  const cm::ContentionManager* manager = nullptr;

  // conflict-graph knobs
  /// EWMA aborts-per-request above which a key counts as hot.
  double hot_threshold = 0.25;
  /// Hot-key table size (open-addressed, fixed; rounded up to a power of 2).
  std::uint32_t table_size = 4096;
  /// Fraction of queues reserved as hot-key serialization lanes when the
  /// global contention estimate is high (at least one).
  double hot_lane_fraction = 0.25;
};

/// Factory by policy name: round-robin | key-hash | conflict-graph |
/// window-frame. Throws std::invalid_argument otherwise.
std::unique_ptr<AdmissionScheduler> make_scheduler(const std::string& policy,
                                                   const SchedulerConfig& config);

/// All built-in policy names (CLI help, sweeps).
std::vector<std::string> scheduler_names();

}  // namespace wstm::serve
