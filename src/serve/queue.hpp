// Bounded MPMC submit queue for the serving front-end.
//
// The fast path is Vyukov's bounded MPMC ring (per-cell sequence counters,
// one CAS per push/pop, no locks), so producers and consumers scale without
// a queue-global mutex. Blocking is layered on top as a slow path only:
// waiters park on a condvar with a short timeout and re-poll, and pushers
// touch the mutex only when a waiter count says someone is parked — an
// empty-queue worker costs a futex wait, a busy queue costs nothing beyond
// the ring CAS. The timeout (not just the notify) makes missed wakeups a
// bounded-latency event instead of a hang, which keeps shutdown and chaos
// runs honest.
//
// close() wakes everything; after it, push fails with kClosed and pop
// drains the remaining items before returning false.
//
// The ring is allocated zeroed and all-zero bytes are its initial state, so
// construction touches none of its cells: a fresh allocation's pages are
// faulted on the ring's first lap, not when the queue is built.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "serve/request.hpp"
#include "util/cacheline.hpp"

namespace wstm::serve {

class BoundedQueue {
 public:
  enum class PushResult : std::uint8_t { kOk = 0, kFull, kClosed };

  struct Stats {
    std::uint64_t enqueued = 0;
    std::uint64_t dequeued = 0;
    std::uint64_t rejected_full = 0;
    std::uint64_t max_depth = 0;  ///< high-water mark of the queue depth
  };

  /// Capacity is rounded up to a power of two (minimum 2).
  explicit BoundedQueue(std::size_t capacity);

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking push; kFull applies reject-mode backpressure.
  PushResult try_push(const TxRequest& req);

  /// Blocking push: waits for space (block-mode backpressure). Returns
  /// kOk or kClosed, never kFull.
  PushResult push_wait(const TxRequest& req);

  /// Non-blocking pop.
  bool try_pop(TxRequest* out);

  /// Blocking pop with a bounded park: returns true with an item, or false
  /// after `timeout_ns` without one (spurious-wakeup safe) or once the
  /// queue is closed *and* drained. Workers loop on this so they can
  /// interleave stealing and shutdown checks.
  bool pop_wait(TxRequest* out, std::int64_t timeout_ns);

  /// Marks the queue closed and wakes all waiters. Idempotent.
  void close();
  bool closed() const noexcept { return closed_.load(std::memory_order_acquire); }

  /// Approximate instantaneous depth (racy by nature; monitoring only).
  std::size_t depth() const noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return tail > head ? static_cast<std::size_t>(tail - head) : 0;
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Counter snapshot (racy but monotone; exact once quiescent).
  Stats stats() const noexcept;

 private:
  struct Cell {
    /// Vyukov's per-cell sequence minus the cell's index: cell i starts at
    /// sequence i, which is stored as 0. Accessed only via seq_of().
    std::uint64_t seq_minus_index;
    TxRequest req;
  };
  struct FreeCells {
    void operator()(Cell* cells) const noexcept { std::free(cells); }
  };

  std::atomic_ref<std::uint64_t> seq_of(std::size_t index) noexcept {
    return std::atomic_ref<std::uint64_t>(cells_[index].seq_minus_index);
  }
  void note_depth(std::uint64_t depth) noexcept;
  void wake_consumer() noexcept;
  void wake_producer() noexcept;

  std::size_t mask_;
  std::unique_ptr<Cell[], FreeCells> cells_;
  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};  // next push slot
  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};  // next pop slot
  alignas(kCacheLine) std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> rejected_full_{0};
  std::atomic<std::uint64_t> max_depth_{0};

  // Parking slow path (consumers waiting for items, producers for space).
  std::mutex wait_mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::atomic<std::uint32_t> pop_waiters_{0};
  std::atomic<std::uint32_t> push_waiters_{0};
};

}  // namespace wstm::serve
