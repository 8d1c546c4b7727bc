#include "serve/queue.hpp"

#include <chrono>
#include <new>

namespace wstm::serve {

namespace {

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 2;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

BoundedQueue::BoundedQueue(std::size_t capacity) {
  const std::size_t cap = round_up_pow2(capacity < 2 ? 2 : capacity);
  mask_ = cap - 1;
  // All-zero cells are the initial state (Cell::seq_minus_index).
  cells_.reset(static_cast<Cell*>(std::calloc(cap, sizeof(Cell))));
  if (!cells_) throw std::bad_alloc();
}

BoundedQueue::PushResult BoundedQueue::try_push(const TxRequest& req) {
  if (closed_.load(std::memory_order_acquire)) return PushResult::kClosed;
  std::uint64_t pos = tail_.load(std::memory_order_relaxed);
  for (;;) {
    const std::size_t index = pos & mask_;
    const std::uint64_t seq = seq_of(index).load(std::memory_order_acquire) + index;
    const std::int64_t dif = static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
    if (dif == 0) {
      if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
        cells_[index].req = req;
        seq_of(index).store(pos + 1 - index, std::memory_order_release);
        note_depth(pos + 1 - head_.load(std::memory_order_acquire));
        wake_consumer();
        return PushResult::kOk;
      }
    } else if (dif < 0) {
      rejected_full_.fetch_add(1, std::memory_order_relaxed);
      return PushResult::kFull;
    } else {
      pos = tail_.load(std::memory_order_relaxed);
    }
  }
}

BoundedQueue::PushResult BoundedQueue::push_wait(const TxRequest& req) {
  for (;;) {
    const PushResult r = try_push(req);
    if (r != PushResult::kFull) {
      // kOk, or kClosed; a rejected-full count from the failed probe stays —
      // it records real backpressure pressure even in block mode.
      return r;
    }
    // seq_cst: Dekker pair with the consumer's seq_cst load in
    // wake_producer(). Both sides must agree on a single order between
    // "waiter count raised" and "slot freed", or the consumer could read
    // push_waiters_ == 0 while this thread misses the freed slot and
    // sleeps through the only wakeup. Audited for PR 7: NOT relaxable.
    push_waiters_.fetch_add(1, std::memory_order_seq_cst);
    std::unique_lock<std::mutex> lk(wait_mutex_);
    // Re-check closed_ under the mutex: close() stores it before taking
    // wait_mutex_ to notify, so either it is visible here (skip the wait;
    // the next try_push returns kClosed) or the notify_all is ordered
    // after this thread blocks and wakes it. Without this, a close()
    // landing between the waiter announcement and the wait is a lost
    // wakeup and the producer sleeps through the shutdown edge.
    if (!closed_.load(std::memory_order_acquire)) {
      not_full_.wait_for(lk, std::chrono::milliseconds(1));
    }
    lk.unlock();
    push_waiters_.fetch_sub(1, std::memory_order_relaxed);
  }
}

bool BoundedQueue::try_pop(TxRequest* out) {
  std::uint64_t pos = head_.load(std::memory_order_relaxed);
  for (;;) {
    const std::size_t index = pos & mask_;
    const std::uint64_t seq = seq_of(index).load(std::memory_order_acquire) + index;
    const std::int64_t dif =
        static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos + 1);
    if (dif == 0) {
      if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
        *out = cells_[index].req;
        seq_of(index).store(pos + mask_ + 1 - index, std::memory_order_release);
        wake_producer();
        return true;
      }
    } else if (dif < 0) {
      return false;  // empty
    } else {
      pos = head_.load(std::memory_order_relaxed);
    }
  }
}

bool BoundedQueue::pop_wait(TxRequest* out, std::int64_t timeout_ns) {
  if (try_pop(out)) return true;
  if (closed_.load(std::memory_order_acquire)) return try_pop(out);
  // seq_cst: Dekker pair with the producer's seq_cst load in
  // wake_consumer() (same shape as push_wait/wake_producer). Audited for
  // PR 7: NOT relaxable — acq_rel on the two sides would still allow both
  // the producer to read pop_waiters_ == 0 and this thread's re-check to
  // miss the pushed item, losing the wakeup.
  pop_waiters_.fetch_add(1, std::memory_order_seq_cst);
  // Re-check after announcing the wait: a push racing with the increment
  // either sees the waiter (and notifies) or its item is visible here.
  if (try_pop(out)) {
    pop_waiters_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  {
    std::unique_lock<std::mutex> lk(wait_mutex_);
    // Re-check closed_ under the mutex (same shape as push_wait): a close()
    // racing this parking consumer either published closed_ before we got
    // the mutex — visible here, skip the wait — or notifies after we block.
    // Without this, the close() edge between the pop_waiters_ announcement
    // and the wait is lost and the drain stalls for the full timeout.
    if (!closed_.load(std::memory_order_acquire)) {
      not_empty_.wait_for(lk, std::chrono::nanoseconds(timeout_ns));
    }
  }
  pop_waiters_.fetch_sub(1, std::memory_order_relaxed);
  return try_pop(out);
}

void BoundedQueue::close() {
  closed_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lk(wait_mutex_);
  not_empty_.notify_all();
  not_full_.notify_all();
}

void BoundedQueue::note_depth(std::uint64_t depth) noexcept {
  std::uint64_t seen = max_depth_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !max_depth_.compare_exchange_weak(seen, depth, std::memory_order_relaxed)) {
  }
}

void BoundedQueue::wake_consumer() noexcept {
  // seq_cst: the other half of the pop_wait() Dekker pair — this load must
  // be ordered after the seq.store(release) that published the item in the
  // single total order, so either the waiter's re-check pops the item or
  // this load sees the waiter. Audited for PR 7: NOT relaxable.
  if (pop_waiters_.load(std::memory_order_seq_cst) == 0) return;
  std::lock_guard<std::mutex> lk(wait_mutex_);
  not_empty_.notify_one();
}

void BoundedQueue::wake_producer() noexcept {
  // seq_cst: other half of the push_wait() Dekker pair (see wake_consumer).
  if (push_waiters_.load(std::memory_order_seq_cst) == 0) return;
  std::lock_guard<std::mutex> lk(wait_mutex_);
  not_full_.notify_one();
}

BoundedQueue::Stats BoundedQueue::stats() const noexcept {
  Stats s;
  s.enqueued = tail_.load(std::memory_order_acquire);
  s.dequeued = head_.load(std::memory_order_acquire);
  s.rejected_full = rejected_full_.load(std::memory_order_relaxed);
  s.max_depth = max_depth_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace wstm::serve
