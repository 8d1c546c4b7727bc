#include <chrono>
#include <thread>

#include "cm/classic.hpp"
#include "stm/runtime.hpp"
#include "util/backoff.hpp"

namespace wstm::cm {

void Polka::on_begin(stm::ThreadCtx& self, stm::TxDesc& tx, bool is_retry) {
  // The karma (the accrued-work priority) survives aborts of the same logical
  // transaction and resets when a fresh transaction starts.
  if (!is_retry) *saved_karma_[self.slot()] = 0;
  tx.karma.store(*saved_karma_[self.slot()], std::memory_order_release);
}

void Polka::on_open(stm::ThreadCtx& self, stm::TxDesc& tx) {
  const std::uint32_t k = ++*saved_karma_[self.slot()];
  tx.karma.store(k, std::memory_order_release);
}

void Polka::on_commit(stm::ThreadCtx& self, stm::TxDesc& tx) {
  (void)tx;
  *saved_karma_[self.slot()] = 0;
}

stm::Resolution Polka::resolve(stm::ThreadCtx& self, stm::TxDesc& tx, stm::TxDesc& enemy,
                               stm::ConflictKind kind) {
  (void)self, (void)kind;
  const std::uint32_t mine = tx.karma.load(std::memory_order_acquire);
  const std::uint32_t theirs = enemy.karma.load(std::memory_order_acquire);
  if (theirs <= mine) return stm::Resolution::kAbortEnemy;

  // Give the higher-priority enemy exponentially growing slices of time to
  // finish, one slice per point of priority difference, then abort it.
  const std::uint32_t attempts = theirs - mine;
  const std::int64_t wait_begin = recorder_ != nullptr ? now_ns() : 0;
  const auto trace_wait = [&](std::uint32_t slices) {
    if (recorder_ != nullptr && slices > 0) {
      // The checker's virtual clock can rewind now_ns() past wait_begin;
      // clamp before the unsigned conversion or the event records ~2^64 ns.
      const std::int64_t waited = now_ns() - wait_begin;
      record_backoff(self, tx, waited > 0 ? static_cast<std::uint64_t>(waited) : 0, slices);
    }
  };
  for (std::uint32_t k = 0; k < attempts; ++k) {
    if (!tx.is_active()) {
      trace_wait(k);
      return stm::Resolution::kAbortSelf;
    }
    if (!enemy.is_active()) {
      trace_wait(k);
      return stm::Resolution::kRetry;
    }
    const std::uint32_t exp = k < 12 ? k : 12;  // cap one slice at ~4 ms
    const std::int64_t slice_ns = static_cast<std::int64_t>(1000ULL << exp);
    // Requester-waits: park the slice instead of burning it on yields (the
    // enemy's commit/abort fires the unpark edge). Falls back to the
    // historical yield loop in abort mode or without a Runtime.
    if (waiter_ == nullptr || !waiter_->park_until_inactive(self, tx, enemy, slice_ns)) {
      yield_until(std::chrono::nanoseconds(slice_ns),
                  [&] { return !enemy.is_active() || !tx.is_active(); });
    }
  }
  trace_wait(attempts);
  if (!tx.is_active()) return stm::Resolution::kAbortSelf;
  if (!enemy.is_active()) return stm::Resolution::kRetry;
  return stm::Resolution::kAbortEnemy;
}

}  // namespace wstm::cm
