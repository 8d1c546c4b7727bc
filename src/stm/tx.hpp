// Transaction descriptors.
//
// A TxDesc is allocated per attempt (like DSTM's per-attempt Transaction
// objects) out of the owning thread's pool and is shared state: locators
// point at it, and enemy threads read/CAS its status and read its priority
// fields. It is reclaimed by reference count — one reference held by the
// executing thread for the duration of the attempt, plus one per locator
// that names it as owner (dropped when the locator itself is reclaimed
// through EBR) — and recycled through the pool when the count hits zero.
#pragma once

#include <atomic>
#include <cstdint>

#include "stm/fwd.hpp"
#include "util/cacheline.hpp"
#include "util/pool.hpp"

namespace wstm::stm {

struct alignas(kCacheLine) TxDesc {
  std::atomic<TxStatus> status{TxStatus::kActive};

  /// Thread slot in [0, Runtime::kMaxThreads); also indexes the striped
  /// visible-reader records (stripe = slot % K, bit = slot / K).
  std::uint32_t thread_slot = 0;
  /// Attempt number within the thread (diagnostics / tie-breaking).
  std::uint64_t serial = 0;

  /// Deferred commit clock (DESIGN.md §11): the stamp `G+1` this write-
  /// commit claims, written by the owner between its commit-pending
  /// announcement and its status CAS. Readers load it only after observing
  /// status == kCommitted (the CAS's release publishes the relaxed store),
  /// so the value is final whenever it is consulted. Stays 0 for read-only
  /// attempts and outside DSTM invisible-read mode.
  std::atomic<std::uint64_t> commit_stamp{0};

  /// Start of this attempt (steady-clock ns).
  std::int64_t begin_ns = 0;
  /// Start of the *first* attempt of this logical transaction; survives
  /// retries. This is the timestamp Greedy and Priority arbitrate on.
  std::int64_t first_begin_ns = 0;

  // --- contention-manager scratch, readable by enemies ---

  /// Karma/Polka priority: number of objects opened so far (all attempts).
  std::atomic<std::uint32_t> karma{0};
  /// Greedy's "waiting" flag: set while the transaction is blocked inside a
  /// contention-manager wait; a waiting transaction may be killed by anyone.
  std::atomic<bool> waiting{false};

  /// Window pi(1): 1 = low priority (before the assigned frame), 0 = high.
  std::atomic<std::uint32_t> prio_class{1};
  /// Window pi(2): RandomizedRounds priority in [1, M]; redrawn on frame
  /// start and after every abort. Lower value wins.
  std::atomic<std::uint64_t> rand_prio{0};

  /// Escalation-ladder priority boost (0 = none). Read by enemies through
  /// ContentionManager::resolve_with_boost: a higher boost wins outright,
  /// regardless of the manager's own policy. Written only by the owning
  /// thread before the descriptor is published.
  std::atomic<std::uint32_t> boost{0};
  /// Serial-fallback mode: the holder of the global irrevocable token
  /// cannot be aborted by enemies (try_abort refuses), so its conflicts
  /// must wait. Written only by the owning thread before publication;
  /// cleared by the owner before any abort of its own finalizes (abort_self
  /// and finish_attempt_abort both demote before their try_abort).
  std::atomic<bool> irrevocable{false};

  /// Identity of the transaction that aborted this one, registered by
  /// scheduler-style managers (Steal-On-Abort) before the kill; carries one
  /// reference, released by the victim's cleanup (runtime) or its manager's
  /// on_abort, whichever claims it first via exchange. A registration that
  /// lands after both (the victim already finished) is dropped by the
  /// victim's last release().
  std::atomic<TxDesc*> aborted_by{nullptr};

  // --- lifetime ---
  std::atomic<std::int32_t> refs{1};

  void add_ref() noexcept { refs.fetch_add(1, std::memory_order_relaxed); }

  /// Drops one reference; recycles the descriptor's block when it was the
  /// last, then drops the reference of any aborter still registered.
  /// Runtime-created descriptors live in pool blocks (see
  /// Runtime::begin_attempt); a remote release routes the block back to the
  /// owning thread's pool through its remote-free stack.
  void release() noexcept {
    TxDesc* d = this;
    // A loop, not recursion: each freed descriptor hands on one reference.
    while (d != nullptr && d->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      TxDesc* by = d->aborted_by.load(std::memory_order_acquire);
      d->~TxDesc();
      util::Pool::deallocate(d);
      d = by;
    }
  }

  bool is_active() const noexcept {
    return status.load(std::memory_order_acquire) == TxStatus::kActive;
  }

  /// Tries to kill this transaction. Returns true if the transaction ends
  /// up aborted (whether we did it or it already was), false if it managed
  /// to commit first. An irrevocable transaction (serial-fallback token
  /// holder) refuses remote kills; its owner demotes it (clears the flag)
  /// before any self-abort, so the refusal only ever blocks enemies.
  bool try_abort() noexcept {
    if (irrevocable.load(std::memory_order_acquire)) {
      return status.load(std::memory_order_acquire) == TxStatus::kAborted;
    }
    TxStatus expected = TxStatus::kActive;
    return status.compare_exchange_strong(expected, TxStatus::kAborted,
                                          std::memory_order_acq_rel) ||
           expected == TxStatus::kAborted;
  }
};

}  // namespace wstm::stm
