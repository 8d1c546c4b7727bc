// Transaction descriptors.
//
// Every attempt runs on a TxDesc from the owning thread's pool. Until the
// attempt is exposed — the first moment another thread could learn its
// address (DESIGN.md §5) — it is the thread's never-published descriptor,
// reused in place by the next unexposed attempt. Runtime::publish makes it
// shared state, like DSTM's per-attempt Transaction objects: the thread's
// published slot, locators and orec lock words point at it, and enemy
// threads read/CAS its status and read its priority fields. A published
// descriptor is never reused in place. It is reclaimed by reference count —
// the published slot's reference (dropped through EBR when a later
// publication replaces it), one held by the executing thread for the rest
// of the attempt, plus one per locator that names it as owner (dropped when
// the locator itself is reclaimed through EBR) — and recycled through the
// pool when the count hits zero.
#pragma once

#include <atomic>
#include <cstdint>

#include "stm/fwd.hpp"
#include "util/cacheline.hpp"
#include "util/pool.hpp"

namespace wstm::stm {

struct alignas(kCacheLine) TxDesc {
  std::atomic<TxStatus> status{TxStatus::kActive};

  /// Thread slot in [0, kMaxThreads); also indexes the striped
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

  /// Polka's karma priority: number of objects opened so far (all attempts).
  std::atomic<std::uint32_t> karma{0};
  /// Greedy's "waiting" flag: set while the transaction is blocked inside a
  /// contention-manager wait; a waiting transaction may be killed by anyone.
  std::atomic<bool> waiting{false};

  /// Window pi(1): 1 = low priority (before the assigned frame), 0 = high.
  std::atomic<std::uint32_t> prio_class{1};
  /// Window pi(2): RandomizedRounds priority in [1, M]; redrawn on frame
  /// start and after every abort. Lower value wins.
  std::atomic<std::uint64_t> rand_prio{0};

  /// Escalation-ladder priority boost (0 = none). Read by enemies in
  /// Runtime::contend: a higher boost wins outright, regardless of the
  /// manager's own policy. Written only by the owning thread before the
  /// descriptor is published (the liveness layer publishes at begin).
  std::atomic<std::uint32_t> boost{0};
  /// Serial-fallback mode: the holder of the global irrevocable token
  /// cannot be aborted by enemies (try_abort refuses), so its conflicts
  /// must wait. Written only by the owning thread before publication;
  /// cleared by the owner before any abort of its own finalizes (abort_self
  /// and finish_attempt_abort both demote before their try_abort).
  std::atomic<bool> irrevocable{false};

  // --- lifetime ---
  std::atomic<std::int32_t> refs{1};

  void add_ref() noexcept { refs.fetch_add(1, std::memory_order_relaxed); }

  /// Drops one reference; recycles the descriptor's block when it was the
  /// last. Runtime-created descriptors live in pool blocks (see
  /// Runtime::begin_attempt); a remote release routes the block back to the
  /// owning thread's pool through its remote-free stack. Only published
  /// descriptors are released; the never-published one is reused.
  void release() noexcept {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    this->~TxDesc();
    util::Pool::deallocate(this);
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
