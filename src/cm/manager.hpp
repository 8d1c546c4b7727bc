// Contention-manager interface (DSTM2-style, eager conflict management).
//
// The runtime calls the manager the moment either engine discovers a
// conflict with an active enemy ("eager"; orec also finds them at
// validation and lock time). Runtime::contend is the runtime's one call of
// resolve(): it counts and traces the conflict, applies the liveness
// layer's short-circuits and escalation boost first, and acts on the
// answer. resolve() may wait internally — yielding, never hard spinning —
// but must eventually return, and must return kAbortSelf promptly once the
// calling transaction has itself been killed (it can check
// `tx.is_active()`).
//
// Managers are shared by all threads of one Runtime; per-transaction state
// lives in TxDesc's scratch fields, per-thread state in slot-indexed arrays
// inside the concrete manager.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "stm/fwd.hpp"
#include "stm/tx.hpp"

namespace wstm::trace {
class Recorder;
}

namespace wstm::cm {

/// Snapshot of a window manager's frame assignment, exposed so the serving
/// layer (src/serve/) can reuse the frame schedule as a queue-placement
/// policy. Non-window managers have no schedule and return false from
/// frame_schedule().
struct FrameSchedule {
  std::uint64_t current_frame = 0;  ///< frame index "now" (global beacon)
  std::uint32_t window_n = 1;       ///< N, transactions (frames) per window
  std::uint64_t alpha = 1;          ///< delay range α = C/ln(MN), clamped [1, N]
};

/// Wait-capable arbitration verb the Runtime offers its managers
/// (requester-waits mode, DESIGN.md §13). Managers that would otherwise
/// spin/yield out a conflict call park_until_inactive and fall back to
/// their historical wait loop when it returns false. Implemented by the
/// Runtime (which owns the ParkingLot, the deadline bounds, the watchdog
/// beacons and the checker's kPark/kUnpark points); attached through the
/// same null-toggle idiom as trace::Recorder.
class WaitHooks {
 public:
  virtual ~WaitHooks() = default;

  /// Parks the calling thread until `enemy` leaves Active, an unpark edge
  /// fires, or `max_wait_ns` elapses — whichever is first; never unbounded.
  /// Returns false without waiting when parking is unavailable: abort-mode
  /// runtime, irrevocable (serial-token) self, non-positive budget, or a
  /// park that would close a waiter cycle. The caller re-examines the
  /// conflict afterwards either way (spurious-wakeup semantics).
  virtual bool park_until_inactive(stm::ThreadCtx& self, const stm::TxDesc& tx,
                                   const stm::TxDesc& enemy,
                                   std::int64_t max_wait_ns) noexcept = 0;

  /// Schedule-pure yield: a real std::this_thread::yield() in normal
  /// operation, a no-op under the deterministic checker (whose serialized
  /// executor owns all interleaving; a raw yield there is schedule-impure).
  virtual void yield_safe() noexcept = 0;
};

class ContentionManager {
 public:
  virtual ~ContentionManager() = default;

  virtual std::string name() const = 0;

  /// Decide one conflict between the calling transaction `tx` and an
  /// `enemy` that was active when the conflict was discovered. A manager
  /// must not keep `tx` after the call returns: on orec it may be the
  /// thread's never-published descriptor, which the next attempt reuses in
  /// place (DESIGN.md §5).
  virtual stm::Resolution resolve(stm::ThreadCtx& self, stm::TxDesc& tx, stm::TxDesc& enemy,
                                  stm::ConflictKind kind) = 0;

  /// The escalation ladder boosted `tx` (level >= 2) for the attempt that
  /// just began; called after on_begin so managers can adjust per-attempt
  /// priority state. WindowCM switches the thread to high priority and pins
  /// its frame; classic managers need nothing beyond the boost field.
  virtual void on_boost(stm::ThreadCtx& self, stm::TxDesc& tx, std::uint32_t level) {
    (void)self, (void)tx, (void)level;
  }

  /// A new attempt begins (is_retry = false only for the first attempt of a
  /// logical transaction).
  virtual void on_begin(stm::ThreadCtx& self, stm::TxDesc& tx, bool is_retry) {
    (void)self, (void)tx, (void)is_retry;
  }

  /// An object was opened successfully (Polka's karma accrual). Called by
  /// Runtime::open_read/open_write after the engine returns.
  virtual void on_open(stm::ThreadCtx& self, stm::TxDesc& tx) { (void)self, (void)tx; }

  virtual void on_commit(stm::ThreadCtx& self, stm::TxDesc& tx) { (void)self, (void)tx; }

  /// The attempt aborted; the manager may back off here before the runtime
  /// retries (greedy managers return immediately).
  virtual void on_abort(stm::ThreadCtx& self, stm::TxDesc& tx) { (void)self, (void)tx; }

  /// Window-model hook: thread `self` is about to execute a window of
  /// `n_transactions` transactions. Non-window managers ignore it.
  virtual void on_window_start(stm::ThreadCtx& self, std::uint32_t n_transactions) {
    (void)self, (void)n_transactions;
  }

  /// Fills `out` with the manager's current frame schedule and returns true,
  /// or returns false if the manager has none (all classic CMs). Callable
  /// from any thread, including ones not attached to the runtime — the
  /// serve-layer window-frame policy polls it on the submit path.
  virtual bool frame_schedule(FrameSchedule* out) const {
    (void)out;
    return false;
  }

  /// Wires the optional event recorder (called by the Runtime; null when
  /// tracing is off). Managers record backoff/priority events through it.
  void attach_recorder(trace::Recorder* recorder) noexcept { recorder_ = recorder; }

  /// Wires the Runtime's wait verb (always attached by the Runtime ctor;
  /// null only for managers constructed bare in unit tests, where waits
  /// fall back to the historical spin/yield loops).
  void attach_wait_hooks(WaitHooks* waiter) noexcept { waiter_ = waiter; }

 protected:
  /// Records a kBackoff event for a wait the manager performed on behalf of
  /// `tx` (no-op without a recorder). Defined in manager.cpp.
  void record_backoff(stm::ThreadCtx& self, const stm::TxDesc& tx, std::uint64_t waited_ns,
                      std::uint64_t rounds) noexcept;

  /// Null when tracing is disabled. Concrete managers gate every recording
  /// on this pointer so the untraced hot path stays branch-predictable.
  trace::Recorder* recorder_ = nullptr;

  /// Runtime wait verb, null only without a Runtime (bare unit tests).
  WaitHooks* waiter_ = nullptr;
};

using ManagerPtr = std::unique_ptr<ContentionManager>;

}  // namespace wstm::cm
