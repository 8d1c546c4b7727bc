// Liveness layer: starvation watchdog + serial-fallback token (mechanism).
//
// The *policy* — when a transaction climbs the escalation ladder
// (backoff -> CM priority boost -> irrevocable serial fallback -> hard
// timeout) — lives in Runtime (src/stm/runtime.cpp), which owns the
// attempt lifecycle. This file owns the shared *mechanism*:
//
//   - per-slot progress beacons, written by the owning worker thread and
//     scanned by the watchdog (each beacon on its own cache line);
//   - the single global irrevocable token (non-blocking acquire: a failed
//     CAS means "stay at the boost level this attempt", never "wait while
//     holding the scheduler" — blocking here would deadlock the serialized
//     deterministic executor);
//   - the watchdog thread itself, which flags abort storms and stalled
//     attempts and optionally kicks a stalled victim via a Runtime-provided
//     callback (the callback aborts the slot's current descriptor under an
//     EBR pin; the watchdog never dereferences TxDesc pointers itself).
//
// Everything here follows the null-pointer-toggle idiom from trace/check:
// when LivenessConfig::enabled is false, Runtime keeps a null
// LivenessManager* and the hot path pays one predictable branch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "stm/fwd.hpp"
#include "util/cacheline.hpp"

namespace wstm::resilience {

struct LivenessConfig {
  bool enabled = false;

  // Escalation ladder thresholds, in consecutive aborts of one logical
  // transaction. backoff_after <= boost_after <= serial_after.
  std::uint32_t backoff_after = 4;    ///< level 1: randomized exponential backoff
  std::uint32_t boost_after = 12;     ///< level 2: CM priority boost
  std::uint32_t serial_after = 24;    ///< level 3: try the irrevocable token

  // Backoff shape: sleep a uniform-random number of microseconds in
  // [0, min(backoff_base_us << excess, backoff_cap_us)]. base 0 disables
  // the sleep entirely (used by the deterministic checker).
  std::uint32_t backoff_base_us = 2;
  std::uint32_t backoff_cap_us = 500;

  /// Hard per-transaction deadline across attempts; 0 disables. On expiry
  /// the attempt unwinds and atomically() throws TxTimeoutError.
  std::int64_t deadline_ns = 10'000'000'000;

  /// Watchdog scan period; 0 disables the monitor thread (escalation and
  /// the token still work — they are driven by the worker threads).
  std::int64_t watchdog_period_ns = 5'000'000;

  /// An attempt with no schedule-point progress for this long is "stalled"
  /// (descheduled thread, runaway user code). 0 disables stall detection.
  std::int64_t stall_timeout_ns = 200'000'000;

  /// Consecutive aborts at which the watchdog flags an abort storm. This is
  /// observability (trace/metrics); the ladder thresholds above are the
  /// remediation and are usually tighter.
  std::uint32_t storm_threshold = 16;

  /// Kick (abort) stalled victims so their conflicts drain. Irrevocable
  /// holders are never kicked.
  bool kick_stalled = true;
};

class LivenessManager {
 public:
  // Beacon flag bits, set by the watchdog and collected by the owning
  // worker (take_flags) so the trace event lands in the owner's ring.
  static constexpr std::uint8_t kFlagStorm = 1;
  static constexpr std::uint8_t kFlagStall = 2;

  struct Stats {
    std::uint64_t token_acquisitions = 0;
    std::uint64_t max_token_holders = 0;      ///< must stay <= 1
    std::uint64_t token_overlap_violations = 0;  ///< must stay 0
    std::uint64_t storms_flagged = 0;
    std::uint64_t stalls_flagged = 0;
    std::uint64_t kicks = 0;
    std::uint64_t scans = 0;
  };

  explicit LivenessManager(const LivenessConfig& config) : config_(config) {}
  ~LivenessManager() { stop_watchdog(); }

  LivenessManager(const LivenessManager&) = delete;
  LivenessManager& operator=(const LivenessManager&) = delete;

  const LivenessConfig& config() const noexcept { return config_; }

  // ---- owner-side beacons (called by the slot's worker thread) ----------

  void note_attempt_begin(unsigned slot, std::int64_t now, std::int64_t first_begin,
                          std::uint32_t consecutive_aborts) noexcept {
    Beacon& b = *beacons_[slot];
    b.first_begin_ns.store(first_begin, std::memory_order_relaxed);
    b.last_progress_ns.store(now, std::memory_order_relaxed);
    b.consecutive_aborts.store(consecutive_aborts, std::memory_order_relaxed);
    b.in_attempt.store(1, std::memory_order_release);
  }

  /// Schedule-point progress (object opens). Keeps stall detection honest.
  void heartbeat(unsigned slot, std::int64_t now) noexcept {
    beacons_[slot]->last_progress_ns.store(now, std::memory_order_relaxed);
  }

  /// Marks the slot as parked in requester-waits arbitration (DESIGN.md
  /// §13): a parked thread is waiting, not stalled, so the watchdog must
  /// neither flag nor kick it — parks are bounded and the waker's unpark
  /// edge (or the slice timeout) is the progress signal. Owner-written.
  void set_parked(unsigned slot, bool parked) noexcept {
    beacons_[slot]->parked.store(parked ? 1 : 0, std::memory_order_release);
  }

  void note_attempt_end(unsigned slot, bool committed) noexcept {
    Beacon& b = *beacons_[slot];
    b.in_attempt.store(0, std::memory_order_release);
    // Progress happened, so any stall episode is over; a commit also ends
    // the storm episode. Re-arm the corresponding reported bits.
    std::uint8_t clear = kFlagStall;
    if (committed) clear |= kFlagStorm;
    b.reported.fetch_and(static_cast<std::uint8_t>(~clear), std::memory_order_relaxed);
  }

  /// Collects and clears watchdog detections for this slot, so the owning
  /// thread can record them into its own trace ring (rings are strictly
  /// single-writer). Returns a bitmask of kFlagStorm / kFlagStall.
  std::uint8_t take_flags(unsigned slot) noexcept {
    Beacon& b = *beacons_[slot];
    if (b.flags.load(std::memory_order_relaxed) == 0) return 0;
    return b.flags.exchange(0, std::memory_order_acq_rel);
  }

  // ---- irrevocable serial-fallback token --------------------------------

  /// Single global token; at most one holder. Non-blocking by design (see
  /// file comment). Counts acquisitions and tracks the observed maximum
  /// number of simultaneous holders as a live invariant check.
  bool try_acquire_token(unsigned slot) noexcept {
    int expected = -1;
    if (!token_owner_.compare_exchange_strong(expected, static_cast<int>(slot),
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
      return false;
    }
    const std::uint32_t holders = holders_.fetch_add(1, std::memory_order_acq_rel) + 1;
    std::uint64_t seen = max_holders_.load(std::memory_order_relaxed);
    while (holders > seen &&
           !max_holders_.compare_exchange_weak(seen, holders, std::memory_order_relaxed)) {
    }
    if (holders != 1) overlap_violations_.fetch_add(1, std::memory_order_relaxed);
    acquisitions_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  void release_token(unsigned slot) noexcept {
    if (token_owner_.load(std::memory_order_acquire) != static_cast<int>(slot)) return;
    holders_.fetch_sub(1, std::memory_order_acq_rel);
    token_owner_.store(-1, std::memory_order_release);
  }

  /// Slot currently holding the token, or -1.
  int token_owner() const noexcept { return token_owner_.load(std::memory_order_acquire); }

  // ---- watchdog ---------------------------------------------------------

  /// `kicker(slot)` is invoked (from the watchdog thread) for stalled slots
  /// when config().kick_stalled; Runtime supplies a callback that aborts the
  /// slot's current descriptor under an EBR pin. No-op when the period is 0.
  void start_watchdog(std::function<void(unsigned)> kicker);
  void stop_watchdog();

  Stats stats() const noexcept {
    Stats s;
    s.token_acquisitions = acquisitions_.load(std::memory_order_relaxed);
    s.max_token_holders = max_holders_.load(std::memory_order_relaxed);
    s.token_overlap_violations = overlap_violations_.load(std::memory_order_relaxed);
    s.storms_flagged = storms_.load(std::memory_order_relaxed);
    s.stalls_flagged = stalls_.load(std::memory_order_relaxed);
    s.kicks = kicks_.load(std::memory_order_relaxed);
    s.scans = scans_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Beacon {
    std::atomic<std::int64_t> first_begin_ns{0};
    std::atomic<std::int64_t> last_progress_ns{0};
    std::atomic<std::uint32_t> consecutive_aborts{0};
    std::atomic<std::uint8_t> in_attempt{0};
    std::atomic<std::uint8_t> parked{0};    ///< parked-not-stalled (set_parked)
    std::atomic<std::uint8_t> flags{0};     ///< pending, owner collects via take_flags
    std::atomic<std::uint8_t> reported{0};  ///< episode already counted (re-armed on progress)
  };

  void scan_once(const std::function<void(unsigned)>& kicker);

  LivenessConfig config_;
  CacheAligned<Beacon> beacons_[stm::kMaxThreads];  // indexed by thread slot

  std::atomic<int> token_owner_{-1};
  std::atomic<std::uint32_t> holders_{0};
  std::atomic<std::uint64_t> acquisitions_{0};
  std::atomic<std::uint64_t> max_holders_{0};
  std::atomic<std::uint64_t> overlap_violations_{0};

  std::atomic<std::uint64_t> storms_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> kicks_{0};
  std::atomic<std::uint64_t> scans_{0};

  std::thread watchdog_;
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  bool stop_requested_ = false;
};

}  // namespace wstm::resilience
