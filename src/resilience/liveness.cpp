#include "resilience/liveness.hpp"

#include <chrono>
#include <utility>

#include "util/timing.hpp"

namespace wstm::resilience {

void LivenessManager::start_watchdog(std::function<void(unsigned)> kicker) {
  if (config_.watchdog_period_ns <= 0 || watchdog_.joinable()) return;
  stop_requested_ = false;
  watchdog_ = std::thread([this, kicker = std::move(kicker)] {
    std::unique_lock<std::mutex> lock(wake_mutex_);
    while (!stop_requested_) {
      wake_.wait_for(lock, std::chrono::nanoseconds(config_.watchdog_period_ns),
                     [this] { return stop_requested_; });
      if (stop_requested_) break;
      lock.unlock();
      scan_once(kicker);
      lock.lock();
    }
  });
}

void LivenessManager::stop_watchdog() {
  if (!watchdog_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_requested_ = true;
  }
  wake_.notify_all();
  watchdog_.join();
}

void LivenessManager::scan_once(const std::function<void(unsigned)>& kicker) {
  scans_.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t now = now_ns();
  for (unsigned slot = 0; slot < stm::kMaxThreads; ++slot) {
    Beacon& b = *beacons_[slot];
    if (b.in_attempt.load(std::memory_order_acquire) == 0) continue;

    // Abort storm: the slot's logical transaction keeps getting killed.
    // Counted once per episode (reported bit re-armed when the tx commits).
    if (config_.storm_threshold > 0 &&
        b.consecutive_aborts.load(std::memory_order_relaxed) >= config_.storm_threshold) {
      const std::uint8_t rep = b.reported.fetch_or(kFlagStorm, std::memory_order_relaxed);
      if ((rep & kFlagStorm) == 0) {
        storms_.fetch_add(1, std::memory_order_relaxed);
        b.flags.fetch_or(kFlagStorm, std::memory_order_release);
      }
    }

    // Stall: an attempt that has made no schedule-point progress for too
    // long (descheduled thread, long-running user code). Kick it so the
    // objects it holds open become available again; the victim retries.
    // A parked slot is waiting by design, not stalled: its wait is bounded
    // by the park slice and it heartbeats on wakeup, so skip it here.
    if (b.parked.load(std::memory_order_acquire) != 0) continue;
    if (config_.stall_timeout_ns > 0 &&
        now - b.last_progress_ns.load(std::memory_order_relaxed) >= config_.stall_timeout_ns) {
      const std::uint8_t rep = b.reported.fetch_or(kFlagStall, std::memory_order_relaxed);
      if ((rep & kFlagStall) == 0) {
        stalls_.fetch_add(1, std::memory_order_relaxed);
        b.flags.fetch_or(kFlagStall, std::memory_order_release);
        if (config_.kick_stalled && kicker) {
          kicks_.fetch_add(1, std::memory_order_relaxed);
          kicker(slot);
        }
      }
    }
  }
}

}  // namespace wstm::resilience
