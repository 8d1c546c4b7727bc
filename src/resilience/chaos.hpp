// Live chaos injection for the real multithreaded runtime.
//
// Unlike the deterministic checker's fault injector (src/check/policy.cpp),
// which perturbs a serialized virtual execution, this injector perturbs
// *real* concurrent runs: worker threads are stalled mid-transaction (a
// stand-in for OS descheduling), aborted spuriously, delayed between
// deciding to commit and publishing it, and subjected to EBR reclamation
// pressure. The point is to exercise the liveness layer and the CMs under
// the kind of adversarial timing a benchmark machine never produces on its
// own, while the harness asserts progress floors (tools/wstm-chaos).
//
// All randomness comes from the calling thread's runtime RNG, so a chaos
// run is as repeatable as any other seeded harness run modulo OS timing.
// Disabled (the default) it is a null pointer on Runtime — zero hot-path
// cost beyond one branch.
#pragma once

#include <atomic>
#include <cstdint>

#include "stm/fwd.hpp"
#include "util/rng.hpp"

namespace wstm::resilience {

struct ChaosConfig {
  bool enabled = false;

  double p_stall = 0.0;            ///< per-open chance to sleep the thread mid-tx
  std::uint32_t stall_max_us = 200;

  double p_abort = 0.0;            ///< per-open chance of a spurious self-abort

  double p_delay_commit = 0.0;     ///< per-commit chance to sleep before the status CAS
  std::uint32_t delay_max_us = 50;

  /// Per-dequeue chance that a serve worker (src/serve/worker_pool.cpp)
  /// stalls between pulling a request off its queue and starting the
  /// transaction — a stand-in for a descheduled worker, exercising the
  /// deadline path (requests age in the queue behind the stalled one).
  double p_stall_dequeue = 0.0;
  std::uint32_t dequeue_stall_max_us = 500;

  /// Every N commits per slot, retire a burst of dummy blocks through the
  /// thread's EBR handle to stress epoch advancement. 0 disables.
  std::uint32_t ebr_pressure_every = 0;
  std::uint32_t ebr_pressure_burst = 64;
};

/// Moderate all-faults-on profile used by --chaos. `intensity` scales the
/// probabilities (clamped to [0,1]); 1.0 is the CI default.
ChaosConfig default_chaos(double intensity = 1.0);

class ChaosInjector {
 public:
  enum class Fault : std::uint8_t {
    kNone = 0,
    kStall = 1,
    kSpuriousAbort = 2,
    kDelayCommit = 3,
    kEbrPressure = 4,
    kStallDequeue = 5,
  };

  struct Injection {
    Fault fault = Fault::kNone;
    std::uint32_t slept_us = 0;
  };

  struct Stats {
    std::uint64_t stalls = 0;
    std::uint64_t spurious_aborts = 0;
    std::uint64_t delayed_commits = 0;
    std::uint64_t ebr_bursts = 0;
    std::uint64_t dequeue_stalls = 0;
  };

  explicit ChaosInjector(const ChaosConfig& config) : config_(config) {}

  const ChaosConfig& config() const noexcept { return config_; }

  /// Rolled at every object open. Performs the stall sleep inline; a
  /// kSpuriousAbort result is acted on by the caller (Runtime skips it for
  /// irrevocable transactions — the token means "cannot be aborted").
  Injection at_open(Xoshiro256& rng);

  /// Rolled in finish_attempt_commit before the status CAS. The delay is
  /// slept inline; `irrevocable` suppresses the spurious-abort roll.
  Injection at_commit(Xoshiro256& rng, bool irrevocable);

  /// Commit-count-driven EBR pressure for thread `slot` (< stm::kMaxThreads);
  /// returns the burst size to retire (0 = none this commit). Caller
  /// retires while still pinned.
  std::uint32_t ebr_pressure_due(unsigned slot) noexcept;

  /// Rolled by serve workers right after pulling a request off a queue.
  /// The stall is slept inline, outside any transaction.
  Injection at_dequeue(Xoshiro256& rng);

  Stats stats() const noexcept {
    Stats s;
    s.stalls = stalls_.load(std::memory_order_relaxed);
    s.spurious_aborts = spurious_aborts_.load(std::memory_order_relaxed);
    s.delayed_commits = delayed_commits_.load(std::memory_order_relaxed);
    s.ebr_bursts = ebr_bursts_.load(std::memory_order_relaxed);
    s.dequeue_stalls = dequeue_stalls_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  ChaosConfig config_;
  std::uint32_t commit_count_[stm::kMaxThreads] = {};  // per-slot, owner-thread only
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<std::uint64_t> spurious_aborts_{0};
  std::atomic<std::uint64_t> delayed_commits_{0};
  std::atomic<std::uint64_t> ebr_bursts_{0};
  std::atomic<std::uint64_t> dequeue_stalls_{0};
};

}  // namespace wstm::resilience
