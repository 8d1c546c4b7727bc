#include "resilience/chaos.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace wstm::resilience {

namespace {

void sleep_us(std::uint32_t us) {
  if (us == 0) {
    std::this_thread::yield();
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

double clamp01(double p) { return std::min(1.0, std::max(0.0, p)); }

}  // namespace

ChaosConfig default_chaos(double intensity) {
  ChaosConfig c;
  c.enabled = true;
  c.p_stall = clamp01(0.002 * intensity);
  c.stall_max_us = 200;
  c.p_abort = clamp01(0.01 * intensity);
  c.p_delay_commit = clamp01(0.01 * intensity);
  c.delay_max_us = 50;
  c.p_stall_dequeue = clamp01(0.005 * intensity);
  c.dequeue_stall_max_us = 500;
  c.ebr_pressure_every = 32;
  c.ebr_pressure_burst = 64;
  return c;
}

ChaosInjector::Injection ChaosInjector::at_open(Xoshiro256& rng) {
  Injection inj;
  if (config_.p_stall > 0 && rng.uniform01() < config_.p_stall) {
    inj.fault = Fault::kStall;
    inj.slept_us = config_.stall_max_us > 0 ? rng.below(config_.stall_max_us + 1) : 0;
    stalls_.fetch_add(1, std::memory_order_relaxed);
    sleep_us(inj.slept_us);
    return inj;
  }
  if (config_.p_abort > 0 && rng.uniform01() < config_.p_abort) {
    inj.fault = Fault::kSpuriousAbort;
    spurious_aborts_.fetch_add(1, std::memory_order_relaxed);
    return inj;
  }
  return inj;
}

ChaosInjector::Injection ChaosInjector::at_commit(Xoshiro256& rng, bool irrevocable) {
  Injection inj;
  if (config_.p_delay_commit > 0 && rng.uniform01() < config_.p_delay_commit) {
    inj.fault = Fault::kDelayCommit;
    inj.slept_us = config_.delay_max_us > 0 ? rng.below(config_.delay_max_us + 1) : 0;
    delayed_commits_.fetch_add(1, std::memory_order_relaxed);
    sleep_us(inj.slept_us);
    return inj;
  }
  if (!irrevocable && config_.p_abort > 0 && rng.uniform01() < config_.p_abort) {
    inj.fault = Fault::kSpuriousAbort;
    spurious_aborts_.fetch_add(1, std::memory_order_relaxed);
  }
  return inj;
}

ChaosInjector::Injection ChaosInjector::at_dequeue(Xoshiro256& rng) {
  Injection inj;
  if (config_.p_stall_dequeue > 0 && rng.uniform01() < config_.p_stall_dequeue) {
    inj.fault = Fault::kStallDequeue;
    inj.slept_us =
        config_.dequeue_stall_max_us > 0 ? rng.below(config_.dequeue_stall_max_us + 1) : 0;
    dequeue_stalls_.fetch_add(1, std::memory_order_relaxed);
    sleep_us(inj.slept_us);
  }
  return inj;
}

std::uint32_t ChaosInjector::ebr_pressure_due(unsigned slot) noexcept {
  if (config_.ebr_pressure_every == 0) return 0;
  if (++commit_count_[slot] % config_.ebr_pressure_every != 0) return 0;
  ebr_bursts_.fetch_add(1, std::memory_order_relaxed);
  return config_.ebr_pressure_burst;
}

}  // namespace wstm::resilience
