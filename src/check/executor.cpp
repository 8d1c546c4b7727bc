#include "check/executor.hpp"

#include "util/timing.hpp"

namespace wstm::check {
namespace {

/// -1 = not a virtual thread (main thread, or a worker after thread_done).
thread_local int tl_vid = -1;

}  // namespace

VirtualExecutor::VirtualExecutor(unsigned num_threads, Policy& policy, std::uint64_t max_steps,
                                 std::int64_t tick_ns)
    : num_threads_(num_threads),
      policy_(policy),
      max_steps_(max_steps),
      tick_ns_(tick_ns),
      state_(num_threads, State::kUnregistered),
      parked_(num_threads, Point::kThreadStart),
      granted_(num_threads, Action::kProceed),
      stalled_until_(num_threads, 0),
      blocked_on_(num_threads, nullptr),
      // Nonzero epoch so virtual timestamps never collide with the "unset"
      // zero that some metrics fields start from.
      vnow_(1'000'000) {
  log_.reserve(4096);
  set_virtual_clock(&vnow_);
}

VirtualExecutor::~VirtualExecutor() { set_virtual_clock(nullptr); }

void VirtualExecutor::register_thread(int vid) {
  tl_vid = vid;
  std::unique_lock lock(mu_);
  state_[static_cast<std::size_t>(vid)] = State::kWaiting;
  parked_[static_cast<std::size_t>(vid)] = Point::kThreadStart;
  if (++registered_ == num_threads_) grant_next_locked();
  cv_.wait(lock, [&] {
    return running_ == vid || free_run_.load(std::memory_order_relaxed);
  });
}

void VirtualExecutor::thread_done() {
  const int vid = tl_vid;
  tl_vid = -1;
  if (vid < 0) return;
  std::unique_lock lock(mu_);
  state_[static_cast<std::size_t>(vid)] = State::kDone;
  if (running_ == vid) {
    running_ = -1;
    grant_next_locked();
  }
}

Action VirtualExecutor::on_point(Point p, const void* object) noexcept {
  const int vid = tl_vid;
  if (vid < 0) return Action::kProceed;
  if (free_run_.load(std::memory_order_relaxed)) return Action::kProceed;
  std::unique_lock lock(mu_);
  if (free_run_.load(std::memory_order_relaxed)) return Action::kProceed;
  // Park/unpark side effects apply at *arrival*, not at grant: only one
  // thread runs between two grants, so arrival order is itself determined
  // by the decision log and replay stays bit-identical.
  if (p == Point::kUnpark && object != nullptr) {
    for (unsigned i = 0; i < num_threads_; ++i) {
      if (blocked_on_[i] == object) blocked_on_[i] = nullptr;
    }
  } else if (p == Point::kPark && object != nullptr) {
    blocked_on_[static_cast<std::size_t>(vid)] = object;
  }
  state_[static_cast<std::size_t>(vid)] = State::kWaiting;
  parked_[static_cast<std::size_t>(vid)] = p;
  if (running_ == vid) running_ = -1;
  grant_next_locked();
  cv_.wait(lock, [&] {
    return running_ == vid || free_run_.load(std::memory_order_relaxed);
  });
  if (running_ != vid) return Action::kProceed;  // released by free-run
  blocked_on_[static_cast<std::size_t>(vid)] = nullptr;  // granted ⇒ woken
  return granted_[static_cast<std::size_t>(vid)];
}

void VirtualExecutor::on_opacity_violation(const char* what) noexcept {
  // The ghost checks assume token-serialized execution. In the free-run
  // tail real concurrency races them benignly, and the run's verdict is
  // void anyway. Every thread learns of the flip under mu_ (its on_point
  // or start wait), so the relaxed load cannot miss it.
  if (free_run_.load(std::memory_order_relaxed)) return;
  opacity_violations_.fetch_add(1, std::memory_order_acq_rel);
  const char* expected = nullptr;
  first_opacity_what_.compare_exchange_strong(expected, what, std::memory_order_acq_rel);
}

void VirtualExecutor::grant_next_locked() {
  if (registered_ < num_threads_) return;  // still in the start barrier
  for (;;) {
    std::vector<int> eligible;
    bool any_waiting = false;
    bool any_stalled = false;
    bool any_parked = false;
    for (unsigned i = 0; i < num_threads_; ++i) {
      if (state_[i] != State::kWaiting) continue;
      any_waiting = true;
      if (blocked_on_[i] != nullptr) {
        any_parked = true;
        continue;
      }
      if (stalled_until_[i] <= step_) eligible.push_back(static_cast<int>(i));
      else any_stalled = true;
    }
    if (!any_waiting) return;  // everyone done (or running, impossible here)
    if (eligible.empty()) {
      if (any_stalled) {
        // Every runnable thread is stalled; forcing the stalls to expire
        // keeps the run live without making any of them spuriously eligible
        // earlier in a *replayed* schedule (replay never stalls).
        for (unsigned i = 0; i < num_threads_; ++i) stalled_until_[i] = 0;
        continue;
      }
      // Every waiting thread is parked on a descriptor and no unpark edge
      // can ever fire (the would-be wakers are all parked or done): a lost
      // wakeup or a park cycle. Record the deadlock-freedom violation and
      // force-wake everyone so the run terminates — the wake lands at this
      // exact decision index on replay, keeping the repro deterministic.
      (void)any_parked;  // implied: any_waiting && !any_stalled && no eligible
      park_deadlocks_.fetch_add(1, std::memory_order_acq_rel);
      for (unsigned i = 0; i < num_threads_; ++i) blocked_on_[i] = nullptr;
      continue;
    }
    const Choice c = policy_.choose(step_, eligible, parked_);
    const auto uvid = static_cast<std::size_t>(c.vid);
    if (c.stall_steps > 0) {
      stalled_until_[uvid] = step_ + c.stall_steps;
      continue;  // decision not logged: stalls only reshape later grants
    }
    log_.push_back(Decision{static_cast<std::uint16_t>(c.vid), parked_[uvid], c.action});
    granted_[uvid] = c.action;
    state_[uvid] = State::kRunning;
    running_ = c.vid;
    ++step_;
    vnow_.fetch_add(tick_ns_, std::memory_order_relaxed);
    if (step_ >= max_steps_) {
      enter_free_run_locked();
      return;
    }
    cv_.notify_all();
    return;
  }
}

void VirtualExecutor::enter_free_run_locked() {
  free_run_.store(true, std::memory_order_relaxed);
  // Real time must flow again or CM waits spin on a frozen clock.
  set_virtual_clock(nullptr);
  for (unsigned i = 0; i < num_threads_; ++i) {
    blocked_on_[i] = nullptr;
    if (state_[i] == State::kWaiting) state_[i] = State::kRunning;
  }
  cv_.notify_all();
}

}  // namespace wstm::check
