#include "window/window_cm.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "stm/runtime.hpp"
#include "trace/recorder.hpp"
#include "util/timing.hpp"

namespace wstm::window {

WindowCM::WindowCM(std::string name, WindowOptions options)
    : name_(std::move(name)),
      options_(options),
      tau_ns_(options.tau_init_ns),
      samples_tau_(!options.dynamic_frames || options.requester_waits),
      epoch_ns_(now_ns()) {
  if (options_.threads == 0 || options_.threads > stm::kMaxThreads) {
    throw std::invalid_argument("WindowCM: threads must be in [1, " +
                                std::to_string(stm::kMaxThreads) + "]");
  }
  if (options_.window_n == 0) throw std::invalid_argument("WindowCM: window_n must be > 0");
  if (options_.initial_c == 0.0) {
    options_.initial_c =
        options_.adapt == WindowOptions::Adapt::kNone ? options_.threads : 1.0;
  }
}

void WindowCM::start_window(stm::ThreadCtx& self, PerThread& st) {
  if (st.windows_started == 0) {
    st.c_est = options_.initial_c;
    st.ci.set_alpha(options_.ci_alpha);
    c_beacon_.store(st.c_est, std::memory_order_relaxed);
  }
  st.n = st.pending_n != 0 ? st.pending_n : options_.window_n;
  st.pending_n = 0;
  st.j = 0;
  st.in_window = true;
  st.windows_started++;

  const std::uint64_t alpha = delay_range_alpha(st.c_est, options_.threads, st.n);
  st.q = self.rng().below(alpha);
  if (options_.dynamic_frames) {
    st.base_frame = controller_.current_frame();
  } else {
    const std::int64_t phi =
        frame_length_ns(options_.threads, st.n, options_.frame_factor,
                        options_.frame_log_exponent, tau_ns_.load(std::memory_order_relaxed));
    st.clock.start(now_ns(), phi);
    st.base_frame = 0;
  }
  // Tracing baseline: static clocks restart at the window start, so the
  // "last observed frame" restarts with them.
  st.last_seen_frame = st.base_frame;
}

std::uint64_t WindowCM::frame_now(const PerThread& st) const {
  return options_.dynamic_frames ? controller_.current_frame() : st.clock.frame_at(now_ns());
}

void WindowCM::refresh_priority(stm::ThreadCtx& self, PerThread& st, stm::TxDesc& tx) {
  if (st.high) return;
  const std::uint64_t observed = frame_now(st);
  if (observed >= st.assigned_frame) {
    st.high = true;
    // π2 is (re)drawn "on start of the frame F_ij" (paper Section II-B2).
    tx.rand_prio.store(1 + self.rng().below(options_.threads), std::memory_order_release);
    tx.prio_class.store(0, std::memory_order_release);
    if (recorder_ != nullptr) {
      recorder_->record(self.slot(), trace::EventKind::kPrioritySwitch, tx.serial, 0,
                        trace::kNoEnemy, st.assigned_frame, observed);
    }
  }
}

void WindowCM::maybe_trace_frame(stm::ThreadCtx& self, PerThread& st, const stm::TxDesc& tx) {
  if (recorder_ == nullptr) return;
  const std::uint64_t observed = frame_now(st);
  if (observed != st.last_seen_frame) {
    recorder_->record(self.slot(), trace::EventKind::kFrameAdvance, tx.serial, 0, trace::kNoEnemy,
                      observed, st.last_seen_frame);
    st.last_seen_frame = observed;
  }
}

void WindowCM::advance_dynamic(stm::ThreadCtx& self, const stm::TxDesc& tx) {
  const std::uint64_t advanced = controller_.maybe_advance();
  if (recorder_ != nullptr && advanced > 0) {
    const std::uint64_t cur = controller_.current_frame();
    recorder_->record(self.slot(), trace::EventKind::kFrameAdvance, tx.serial, 1, trace::kNoEnemy,
                      cur, cur - advanced);
  }
}

void WindowCM::on_begin(stm::ThreadCtx& self, stm::TxDesc& tx, bool is_retry) {
  PerThread& st = *state_[self.slot()];

  if (!is_retry) {
    const bool fresh = !st.in_window || st.j >= st.n;
    if (fresh) start_window(self, st);
    st.assigned_frame = st.base_frame + st.q + st.j;
    // Replaces the slot's registration of a transaction that ended by
    // exception, and runs the contraction rule.
    if (options_.dynamic_frames) controller_.register_tx(self.slot(), st.assigned_frame);
    if (recorder_ != nullptr && fresh) {
      recorder_->record(self.slot(), trace::EventKind::kWindowStart, tx.serial, 0, trace::kNoEnemy,
                        st.q, st.n);
      recorder_->record(self.slot(), trace::EventKind::kCiUpdate, tx.serial, 0, trace::kNoEnemy,
                        trace::pack_double(st.c_est), trace::pack_double(st.ci.value()));
    }
  }
  st.conflicted_this_attempt = false;
  st.high = false;

  // Every attempt redraws π2 ("... and after every abort").
  tx.rand_prio.store(1 + self.rng().below(options_.threads), std::memory_order_release);
  tx.prio_class.store(1, std::memory_order_release);
  maybe_trace_frame(self, st, tx);
  refresh_priority(self, st, tx);

  // A first attempt's registration just ran the contraction rule.
  if (options_.dynamic_frames && is_retry) advance_dynamic(self, tx);
}

stm::Resolution WindowCM::resolve(stm::ThreadCtx& self, stm::TxDesc& tx, stm::TxDesc& enemy,
                                  stm::ConflictKind kind) {
  (void)kind;
  PerThread& st = *state_[self.slot()];
  st.conflicted_this_attempt = true;
  if (options_.dynamic_frames) advance_dynamic(self, tx);
  refresh_priority(self, st, tx);

  // Lexicographic comparison of the priority vectors (π1, π2), ties broken
  // by slot. Lower compares smaller = higher priority = wins. Each value is
  // loaded exactly once so the traced kResolve event carries the very
  // vectors this decision compared (the ScheduleChecker replays them).
  const std::uint64_t my_pc = tx.prio_class.load(std::memory_order_acquire);
  const std::uint64_t en_pc = enemy.prio_class.load(std::memory_order_acquire);
  std::uint64_t my_p2 = 0;
  std::uint64_t en_p2 = 0;
  stm::Resolution res;
  if (my_pc != en_pc) {
    res = my_pc < en_pc ? stm::Resolution::kAbortEnemy : stm::Resolution::kAbortSelf;
    if (res == stm::Resolution::kAbortSelf && options_.requester_waits &&
        waiter_ != nullptr) {
      // Low priority vs high: wait for our frame instead of burning the
      // abort. Park at most one frame length Φ — the winner's commit fires
      // the unpark edge, and refresh_priority on the retry path flips us
      // high once F_ij has begun. Refused parks (cycle, abort mode,
      // irrevocable self) fall back to the historical abort.
      const std::int64_t phi = frame_length_ns(
          options_.threads, st.n != 0 ? st.n : options_.window_n, options_.frame_factor,
          options_.frame_log_exponent, tau_ns_.load(std::memory_order_relaxed));
      if (waiter_->park_until_inactive(self, tx, enemy, phi)) {
        res = stm::Resolution::kRetry;
      }
    }
    if (recorder_ != nullptr) {
      my_p2 = tx.rand_prio.load(std::memory_order_acquire);
      en_p2 = enemy.rand_prio.load(std::memory_order_acquire);
    }
  } else {
    my_p2 = tx.rand_prio.load(std::memory_order_acquire);
    en_p2 = enemy.rand_prio.load(std::memory_order_acquire);
    if (my_p2 != en_p2) {
      res = my_p2 < en_p2 ? stm::Resolution::kAbortEnemy : stm::Resolution::kAbortSelf;
    } else {
      res = tx.thread_slot < enemy.thread_slot ? stm::Resolution::kAbortEnemy
                                               : stm::Resolution::kAbortSelf;
    }
  }
  if (recorder_ != nullptr) {
    recorder_->record(self.slot(), trace::EventKind::kResolve, tx.serial,
                      static_cast<std::uint8_t>(res), enemy.thread_slot, enemy.serial,
                      trace::pack_resolve_prios(my_pc, my_p2, en_pc, en_p2));
  }
  return res;
}

void WindowCM::on_commit(stm::ThreadCtx& self, stm::TxDesc& tx) {
  PerThread& st = *state_[self.slot()];
  if (samples_tau_) note_tau_sample(now_ns() - tx.begin_ns);
  st.ci.on_attempt_end(st.conflicted_this_attempt);

  const std::uint64_t commit_frame = frame_now(st);
  if (options_.dynamic_frames) controller_.complete_tx(self.slot());

  const bool bad_event = commit_frame > st.assigned_frame;
  if (recorder_ != nullptr) {
    recorder_->record(self.slot(), trace::EventKind::kWindowCommit, tx.serial,
                      bad_event ? 1 : 0, trace::kNoEnemy, st.assigned_frame, commit_frame);
  }
  st.j++;
  if (bad_event) {
    st.bad_events++;
    const double old_c = st.c_est;
    switch (options_.adapt) {
      case WindowOptions::Adapt::kNone:
        break;  // Online trusts its configured C_i
      case WindowOptions::Adapt::kDoubling:
        st.c_est = std::min(st.c_est * 2.0,
                            static_cast<double>(options_.threads) * st.n);
        break;
      case WindowOptions::Adapt::kContentionIntensity:
        st.c_est = st.ci.contention_estimate(options_.threads, st.n);
        break;
    }
    if (st.c_est != old_c) {
      c_beacon_.store(st.c_est, std::memory_order_relaxed);
      if (recorder_ != nullptr) {
        recorder_->record(self.slot(), trace::EventKind::kCiUpdate, tx.serial, 1,
                          trace::kNoEnemy, trace::pack_double(st.c_est),
                          trace::pack_double(st.ci.value()));
      }
    }
    if (options_.adapt != WindowOptions::Adapt::kNone && st.j < st.n) {
      // "start over again with the remaining transactions" — the next
      // on_begin opens a fresh window of the leftover length with a delay
      // drawn from the updated C_i.
      st.pending_n = st.n - st.j;
      st.in_window = false;
    }
  }
  if (st.j >= st.n) st.in_window = false;
}

void WindowCM::on_abort(stm::ThreadCtx& self, stm::TxDesc& tx) {
  PerThread& st = *state_[self.slot()];
  st.ci.on_attempt_end(true);
  // A low-priority loser will conflict with the same high-priority winner
  // again immediately; yield once so the winner can use the core. This is
  // a single-scheduler-quantum courtesy, not a backoff policy. yield_safe
  // keeps it a no-op under the deterministic checker, whose serialized
  // executor owns all interleaving.
  if (tx.prio_class.load(std::memory_order_acquire) == 1) {
    record_backoff(self, tx, 0, 1);
    if (waiter_ != nullptr) {
      waiter_->yield_safe();
    } else {
      std::this_thread::yield();
    }
  }
}

void WindowCM::on_window_start(stm::ThreadCtx& self, std::uint32_t n_transactions) {
  PerThread& st = *state_[self.slot()];
  st.pending_n = n_transactions;
  st.in_window = false;  // next on_begin starts the window
}

void WindowCM::on_boost(stm::ThreadCtx& self, stm::TxDesc& tx, std::uint32_t level) {
  (void)level;
  PerThread& st = *state_[self.slot()];
  if (st.high) return;  // already high; the boost field still breaks ties
  // Forced low→high switch: pin the assigned frame to the frame we observe
  // now, i.e. treat the escalated transaction as if its frame had just
  // begun. (Recording observed as both frames keeps the ScheduleChecker's
  // "switched at or after the assigned frame" invariant true by
  // construction.) π2 = 0 undercuts every regular draw in [1, M].
  const std::uint64_t observed = frame_now(st);
  st.assigned_frame = observed;
  st.high = true;
  tx.rand_prio.store(0, std::memory_order_release);
  tx.prio_class.store(0, std::memory_order_release);
  if (recorder_ != nullptr) {
    recorder_->record(self.slot(), trace::EventKind::kPrioritySwitch, tx.serial, 1,
                      trace::kNoEnemy, observed, observed);
  }
}

void WindowCM::note_tau_sample(std::int64_t sample_ns) {
  // EWMA with racy read-modify-write: lost updates only slow the estimate's
  // convergence, which is acceptable for a frame-length heuristic.
  const std::int64_t cur = tau_ns_.load(std::memory_order_relaxed);
  const std::int64_t next = cur - cur / 8 + sample_ns / 8;
  tau_ns_.store(next > 0 ? next : 1, std::memory_order_relaxed);
}

bool WindowCM::frame_schedule(cm::FrameSchedule* out) const {
  if (options_.dynamic_frames) {
    out->current_frame = controller_.current_frame();
  } else {
    const std::int64_t phi =
        frame_length_ns(options_.threads, options_.window_n, options_.frame_factor,
                        options_.frame_log_exponent, tau_ns_.load(std::memory_order_relaxed));
    const std::int64_t elapsed = now_ns() - epoch_ns_;
    out->current_frame =
        phi > 0 && elapsed > 0 ? static_cast<std::uint64_t>(elapsed / phi) : 0;
  }
  out->window_n = options_.window_n;
  const double c = c_beacon_.load(std::memory_order_relaxed);
  out->alpha = delay_range_alpha(c > 0.0 ? c : options_.initial_c, options_.threads,
                                 options_.window_n);
  return true;
}

WindowCM::ThreadSnapshot WindowCM::snapshot(unsigned slot) const {
  const PerThread& st = *state_[slot];
  ThreadSnapshot s;
  s.window_n = st.n;
  s.next_index = st.j;
  s.delay_q = st.q;
  s.c_est = st.c_est;
  s.ci = st.ci.value();
  s.windows_started = st.windows_started;
  s.bad_events = st.bad_events;
  return s;
}

cm::ManagerPtr make_window_manager(const std::string& name, WindowOptions options) {
  using Adapt = WindowOptions::Adapt;
  if (name == "Online") {
    options.dynamic_frames = false;
    options.adapt = Adapt::kNone;
  } else if (name == "Online-Dynamic") {
    options.dynamic_frames = true;
    options.adapt = Adapt::kNone;
  } else if (name == "Adaptive") {
    options.dynamic_frames = false;
    options.adapt = Adapt::kDoubling;
  } else if (name == "Adaptive-Dynamic") {
    options.dynamic_frames = true;
    options.adapt = Adapt::kDoubling;
  } else if (name == "Adaptive-Improved") {
    options.dynamic_frames = false;
    options.adapt = Adapt::kContentionIntensity;
  } else if (name == "Adaptive-Improved-Dynamic") {
    options.dynamic_frames = true;
    options.adapt = Adapt::kContentionIntensity;
  } else {
    throw std::invalid_argument("unknown window manager: " + name);
  }
  return std::make_unique<WindowCM>(name, options);
}

}  // namespace wstm::window
