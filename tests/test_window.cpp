// Tests for the window-based contention management machinery: frame math,
// the dynamic frame controller, the CI estimator, and WindowCM behavior.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cm/registry.hpp"
#include "stm/runtime.hpp"
#include "util/timing.hpp"
#include "window/ci_estimator.hpp"
#include "window/controller.hpp"
#include "window/frame_clock.hpp"
#include "window/window_cm.hpp"

namespace wstm::window {
namespace {

TEST(FrameClock, FramesAdvanceWithTime) {
  FrameClock clock;
  clock.start(1000, 100);
  EXPECT_EQ(clock.frame_at(999), 0u);
  EXPECT_EQ(clock.frame_at(1000), 0u);
  EXPECT_EQ(clock.frame_at(1099), 0u);
  EXPECT_EQ(clock.frame_at(1100), 1u);
  EXPECT_EQ(clock.frame_at(1000 + 100 * 7 + 5), 7u);
  EXPECT_EQ(clock.frame_begin_ns(3), 1300);
}

TEST(FrameClock, ZeroLengthIsClampedToOne) {
  FrameClock clock;
  clock.start(0, 0);
  EXPECT_EQ(clock.frame_at(5), 5u);
}

TEST(FrameClock, FrameLengthScalesWithLogMNAndTau) {
  const auto base = frame_length_ns(4, 50, 1.0, 1.0, 10'000);
  EXPECT_NEAR(static_cast<double>(base), std::log(200.0) * 10'000, 1.0);
  // Quadratic exponent (Online theory) lengthens frames.
  EXPECT_GT(frame_length_ns(4, 50, 1.0, 2.0, 10'000), base);
  // The floor keeps frames meaningful under a broken tau estimate.
  EXPECT_GE(frame_length_ns(4, 50, 1.0, 1.0, 0), 1000);
}

TEST(FrameClock, AlphaClampsToOneAndN) {
  // Tiny C: alpha floors at 1 (q is then always 0).
  EXPECT_EQ(delay_range_alpha(0.5, 4, 50), 1u);
  // Huge C: the paper caps alpha at N.
  EXPECT_EQ(delay_range_alpha(1e9, 4, 50), 50u);
  // In-between: C / ln(MN).
  const double c = 30.0;
  const auto expected = static_cast<std::uint64_t>(c / std::log(200.0));
  EXPECT_EQ(delay_range_alpha(c, 4, 50), expected);
}

TEST(Controller, AdvancesWhenFrameDrainsAndSomeoneWaits) {
  WindowController ctl;
  ctl.register_tx(0, 0);
  ctl.register_tx(1, 1);
  EXPECT_EQ(ctl.current_frame(), 0u);
  ctl.complete_tx(0);
  // Frame 0 drained and frame 1 has a waiter: contraction advances.
  EXPECT_EQ(ctl.current_frame(), 1u);
  ctl.complete_tx(1);
  // Nothing waits beyond: no pointless advance.
  EXPECT_EQ(ctl.current_frame(), 1u);
}

TEST(Controller, SkipsRunsOfEmptyFrames) {
  WindowController ctl;
  ctl.register_tx(0, 0);
  ctl.register_tx(1, 7);
  ctl.complete_tx(0);
  EXPECT_EQ(ctl.current_frame(), 7u);  // frames 1..6 were empty
  EXPECT_EQ(ctl.advances(), 7u);
}

TEST(Controller, ExpansionHoldsFrameWhilePending) {
  WindowController ctl;
  ctl.register_tx(0, 0);
  ctl.register_tx(1, 0);
  ctl.register_tx(2, 1);
  ctl.complete_tx(0);
  EXPECT_EQ(ctl.current_frame(), 0u);  // one tx still pending in frame 0
  ctl.complete_tx(1);
  EXPECT_EQ(ctl.current_frame(), 1u);
}

TEST(Controller, PendingCountsPerFrame) {
  WindowController ctl;
  ctl.register_tx(0, 3);
  ctl.register_tx(1, 3);
  EXPECT_EQ(ctl.pending(3), 2u);
  ctl.complete_tx(0);
  EXPECT_EQ(ctl.pending(3), 1u);
}

TEST(Controller, HighSlotHoldsItsFrame) {
  // The scan covers every slot that ever registered, not just the first
  // `threads` ones: a slot far above the others still holds its frame.
  WindowController ctl;
  ctl.register_tx(100, 2);
  ctl.register_tx(0, 5);
  EXPECT_EQ(ctl.current_frame(), 2u);
  EXPECT_EQ(ctl.pending(2), 1u);
  ctl.complete_tx(100);
  EXPECT_EQ(ctl.current_frame(), 5u);
}

TEST(Controller, NewRegistrationReplacesThePrevious) {
  // A thread has at most one pending transaction: a registration that was
  // never completed (its transaction ended by exception) is dropped by the
  // slot's next one instead of holding its frame forever.
  WindowController ctl;
  ctl.register_tx(0, 0);
  ctl.register_tx(1, 3);
  EXPECT_EQ(ctl.current_frame(), 0u);
  ctl.register_tx(0, 2);
  EXPECT_EQ(ctl.pending(0), 0u);
  EXPECT_EQ(ctl.current_frame(), 2u);
  ctl.complete_tx(0);
  EXPECT_EQ(ctl.current_frame(), 3u);
}

TEST(Controller, ConcurrentFrameNeverDecreasesNorPassesTheFurthestRegistration) {
  constexpr unsigned kThreads = 8;
  constexpr int kRounds = 5'000;
  WindowController ctl;
  std::atomic<std::uint64_t> furthest{0};  // raised before each registration
  std::atomic<unsigned> backwards{0};
  std::atomic<unsigned> beyond{0};
  std::vector<std::thread> workers;
  for (unsigned slot = 0; slot < kThreads; ++slot) {
    workers.emplace_back([&, slot] {
      std::uint64_t rng = 0x9e3779b97f4a7c15ull * (slot + 1);
      std::uint64_t last = 0;
      const auto observe = [&] {
        const std::uint64_t cur = ctl.current_frame();
        if (cur < last) backwards.fetch_add(1, std::memory_order_relaxed);
        if (cur > furthest.load()) beyond.fetch_add(1, std::memory_order_relaxed);
        last = cur;
      };
      for (int i = 0; i < kRounds; ++i) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        const std::uint64_t frame = ctl.current_frame() + rng % 4;
        std::uint64_t seen = furthest.load();
        while (seen < frame && !furthest.compare_exchange_weak(seen, frame)) {
        }
        ctl.register_tx(slot, frame);
        observe();
        if (rng % 3 == 0) ctl.maybe_advance();
        ctl.complete_tx(slot);
        observe();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(backwards.load(), 0u);
  EXPECT_EQ(beyond.load(), 0u);
  EXPECT_GT(ctl.advances(), 0u);
  EXPECT_LE(ctl.current_frame(), furthest.load());
}

TEST(CiEstimatorTest, ConvergesTowardConflictRate) {
  CiEstimator ci(0.5);
  for (int i = 0; i < 20; ++i) ci.on_attempt_end(true);
  EXPECT_GT(ci.value(), 0.99);
  for (int i = 0; i < 20; ++i) ci.on_attempt_end(false);
  EXPECT_LT(ci.value(), 0.01);
}

TEST(CiEstimatorTest, ContentionEstimateInterpolates) {
  CiEstimator ci(0.0);  // alpha 0: CI equals the last observation
  ci.on_attempt_end(false);
  EXPECT_DOUBLE_EQ(ci.contention_estimate(8, 50), 1.0);  // no conflicts -> C = 1
  ci.on_attempt_end(true);
  EXPECT_DOUBLE_EQ(ci.contention_estimate(8, 50), 1.0 + 7.0 * 50.0);
  // Single-thread windows cannot conflict.
  EXPECT_DOUBLE_EQ(ci.contention_estimate(1, 50), 1.0);
}

class WindowCmTest : public ::testing::Test {
 protected:
  static WindowOptions base_options(bool dynamic, WindowOptions::Adapt adapt) {
    WindowOptions opt;
    opt.threads = 4;
    opt.window_n = 8;
    opt.dynamic_frames = dynamic;
    opt.adapt = adapt;
    return opt;
  }
};

TEST_F(WindowCmTest, FactoryConfiguresTheFiveVariantsPlusExtension) {
  WindowOptions opt;
  opt.threads = 4;
  for (const char* name : {"Online", "Online-Dynamic", "Adaptive", "Adaptive-Dynamic",
                           "Adaptive-Improved", "Adaptive-Improved-Dynamic"}) {
    auto mgr = make_window_manager(name, opt);
    EXPECT_EQ(mgr->name(), name);
  }
  EXPECT_THROW(make_window_manager("Offline", opt), std::invalid_argument);
}

TEST_F(WindowCmTest, DefaultsInitialCByVariant) {
  WindowOptions opt;
  opt.threads = 8;
  opt.adapt = WindowOptions::Adapt::kNone;
  WindowCM online("Online", opt);
  EXPECT_DOUBLE_EQ(online.options().initial_c, 8.0);  // "C_i known": M

  opt.adapt = WindowOptions::Adapt::kDoubling;
  WindowCM adaptive("Adaptive", opt);
  EXPECT_DOUBLE_EQ(adaptive.options().initial_c, 1.0);  // guess from 1
}

TEST_F(WindowCmTest, RejectsBadOptions) {
  WindowOptions opt;
  opt.threads = 0;
  EXPECT_THROW(WindowCM("x", opt), std::invalid_argument);
  opt.threads = stm::kMaxThreads + 1;
  EXPECT_THROW(WindowCM("x", opt), std::invalid_argument);
  opt.threads = 4;
  opt.window_n = 0;
  EXPECT_THROW(WindowCM("x", opt), std::invalid_argument);
}

TEST_F(WindowCmTest, WindowsAutoRollEveryNTransactions) {
  cm::Params params;
  params.threads = 1;
  params.window_n = 5;
  stm::Runtime rt(cm::make_manager("Online-Dynamic", params));
  auto* wcm = dynamic_cast<WindowCM*>(&rt.manager());
  ASSERT_NE(wcm, nullptr);
  stm::ThreadCtx& tc = rt.attach_thread();

  stm::TObject<int> obj(0);
  for (int i = 0; i < 12; ++i) {
    rt.atomically(tc, [&](stm::Tx& tx) { *obj.open_write(tx) += 1; });
  }
  const auto snap = wcm->snapshot(tc.slot());
  // 12 transactions with N = 5: windows of 5 + 5 + (2 so far) = 3 windows.
  EXPECT_EQ(snap.windows_started, 3u);
  EXPECT_EQ(snap.next_index, 2u);
  EXPECT_EQ(*obj.peek(), 12);
}

TEST_F(WindowCmTest, AbandonedTransactionDoesNotFreezeDynamicFrames) {
  // A logical transaction that ends by exception never reaches on_commit,
  // so its frame registration is never completed. The thread's next
  // registration must replace it; otherwise the abandoned frame stays
  // pending forever and contraction can never pass it.
  for (const char* name : {"Online-Dynamic", "Adaptive-Improved-Dynamic"}) {
    SCOPED_TRACE(name);
    cm::Params params;
    params.threads = 1;
    params.window_n = 4;
    stm::Runtime rt(cm::make_manager(name, params));
    auto* wcm = dynamic_cast<WindowCM*>(&rt.manager());
    ASSERT_NE(wcm, nullptr);
    stm::ThreadCtx& tc = rt.attach_thread();
    stm::TObject<int> obj(0);
    const auto increment = [&](stm::Tx& tx) { *obj.open_write(tx) += 1; };

    for (int i = 0; i < 3; ++i) rt.atomically(tc, increment);
    EXPECT_EQ(wcm->controller().current_frame(), 2u);
    EXPECT_THROW(rt.atomically(tc,
                               [&](stm::Tx& tx) {
                                 increment(tx);
                                 throw std::runtime_error("user error");
                               }),
                 std::runtime_error);
    const std::uint64_t after_throw = wcm->controller().current_frame();
    EXPECT_EQ(after_throw, 3u);

    // One thread, q = 0: three of every four transactions in a window open
    // a later frame, so 200 commits advance about 150 frames.
    for (int i = 0; i < 200; ++i) rt.atomically(tc, increment);
    EXPECT_GT(wcm->controller().current_frame(), after_throw + 100);
    EXPECT_EQ(*obj.peek(), 203);
  }
}

TEST_F(WindowCmTest, BoostedTransactionCompletesItsOwnRegistration) {
  // An escalation boost pins the assigned frame to the observed one; the
  // commit must still retire the registration made under the original
  // frame, and leave other threads' registrations alone.
  WindowCM cm("Online-Dynamic", base_options(true, WindowOptions::Adapt::kNone));
  stm::Runtime rt(cm::make_manager("Aggressive", cm::Params{}));
  stm::ThreadCtx& holder = rt.attach_thread();
  stm::ThreadCtx& booster = rt.attach_thread();
  const WindowController& ctl = cm.controller();
  // C = M gives α = 1, so q = 0 and transaction j is assigned frame j.
  stm::TxDesc held, first, boosted, next;
  cm.on_begin(holder, held, false);  // frame 0, stays pending
  cm.on_begin(booster, first, false);
  cm.on_commit(booster, first);
  cm.on_begin(booster, boosted, false);  // frame 1, low while 0 is held
  ASSERT_EQ(boosted.prio_class.load(), 1u);
  cm.on_boost(booster, boosted, 2);
  cm.on_commit(booster, boosted);
  EXPECT_EQ(ctl.pending(1), 0u);
  EXPECT_EQ(ctl.pending(0), 1u);
  cm.on_commit(holder, held);
  cm.on_begin(booster, next, false);  // frame 2: nothing holds 0 any more
  EXPECT_EQ(ctl.current_frame(), 2u);
}

TEST_F(WindowCmTest, TauEstimateTracksCommittedDurations) {
  // On a virtual clock every committed attempt lasts exactly kStep: the
  // body is the only thing that advances time. The estimate is an EWMA of
  // weight 1/8 (WindowCM::note_tau_sample), so after n samples it sits at
  // kStep + (1 - 1/8)^n * (initial - kStep), plus at most 7 ns of rounding
  // (kStep is a multiple of 8, and each integer step floors by < 1 ns).
  constexpr std::int64_t kStep = 2'000;
  constexpr int kCommits = 16;
  std::atomic<std::int64_t> vclock{1'000'000};
  struct ClockGuard {
    explicit ClockGuard(std::atomic<std::int64_t>* c) { set_virtual_clock(c); }
    ~ClockGuard() { set_virtual_clock(nullptr); }
  } guard(&vclock);

  cm::Params params;
  params.threads = 1;
  stm::Runtime rt(cm::make_manager("Online", params));
  auto* wcm = dynamic_cast<WindowCM*>(&rt.manager());
  ASSERT_NE(wcm, nullptr);
  stm::ThreadCtx& tc = rt.attach_thread();
  const std::int64_t initial = wcm->tau_estimate_ns();
  ASSERT_GT(initial, kStep);
  stm::TObject<int> obj(0);
  for (int i = 0; i < kCommits; ++i) {
    rt.atomically(tc, [&](stm::Tx& tx) {
      *obj.open_write(tx) += 1;
      vclock.fetch_add(kStep, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(rt.total_metrics().aborts, 0u);
  const double expected =
      static_cast<double>(kStep) +
      std::pow(1.0 - 1.0 / 8, kCommits) * static_cast<double>(initial - kStep);
  const auto tau = static_cast<double>(wcm->tau_estimate_ns());
  EXPECT_GE(tau, std::floor(expected));
  EXPECT_LE(tau, expected + 7.0);
}

TEST_F(WindowCmTest, ResolvePrefersHighPriorityClass) {
  WindowOptions opt = base_options(false, WindowOptions::Adapt::kNone);
  WindowCM cm("Online", opt);
  stm::Runtime rt(cm::make_manager("Aggressive", cm::Params{}));
  stm::ThreadCtx& tc = rt.attach_thread();

  stm::TxDesc me, enemy;
  me.thread_slot = 0;
  enemy.thread_slot = 1;
  me.prio_class.store(0);   // high
  enemy.prio_class.store(1);  // low
  me.rand_prio.store(3);
  enemy.rand_prio.store(1);
  // High beats low regardless of pi(2).
  EXPECT_EQ(cm.resolve(tc, me, enemy, stm::ConflictKind::kWriteWrite),
            stm::Resolution::kAbortEnemy);

  me.prio_class.store(1);
  enemy.prio_class.store(0);
  EXPECT_EQ(cm.resolve(tc, me, enemy, stm::ConflictKind::kWriteWrite),
            stm::Resolution::kAbortSelf);
}

TEST_F(WindowCmTest, ResolveUsesRandomPriorityWithinClass) {
  WindowOptions opt = base_options(false, WindowOptions::Adapt::kNone);
  WindowCM cm("Online", opt);
  stm::Runtime rt(cm::make_manager("Aggressive", cm::Params{}));
  stm::ThreadCtx& tc = rt.attach_thread();

  stm::TxDesc me, enemy;
  me.thread_slot = 0;
  enemy.thread_slot = 1;
  me.prio_class.store(0);
  enemy.prio_class.store(0);
  me.rand_prio.store(2);
  enemy.rand_prio.store(6);
  EXPECT_EQ(cm.resolve(tc, me, enemy, stm::ConflictKind::kWriteWrite),
            stm::Resolution::kAbortEnemy);
  me.rand_prio.store(6);
  enemy.rand_prio.store(2);
  EXPECT_EQ(cm.resolve(tc, me, enemy, stm::ConflictKind::kWriteWrite),
            stm::Resolution::kAbortSelf);
  // Tie: lower slot wins.
  enemy.rand_prio.store(6);
  EXPECT_EQ(cm.resolve(tc, me, enemy, stm::ConflictKind::kWriteWrite),
            stm::Resolution::kAbortEnemy);
}

TEST_F(WindowCmTest, AdaptiveDoublingReactsToBadEvents) {
  // Force bad events with an artificially long tau and tiny frames? Easier:
  // run a contended workload and just assert the adaptive estimate can only
  // be >= its start and <= the cap.
  cm::Params params;
  params.threads = 2;
  params.window_n = 4;
  stm::Runtime rt(cm::make_manager("Adaptive", params));
  auto* wcm = dynamic_cast<WindowCM*>(&rt.manager());
  stm::ThreadCtx& tc = rt.attach_thread();
  stm::TObject<int> obj(0);
  for (int i = 0; i < 40; ++i) {
    rt.atomically(tc, [&](stm::Tx& tx) { *obj.open_write(tx) += 1; });
  }
  const auto snap = wcm->snapshot(tc.slot());
  EXPECT_GE(snap.c_est, 1.0);
  EXPECT_LE(snap.c_est, 2.0 * 4 * 2);  // <= 2 * M * N
}

TEST_F(WindowCmTest, SnapshotReportsDelayWithinAlpha) {
  cm::Params params;
  params.threads = 4;
  params.window_n = 50;
  params.initial_c = 100.0;
  stm::Runtime rt(cm::make_manager("Online", params));
  auto* wcm = dynamic_cast<WindowCM*>(&rt.manager());
  stm::ThreadCtx& tc = rt.attach_thread();
  stm::TObject<int> obj(0);
  rt.atomically(tc, [&](stm::Tx& tx) { *obj.open_write(tx) += 1; });
  const auto snap = wcm->snapshot(tc.slot());
  const auto alpha = delay_range_alpha(100.0, 4, 50);
  EXPECT_LT(snap.delay_q, alpha);
}

}  // namespace
}  // namespace wstm::window
