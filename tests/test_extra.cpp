// Additional cross-cutting coverage: read/write upgrades, wait metrics,
// window bookkeeping corner cases, harness matrix output, and simulator
// option handling.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "sim/experiment.hpp"
#include "stm/runtime.hpp"
#include "vacation/manager.hpp"
#include "window/window_cm.hpp"

namespace wstm {
namespace {

TEST(StmUpgrade, ReadThenWriteThenReadSeesOwnValue) {
  cm::Params params;
  params.threads = 1;
  stm::Runtime rt(cm::make_manager("Polka", params));
  stm::ThreadCtx& tc = rt.attach_thread();
  stm::TObject<long> obj(5);
  rt.atomically(tc, [&](stm::Tx& tx) {
    EXPECT_EQ(*obj.open_read(tx), 5);
    *obj.open_write(tx) = 6;            // upgrade
    EXPECT_EQ(*obj.open_read(tx), 6);   // read-own-write after upgrade
    *obj.open_write(tx) = 7;            // second write reuses the clone
    EXPECT_EQ(*obj.open_read(tx), 7);
  });
  EXPECT_EQ(*obj.peek(), 7);
}

TEST(StmPeek, ReflectsOnlyCommittedState) {
  cm::Params params;
  params.threads = 1;
  stm::Runtime rt(cm::make_manager("Polka", params));
  stm::ThreadCtx& tc = rt.attach_thread();
  stm::TObject<long> obj(1);
  int attempts = 0;
  rt.atomically(tc, [&](stm::Tx& tx) {
    *obj.open_write(tx) = 99;
    if (++attempts == 1) tx.restart();  // first attempt aborts
  });
  EXPECT_EQ(*obj.peek(), 99);
  EXPECT_EQ(attempts, 2);
}

TEST(WindowExplicitStart, HonorsRequestedWindowLength) {
  cm::Params params;
  params.threads = 1;
  params.window_n = 50;
  stm::Runtime rt(cm::make_manager("Online", params));
  auto* wcm = dynamic_cast<window::WindowCM*>(&rt.manager());
  ASSERT_NE(wcm, nullptr);
  stm::ThreadCtx& tc = rt.attach_thread();
  rt.manager().on_window_start(tc, 3);  // explicit short window
  stm::TObject<int> obj(0);
  for (int i = 0; i < 3; ++i) {
    rt.atomically(tc, [&](stm::Tx& tx) { *obj.open_write(tx) += 1; });
  }
  auto snap = wcm->snapshot(tc.slot());
  EXPECT_EQ(snap.window_n, 3u);
  EXPECT_EQ(snap.windows_started, 1u);
  // The next transaction rolls into a default-length window.
  rt.atomically(tc, [&](stm::Tx& tx) { *obj.open_write(tx) += 1; });
  snap = wcm->snapshot(tc.slot());
  EXPECT_EQ(snap.window_n, 50u);
  EXPECT_EQ(snap.windows_started, 2u);
}

TEST(WindowOptionsRespected, ExplicitInitialCOverridesDefault) {
  window::WindowOptions opt;
  opt.threads = 8;
  opt.initial_c = 33.0;
  window::WindowCM cm("Online", opt);
  EXPECT_DOUBLE_EQ(cm.options().initial_c, 33.0);
}

TEST(HarnessMatrix, PrintsOneTablePerBenchmark) {
  harness::MatrixSpec spec;
  spec.benchmarks = {"list", "rbtree"};
  spec.cms = {"Aggressive"};
  spec.thread_counts = {1};
  spec.base.duration_ms = 30;
  spec.repetitions = 1;
  std::ostringstream out;
  EXPECT_TRUE(harness::run_matrix_and_print(spec, {harness::kThroughput}, out));
  const std::string text = out.str();
  EXPECT_NE(text.find("# list"), std::string::npos);
  EXPECT_NE(text.find("# rbtree"), std::string::npos);
  EXPECT_NE(text.find("Aggressive"), std::string::npos);
}

TEST(MetricsWaits, CountedWhenManagerWaits) {
  // Greedy waits when the enemy is older: provoke one wait via two threads.
  cm::Params params;
  params.threads = 2;
  stm::Runtime rt(cm::make_manager("Greedy", params));
  stm::TObject<long> obj(0);

  std::atomic<bool> holder_ready{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    stm::ThreadCtx& tc = rt.attach_thread();
    rt.atomically(tc, [&](stm::Tx& tx) {
      *obj.open_write(tx) += 1;
      if (!holder_ready.exchange(true)) {
        while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
      }
    });
  });
  while (!holder_ready.load(std::memory_order_acquire)) std::this_thread::yield();

  std::thread younger([&] {
    stm::ThreadCtx& tc = rt.attach_thread();
    // Younger attacker vs older active holder: Greedy waits, then the
    // holder finishes and the attacker retries successfully.
    rt.atomically(tc, [&](stm::Tx& tx) { *obj.open_write(tx) += 1; });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.store(true, std::memory_order_release);
  holder.join();
  younger.join();

  EXPECT_EQ(*obj.peek(), 2);
  EXPECT_GE(rt.total_metrics().waits, 1u);
}

TEST(SimOptions, COverrideChangesDelays) {
  const sim::SimWindow w = sim::make_random_window(8, 8, 16, 2, 3);
  const sim::ConflictGraph g(w);
  sim::SchedulerOptions opt;
  opt.mode = sim::SchedulerOptions::Mode::kOnline;
  opt.c_override = 1.0;  // alpha = 1 everywhere: q_i = 0, no delays
  Xoshiro256 rng(4);
  const sim::SimResult r = sim::run_scheduler(w, g, opt, rng);
  EXPECT_EQ(r.commits, w.total());
}

TEST(SimOptions, QuadraticFrameExponentRuns) {
  const sim::SimWindow w = sim::make_random_window(4, 6, 16, 2, 5);
  const sim::ConflictGraph g(w);
  sim::SchedulerOptions opt;
  opt.mode = sim::SchedulerOptions::Mode::kOnline;
  opt.frame_log_exponent = 2.0;  // the Online theory's frame length
  Xoshiro256 rng(6);
  const sim::SimResult r = sim::run_scheduler(w, g, opt, rng);
  EXPECT_EQ(r.commits, w.total());
}

TEST(VacationQueries, MissingRowsReturnMinusOne) {
  cm::Params params;
  params.threads = 1;
  stm::Runtime rt(cm::make_manager("Polka", params));
  stm::ThreadCtx& tc = rt.attach_thread();
  vacation::Manager mgr;
  rt.atomically(tc, [&](stm::Tx& tx) {
    EXPECT_EQ(mgr.query_free(tx, vacation::ReservationType::kCar, 404), -1);
    EXPECT_EQ(mgr.query_price(tx, vacation::ReservationType::kRoom, 404), -1);
    EXPECT_EQ(mgr.query_customer_bill(tx, 404), std::nullopt);
  });
}

}  // namespace
}  // namespace wstm
