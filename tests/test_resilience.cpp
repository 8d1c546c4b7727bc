// Liveness layer (src/resilience/): serial-fallback token mutual exclusion,
// starvation escalation up to the irrevocable level, hard deadlines, the
// stall watchdog, quiescence-safe shutdown, chaos injection, and the
// harness's worker-exception reporting.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/executor.hpp"
#include "check/policy.hpp"
#include "cm/registry.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "resilience/chaos.hpp"
#include "resilience/errors.hpp"
#include "resilience/liveness.hpp"
#include "stm/runtime.hpp"
#include "util/timing.hpp"

namespace wstm {
namespace {

using resilience::LivenessConfig;
using resilience::LivenessManager;
using resilience::RuntimeStoppedError;
using resilience::TxTimeoutError;
using stm::Runtime;
using stm::ThreadCtx;
using stm::TObject;
using stm::Tx;

struct Cell {
  long value = 0;
};

void spin_ns(std::int64_t ns) {
  const std::int64_t until = now_ns() + ns;
  while (now_ns() < until) {
  }
}

// ---- serial-fallback token (mechanism unit test) ---------------------------

TEST(SerialToken, NeverAdmitsTwoHolders) {
  LivenessManager lm(LivenessConfig{});
  constexpr unsigned kThreads = 8;
  constexpr int kRounds = 4000;
  std::atomic<int> inside{0};
  std::atomic<int> overlap_seen{0};

  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        if (!lm.try_acquire_token(t)) continue;
        if (inside.fetch_add(1, std::memory_order_acq_rel) != 0) {
          overlap_seen.fetch_add(1, std::memory_order_relaxed);
        }
        inside.fetch_sub(1, std::memory_order_acq_rel);
        lm.release_token(t);
      }
    });
  }
  for (auto& w : workers) w.join();

  const LivenessManager::Stats s = lm.stats();
  EXPECT_EQ(overlap_seen.load(), 0);
  EXPECT_GT(s.token_acquisitions, 0u);
  EXPECT_LE(s.max_token_holders, 1u);
  EXPECT_EQ(s.token_overlap_violations, 0u);
  EXPECT_EQ(lm.token_owner(), -1);
}

// ---- user exception escaping an irrevocable attempt ------------------------

struct UserError : std::runtime_error {
  UserError() : std::runtime_error("user error from irrevocable attempt") {}
};

TEST(SerialToken, UserExceptionEscapingIrrevocableAttemptDemotes) {
  // Climb the ladder to the irrevocable level via restart(), then throw a
  // user (non-TxAbort) exception out of the serial attempt. The unwind must
  // demote before finalizing: release the token and abort the descriptor.
  // Regression: try_abort refuses while the irrevocable flag is set, so an
  // un-demoted unwind left a permanently kActive descriptor that a Greedy
  // enemy would wait on forever (here: until the liveness deadline).
  cm::Params params;
  params.threads = 2;
  stm::RuntimeConfig cfg;
  cfg.liveness.enabled = true;
  cfg.liveness.backoff_after = 1;
  cfg.liveness.boost_after = 2;
  cfg.liveness.serial_after = 3;
  cfg.liveness.backoff_base_us = 0;
  cfg.liveness.deadline_ns = 5'000'000'000;  // bounds the failure mode
  cfg.liveness.watchdog_period_ns = 0;       // worker-driven ladder only
  Runtime rt(cm::make_manager("Greedy", params), cfg);
  TObject<Cell> cell(Cell{0});

  ThreadCtx& tc = rt.attach_thread();
  bool was_irrevocable = false;
  EXPECT_THROW(rt.atomically(tc,
                             [&](Tx& tx) {
                               cell.open_write(tx)->value += 1;
                               if (tc.current()->irrevocable.load()) {
                                 was_irrevocable = true;
                                 throw UserError{};
                               }
                               tx.restart();  // climbs the ladder
                             }),
               UserError);
  ASSERT_TRUE(was_irrevocable) << "ladder never reached the serial level";

  // Token released and the published descriptor finalized (not kActive).
  EXPECT_EQ(rt.liveness()->token_owner(), -1);
  stm::TxDesc* stale = rt.tx_of_slot(tc.slot());
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->status.load(), stm::TxStatus::kAborted);
  EXPECT_FALSE(stale->irrevocable.load());

  // A conflicting enemy must get the object without waiting on the corpse.
  std::thread enemy([&] {
    ThreadCtx& etc = rt.attach_thread();
    rt.atomically(etc, [&](Tx& tx) { cell.open_write(tx)->value += 10; });
  });
  enemy.join();
  EXPECT_EQ(cell.peek()->value, 10);  // the thrown attempt's write rolled back
  EXPECT_EQ(rt.total_metrics().timeouts, 0u);

  // The escaped attempt ended the logical transaction: the next one starts
  // at level 0 and commits first try.
  rt.atomically(tc, [&](Tx& tx) { cell.open_write(tx)->value += 100; });
  EXPECT_EQ(cell.peek()->value, 110);
  EXPECT_EQ(rt.liveness()->token_owner(), -1);
}

// ---- starvation: escalation reaches the serial fallback --------------------

class StarvationCMs : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(CMs, StarvationCMs, ::testing::Values("Polka", "Adaptive"),
                         [](const auto& info) { return info.param; });

TEST_P(StarvationCMs, LongWriterClimbsLadderAndCommits) {
  // One long writer (holds the shared object across kPadReads further
  // opens, so it keeps losing to quick enemies) against three short writers
  // hammering the same object. The liveness layer must walk it up the
  // ladder to the irrevocable token; the run must stay exact (no lost
  // updates) and the token single-holder. boost_after == serial_after on
  // purpose: a *working* boost level heals the storm before the token is
  // ever needed, so reaching the token requires jumping over it (the boost
  // itself is still applied at level 3). The threads run on the checker's
  // VirtualExecutor, so each policy seed fixes the whole interleaving and
  // the outcome does not depend on how the host schedules the threads.
  constexpr unsigned kShortThreads = 3;
  constexpr int kLongTxs = 6;
  constexpr int kShortTxs = 30;
  constexpr int kPadReads = 8;
  constexpr long kBig = 1'000'000;  // long-writer increments, > any short total

  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("policy seed " + std::to_string(seed));
    check::RandomWalkPolicy policy(seed, check::FaultOptions{});
    check::VirtualExecutor exec(kShortThreads + 1, policy, /*max_steps=*/100'000,
                                /*tick_ns=*/1000);
    cm::Params params;
    params.threads = kShortThreads + 1;
    params.window_n = 8;
    stm::RuntimeConfig cfg;
    cfg.checker = &exec;
    cfg.liveness.enabled = true;
    cfg.liveness.backoff_after = 1;
    cfg.liveness.boost_after = 4;
    cfg.liveness.serial_after = 4;
    // The executor owns time: no backoff sleeps, and no wall deadline on
    // its virtual clock.
    cfg.liveness.backoff_base_us = 0;
    cfg.liveness.deadline_ns = 0;
    Runtime rt(cm::make_manager(GetParam(), params), cfg);
    TObject<Cell> counter(Cell{0});
    std::vector<std::unique_ptr<TObject<Cell>>> pad;
    for (int i = 0; i < kPadReads; ++i) pad.push_back(std::make_unique<TObject<Cell>>(Cell{0}));

    stm::ThreadMetrics long_metrics;
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      exec.register_thread(0);
      ThreadCtx& tc = rt.attach_thread();
      for (int i = 0; i < kLongTxs; ++i) {
        rt.atomically(tc, [&](Tx& tx) {
          Cell* c = counter.open_write(tx);
          for (const auto& p : pad) p->open_read(tx);
          c->value += kBig;
        });
      }
      long_metrics = tc.metrics();
      exec.thread_done();
    });
    for (unsigned vid = 1; vid <= kShortThreads; ++vid) {
      threads.emplace_back([&, vid] {
        exec.register_thread(static_cast<int>(vid));
        ThreadCtx& tc = rt.attach_thread();
        for (int i = 0; i < kShortTxs; ++i) {
          rt.atomically(tc, [&](Tx& tx) { counter.open_write(tx)->value += 1; });
        }
        exec.thread_done();
      });
    }
    for (auto& t : threads) t.join();

    ASSERT_FALSE(exec.over_budget());
    EXPECT_EQ(counter.peek()->value, kLongTxs * kBig + long{kShortThreads} * kShortTxs)
        << "commits lost";
    EXPECT_GT(long_metrics.escalations, 0u) << "ladder never engaged under " << GetParam();
    EXPECT_GT(long_metrics.serial_fallbacks, 0u)
        << "starved writer never reached the irrevocable level under " << GetParam();
    EXPECT_EQ(rt.total_metrics().timeouts, 0u);
    const LivenessManager::Stats ls = rt.liveness()->stats();
    EXPECT_LE(ls.max_token_holders, 1u);
    EXPECT_EQ(ls.token_overlap_violations, 0u);
  }
}

// ---- hard deadline ---------------------------------------------------------

TEST(Deadline, BlockedTransactionThrowsTxTimeoutError) {
  // Under Greedy the younger transaction waits for the older one; with the
  // older one parked inside its transaction, the younger spins in kRetry
  // until the liveness deadline converts the wait into TxTimeoutError.
  cm::Params params;
  params.threads = 2;
  stm::RuntimeConfig cfg;
  cfg.liveness.enabled = true;
  cfg.liveness.deadline_ns = 50'000'000;  // 50 ms
  // Park the ladder far away so only the deadline is in play.
  cfg.liveness.backoff_after = 1'000'000;
  cfg.liveness.boost_after = 1'000'000;
  cfg.liveness.serial_after = 1'000'000;
  cfg.liveness.watchdog_period_ns = 0;
  Runtime rt(cm::make_manager("Greedy", params), cfg);
  TObject<Cell> obj(Cell{0});

  std::atomic<bool> holder_in_tx{false};
  std::atomic<bool> release_holder{false};
  std::thread holder([&] {
    ThreadCtx& tc = rt.attach_thread();
    rt.atomically(tc, [&](Tx& tx) {
      obj.open_write(tx)->value += 1;
      if (!holder_in_tx.exchange(true, std::memory_order_acq_rel)) {
        while (!release_holder.load(std::memory_order_acquire)) std::this_thread::yield();
      }
    });
  });
  while (!holder_in_tx.load(std::memory_order_acquire)) std::this_thread::yield();

  ThreadCtx& tc = rt.attach_thread();
  bool timed_out = false;
  const std::int64_t t0 = now_ns();
  try {
    rt.atomically(tc, [&](Tx& tx) { obj.open_write(tx)->value += 10; });
  } catch (const TxTimeoutError& e) {
    timed_out = true;
    EXPECT_EQ(e.slot(), tc.slot());
    EXPECT_GE(e.age_ns(), cfg.liveness.deadline_ns);
    EXPECT_NE(std::string(e.what()).find("deadline exceeded"), std::string::npos);
  }
  const std::int64_t waited = now_ns() - t0;
  release_holder.store(true, std::memory_order_release);
  holder.join();

  EXPECT_TRUE(timed_out);
  EXPECT_GE(waited, cfg.liveness.deadline_ns);
  EXPECT_EQ(rt.total_metrics().timeouts, 1u);
  EXPECT_EQ(obj.peek()->value, 1);  // the timed-out +10 never happened
}

// ---- watchdog stall detection + kick ---------------------------------------

TEST(Watchdog, KicksStalledTransactionWhichThenCommits) {
  cm::Params params;
  params.threads = 1;
  stm::RuntimeConfig cfg;
  cfg.liveness.enabled = true;
  cfg.liveness.watchdog_period_ns = 1'000'000;   // 1 ms scans
  cfg.liveness.stall_timeout_ns = 5'000'000;     // 5 ms without progress = stalled
  cfg.liveness.kick_stalled = true;
  cfg.liveness.storm_threshold = 1'000'000;      // storms out of the picture
  cfg.liveness.backoff_after = 1'000'000;
  cfg.liveness.boost_after = 1'000'000;
  cfg.liveness.serial_after = 1'000'000;
  Runtime rt(cm::make_manager("Polka", params), cfg);
  TObject<Cell> obj(Cell{0});

  ThreadCtx& tc = rt.attach_thread();
  std::atomic<int> attempts{0};
  rt.atomically(tc, [&](Tx& tx) {
    const int attempt = attempts.fetch_add(1, std::memory_order_acq_rel);
    obj.open_write(tx)->value += 1;
    if (attempt == 0) {
      // No schedule-point progress for well past the stall timeout: the
      // watchdog must flag this attempt and kick (abort) it.
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  });

  EXPECT_GE(attempts.load(), 2) << "stalled attempt was never kicked";
  EXPECT_EQ(obj.peek()->value, 1);
  const LivenessManager::Stats ls = rt.liveness()->stats();
  EXPECT_GE(ls.stalls_flagged, 1u);
  EXPECT_GE(ls.kicks, 1u);
  EXPECT_GT(rt.total_metrics().watchdog_flags, 0u);
}

// The watchdog covers every runtime slot: an attempt that stalls on a slot
// above 64 is flagged and kicked like any other. Parametrized over managers
// that keep per-slot state (Polka's saved karma, WindowCM's per-thread
// window), which must take a slot that high too.
// The watchdog thread flags an abort storm from a slot's beacon alone: an
// attempt whose logical transaction has aborted storm_threshold times is
// flagged once per episode, and the owner collects the flag. The wait for
// the scan is bounded, never a fixed sleep.
TEST(Watchdog, FlagsAbortStormFromBeacon) {
  LivenessConfig cfg;
  cfg.enabled = true;
  cfg.watchdog_period_ns = 100'000;
  cfg.stall_timeout_ns = 0;
  cfg.storm_threshold = 2;
  LivenessManager lm(cfg);
  lm.note_attempt_begin(/*slot=*/3, now_ns(), now_ns(), /*consecutive_aborts=*/5);
  lm.start_watchdog({});
  const std::int64_t give_up = now_ns() + 30'000'000'000;
  while (lm.stats().storms_flagged == 0 && now_ns() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  lm.stop_watchdog();

  const LivenessManager::Stats s = lm.stats();
  EXPECT_GT(s.scans, 0u);
  EXPECT_EQ(s.storms_flagged, 1u) << "one storm episode is flagged once";
  EXPECT_EQ(s.stalls_flagged, 0u);
  EXPECT_EQ(lm.take_flags(3), LivenessManager::kFlagStorm);
}

class WatchdogSlots : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Cms, WatchdogSlots, ::testing::Values("Polka", "Online-Dynamic"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST_P(WatchdogSlots, KicksStalledTransactionOnSlotAboveSixtyFour) {
  constexpr unsigned kThreads = 80;
  cm::Params params;
  params.threads = kThreads;
  stm::RuntimeConfig cfg;
  cfg.liveness.enabled = true;
  cfg.liveness.watchdog_period_ns = 1'000'000;
  cfg.liveness.stall_timeout_ns = 5'000'000;
  cfg.liveness.kick_stalled = true;
  cfg.liveness.storm_threshold = 1'000'000;
  cfg.liveness.backoff_after = 1'000'000;
  cfg.liveness.boost_after = 1'000'000;
  cfg.liveness.serial_after = 1'000'000;
  Runtime rt(cm::make_manager(GetParam(), params), cfg);
  TObject<Cell> obj(Cell{0});

  // Idle contexts take the lower slots, so the transaction runs on the last.
  for (unsigned i = 0; i + 1 < kThreads; ++i) rt.attach_thread();
  ThreadCtx& tc = rt.attach_thread();
  ASSERT_EQ(tc.slot(), kThreads - 1);

  std::atomic<int> attempts{0};
  rt.atomically(tc, [&](Tx& tx) {
    const int attempt = attempts.fetch_add(1, std::memory_order_acq_rel);
    obj.open_write(tx)->value += 1;
    if (attempt == 0) {
      // No schedule-point progress until the watchdog kicks this attempt.
      // A scan that skips the slot never kicks, and the wait runs out.
      const std::int64_t give_up = now_ns() + 10'000'000'000;
      while (rt.liveness()->stats().kicks == 0 && now_ns() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });

  EXPECT_GE(attempts.load(), 2) << "stalled attempt was never kicked";
  EXPECT_EQ(obj.peek()->value, 1);
  const LivenessManager::Stats ls = rt.liveness()->stats();
  EXPECT_GE(ls.stalls_flagged, 1u);
  EXPECT_GE(ls.kicks, 1u);
}

// ---- quiescence-safe shutdown ----------------------------------------------

class Shutdown : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(Backends, Shutdown, ::testing::Values("dstm", "orec"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// Half the workers run read-only bodies, so on orec the shutdown also lands
// on attempts that never published a descriptor: the gate is the EBR pin,
// not the published slot.
TEST_P(Shutdown, DrainsInFlightTransactionsAndRefusesNewOnes) {
  cm::Params params;
  params.threads = 4;
  stm::RuntimeConfig cfg;
  cfg.backend = stm::parse_backend(GetParam());
  auto rt = std::make_unique<Runtime>(cm::make_manager("Polka", params), cfg);
  TObject<Cell> counter(Cell{0});

  constexpr unsigned kThreads = 4;
  std::atomic<unsigned> saw_stop{0};
  std::atomic<long> increments{0};
  std::atomic<long> reads{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, reader = t % 2 == 1] {
      ThreadCtx& tc = rt->attach_thread();
      try {
        for (;;) {
          if (reader) {
            rt->atomically(tc, [&](Tx& tx) {
              (void)counter.open_read(tx);
              spin_ns(5'000);  // keep attempts in flight while shutdown lands
            });
            reads.fetch_add(1, std::memory_order_relaxed);
          } else {
            rt->atomically(tc, [&](Tx& tx) {
              Cell* c = counter.open_write(tx);
              spin_ns(5'000);
              c->value += 1;
            });
            increments.fetch_add(1, std::memory_order_relaxed);
          }
        }
      } catch (const RuntimeStoppedError&) {
        saw_stop.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }

  // Both kinds of body have committed, and every worker is still looping:
  // the shutdown lands mid-flight without relying on how long that took.
  while (increments.load(std::memory_order_relaxed) == 0 ||
         reads.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  rt->shutdown();  // mid-flight: workers must unwind, not hang or corrupt
  rt->shutdown();  // idempotent
  for (auto& w : workers) w.join();

  EXPECT_EQ(saw_stop.load(), kThreads);
  EXPECT_TRUE(rt->stopping());
  EXPECT_EQ(counter.peek()->value, increments.load())
      << "a drained/refused attempt leaked a partial update";
  rt.reset();  // destroy with workers gone: must not hang or double-free
}

// ---- chaos injection -------------------------------------------------------

TEST(Chaos, InjectedFaultsDoNotBreakProgressOrSafety) {
  harness::RunConfig run;
  run.threads = 4;
  run.duration_ms = 150;
  run.runtime.liveness.enabled = true;
  run.runtime.chaos = resilience::default_chaos(4.0);  // crank it: this is a smoke test
  run.runtime.chaos.ebr_pressure_every = 8;

  auto workload = harness::make_workload("list", 100, 64);
  cm::Params params;
  params.threads = run.threads;
  const harness::RunResult r = harness::run_workload("Polka", params, *workload, run);

  EXPECT_TRUE(r.valid) << r.why;
  EXPECT_TRUE(r.thread_errors.empty());
  EXPECT_GT(r.totals.commits, 0u) << "chaos starved the run completely";
  EXPECT_GT(r.totals.chaos_faults, 0u) << "injector never fired at intensity 4";
  EXPECT_LE(r.liveness_stats.max_token_holders, 1u);
  EXPECT_EQ(r.liveness_stats.token_overlap_violations, 0u);
}

// ---- harness worker-exception containment ----------------------------------

class ThrowingWorkload final : public harness::Workload {
 public:
  std::string name() const override { return "throwing"; }
  void populate(Runtime&, ThreadCtx&) override {}
  void run_one(Runtime& rt, ThreadCtx& tc, Xoshiro256&) override {
    if (ops_.fetch_add(1, std::memory_order_acq_rel) == 25) {
      throw std::runtime_error("boom: workload-level failure");
    }
    rt.atomically(tc, [&](Tx& tx) { counter_.open_write(tx)->value += 1; });
  }
  bool validate(std::string*) const override { return true; }

 private:
  TObject<Cell> counter_{Cell{0}};
  std::atomic<int> ops_{0};
};

TEST(Harness, WorkerExceptionFailsCellWithReadableReport) {
  ThrowingWorkload workload;
  harness::RunConfig run;
  run.threads = 3;
  run.duration_ms = 2000;  // the throw ends the run long before this
  cm::Params params;
  params.threads = run.threads;
  const harness::RunResult r = harness::run_workload("Polka", params, workload, run);

  EXPECT_FALSE(r.valid);
  ASSERT_FALSE(r.thread_errors.empty());
  EXPECT_NE(r.thread_errors.front().find("thread "), std::string::npos);
  EXPECT_NE(r.why.find("worker thread(s) died on an exception"), std::string::npos);
  EXPECT_NE(r.why.find("boom: workload-level failure"), std::string::npos);
}

}  // namespace
}  // namespace wstm
