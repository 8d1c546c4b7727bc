// Requester-waits arbitration (DESIGN.md §13): deterministic-checker
// coverage for the kPark/kUnpark schedule points and the park-deadlock
// oracle, the seeded lost-wakeup bug with replay + shrink, wait-vs-abort
// decision parity across all six window variants on both backends, and
// real-mode parking — a younger Greedy transaction parks on the older one's
// descriptor, and a parked low-priority transaction still climbs the
// escalation ladder to the irrevocable serial token (no priority inversion
// through the ParkingLot).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/checker.hpp"
#include "check/hooks.hpp"
#include "check/schedule.hpp"
#include "cm/registry.hpp"
#include "resilience/liveness.hpp"
#include "stm/backend.hpp"
#include "stm/runtime.hpp"
#include "util/timing.hpp"

namespace wstm {
namespace {

using check::CheckConfig;
using check::Checker;
using check::ExploreResult;
using check::RunResult;
using check::Schedule;

constexpr const char* kWindowVariants[] = {
    "Online",           "Online-Dynamic",   "Adaptive",
    "Adaptive-Dynamic", "Adaptive-Improved", "Adaptive-Improved-Dynamic"};

CheckConfig wait_config(const std::string& cm, const std::string& backend) {
  CheckConfig c;
  c.backend = backend;
  c.threads = 3;
  c.ops_per_thread = 14;
  c.key_range = 12;  // small range: conflicts (and thus parks) are common
  c.window_n = 6;
  c.cm = cm;
  c.seed = 9090;
  c.arbitration = "wait";
  return c;
}

// ---- mode parsing ----------------------------------------------------------

TEST(ArbitrationChecker, ModeNamesRoundTrip) {
  EXPECT_EQ(stm::parse_arbitration("abort"), stm::ArbitrationMode::kAbort);
  EXPECT_EQ(stm::parse_arbitration("wait"), stm::ArbitrationMode::kWait);
  EXPECT_STREQ(stm::arbitration_name(stm::ArbitrationMode::kAbort), "abort");
  EXPECT_STREQ(stm::arbitration_name(stm::ArbitrationMode::kWait), "wait");
  EXPECT_THROW(stm::parse_arbitration("spin"), std::invalid_argument);
}

// ---- wait-vs-abort decision parity (all six variants, both backends) -------

// Exploration in wait mode must stay clean on every window variant and both
// execution engines: the linearizability oracle holds, the ScheduleChecker's
// relaxed window invariant holds (a decision may wait only from a *losing*
// priority position — waiting from a winning one is still a violation), and
// the park-deadlock oracle (every runnable thread parked, no unpark edge
// pending) never fires for the clean protocol.
TEST(ArbitrationChecker, WaitModeExplorationIsCleanOnAllVariantsBothBackends) {
  for (const char* backend : {"dstm", "orec"}) {
    for (const char* cm : kWindowVariants) {
      Checker checker(wait_config(cm, backend));
      const ExploreResult er = checker.explore(6);
      EXPECT_EQ(er.violations, 0u)
          << backend << "/" << cm << ": " << er.first_violation.diagnosis;
      EXPECT_EQ(er.schedules_run, 6u) << backend << "/" << cm;
    }
  }
}

// Decision parity: for the same program (same config seed) the abort-mode
// and wait-mode runs must both be clean and both make progress on every
// variant and backend. Wait mode changes *what the loser does* (park +
// retry instead of abort), never *who wins*, so neither mode may trade
// safety for its loser policy. Within one mode, the run stays bit-identical
// across re-execution — the parking points are schedule points like any
// other, not a nondeterminism leak.
TEST(ArbitrationChecker, WaitAndAbortModesAreBothCleanAndDeterministic) {
  for (const char* backend : {"dstm", "orec"}) {
    for (const char* cm : kWindowVariants) {
      CheckConfig wait_cfg = wait_config(cm, backend);
      CheckConfig abort_cfg = wait_cfg;
      abort_cfg.arbitration = "abort";
      for (const std::uint64_t policy_seed : {1u, 5u}) {
        const RunResult w1 = Checker(wait_cfg).run_once(policy_seed);
        const RunResult w2 = Checker(wait_cfg).run_once(policy_seed);
        const RunResult a = Checker(abort_cfg).run_once(policy_seed);
        EXPECT_FALSE(w1.violation) << backend << "/" << cm << ": " << w1.diagnosis;
        EXPECT_FALSE(a.violation) << backend << "/" << cm << ": " << a.diagnosis;
        EXPECT_GT(w1.metrics.commits, 0u) << backend << "/" << cm;
        EXPECT_GT(a.metrics.commits, 0u) << backend << "/" << cm;
        // Same mode, same seed: bit-identical decisions. Counters are only
        // schedule-determined while the decision budget holds — once a run
        // goes over budget the executor free-runs the tail, so the park
        // counter (but never safety) may drift between re-executions.
        EXPECT_EQ(w1.schedule.decisions, w2.schedule.decisions) << backend << "/" << cm;
        if (!w1.over_budget && !w2.over_budget) {
          EXPECT_EQ(w1.metrics.commits, w2.metrics.commits) << backend << "/" << cm;
          EXPECT_EQ(w1.metrics.parks, w2.metrics.parks) << backend << "/" << cm;
        }
      }
    }
  }
}

// The park points must actually be exercised: across a handful of seeds on
// a contended Polka config, at least one run records parks. A wait-mode
// checker that never parks is not testing the protocol.
TEST(ArbitrationChecker, ParksAreExercisedAndCounted) {
  CheckConfig c = wait_config("Polka", "dstm");
  std::uint64_t parks = 0;
  for (std::uint64_t seed = 1; seed <= 10 && parks == 0; ++seed) {
    const RunResult r = Checker(c).run_once(seed);
    EXPECT_FALSE(r.violation) << r.diagnosis;
    parks += r.metrics.parks;
  }
  EXPECT_GT(parks, 0u) << "no schedule ever reached a kPark point";
}

// ---- seeded lost-wakeup bug ------------------------------------------------

// The seeded bug drops the unpark edge on the commit path (abort-path
// signals stay). The executor's park-deadlock oracle must catch it within
// the exploration budget, the pinned schedule must replay to the same
// verdict with zero divergence, shrinking must preserve the failure, and
// the clean protocol must survive the identical budget.
TEST(ArbitrationChecker, ParkLostWakeupBugIsCaughtReplayedAndShrunk) {
  CheckConfig c = wait_config("Polka", "dstm");
  c.bug = "park-lost-wakeup";
  Checker buggy(c);
  const ExploreResult er = buggy.explore(40);
  ASSERT_GE(er.violations, 1u) << "lost wakeup never detected";
  EXPECT_NE(er.first_violation.diagnosis.find("park"), std::string::npos)
      << er.first_violation.diagnosis;

  Checker replayer(er.first_violation.schedule.config);
  const RunResult again = replayer.replay(er.first_violation.schedule);
  EXPECT_EQ(again.divergences, 0u);
  EXPECT_TRUE(again.violation);

  const Checker::ShrinkResult sr = replayer.shrink(er.first_violation.schedule, 150);
  ASSERT_TRUE(sr.still_fails);
  EXPECT_LE(sr.schedule.decisions.size(), er.first_violation.schedule.decisions.size());
  EXPECT_TRUE(Checker(sr.schedule.config).replay(sr.schedule).violation);

  // Clean protocol, identical budget: no false positives from the oracle.
  EXPECT_EQ(Checker(wait_config("Polka", "dstm")).explore(40).violations, 0u);
}

// The schedule file carries the arbitration mode, so `wstm-check replay`
// reconstructs a wait-mode run (with its extra kPark/kUnpark points) with
// no extra flags; pre-parking files default to abort.
TEST(ArbitrationChecker, ScheduleTextRoundTripsArbitration) {
  Checker checker(wait_config("Adaptive", "dstm"));
  const RunResult r = checker.run_once(3);
  const std::string text = to_text(r.schedule);
  EXPECT_NE(text.find("arbitration wait"), std::string::npos);
  const Schedule parsed = check::schedule_from_text(text);
  EXPECT_EQ(parsed.config.arbitration, "wait");
  EXPECT_EQ(parsed.decisions, r.schedule.decisions);
  EXPECT_EQ(Checker(parsed.config).replay(parsed).divergences, 0u);

  std::string legacy = text;
  const std::size_t pos = legacy.find("arbitration wait\n");
  ASSERT_NE(pos, std::string::npos);
  legacy.erase(pos, std::string("arbitration wait\n").size());
  EXPECT_EQ(check::schedule_from_text(legacy).config.arbitration, "abort");
}

TEST(ArbitrationChecker, PointNamesCoverParkPoints) {
  EXPECT_STREQ(check::point_name(check::Point::kPark), "park");
  EXPECT_STREQ(check::point_name(check::Point::kUnpark), "unpark");
}

// ---- real-mode parking -----------------------------------------------------

struct Cell {
  long value = 0;
};

// Forwards every call to Greedy and flags the first resolve() that returns
// kRetry. In wait mode Greedy parks on the enemy before it returns kRetry,
// so once the flag is up the loser has provably parked.
class RetryFlagGreedy final : public cm::ContentionManager {
 public:
  RetryFlagGreedy() : inner_(cm::make_manager("Greedy", cm::Params{})) {}

  /// Hands the Runtime's wait verb to Greedy (attach_* are not virtual).
  void forward_hooks() noexcept {
    inner_->attach_recorder(recorder_);
    inner_->attach_wait_hooks(waiter_);
  }

  std::string name() const override { return inner_->name(); }
  stm::Resolution resolve(stm::ThreadCtx& self, stm::TxDesc& tx, stm::TxDesc& enemy,
                          stm::ConflictKind kind) override {
    const stm::Resolution r = inner_->resolve(self, tx, enemy, kind);
    if (r == stm::Resolution::kRetry) retried.store(true, std::memory_order_release);
    return r;
  }

  std::atomic<bool> retried{false};

 private:
  cm::ManagerPtr inner_;
};

// Two real threads under Greedy in wait mode: the older transaction holds
// the only object until the younger one has lost to it (Greedy: older wins)
// and *parked* on the older descriptor instead of burning the wait on
// yields. No fixed hold time: the older commits once the younger's manager
// has returned kRetry, which it does only after a park. The older commit's
// unpark edge wakes the younger, and it commits.
TEST(ArbitrationReal, YoungerGreedyTransactionParksUntilOlderCommits) {
  stm::RuntimeConfig cfg;
  cfg.arbitration = stm::ArbitrationMode::kWait;
  auto manager = std::make_unique<RetryFlagGreedy>();
  RetryFlagGreedy* probe = manager.get();
  stm::Runtime rt(std::move(manager), cfg);
  probe->forward_hooks();
  stm::TObject<Cell> cell(Cell{0});

  std::atomic<bool> older_opened{false};
  std::thread older([&] {
    stm::ThreadCtx& tc = rt.attach_thread();
    rt.atomically(tc, [&](stm::Tx& tx) {
      cell.open_write(tx)->value += 1;
      older_opened.store(true, std::memory_order_release);
      // Bounded only against a hang; the test never relies on it expiring.
      const std::int64_t give_up = now_ns() + 30'000'000'000;
      while (!probe->retried.load(std::memory_order_acquire) && now_ns() < give_up) {
        std::this_thread::yield();
      }
    });
  });

  std::uint64_t younger_parks = 0;
  std::uint64_t younger_park_ns = 0;
  std::thread younger([&] {
    stm::ThreadCtx& tc = rt.attach_thread();
    while (!older_opened.load(std::memory_order_acquire)) std::this_thread::yield();
    rt.atomically(tc, [&](stm::Tx& tx) { cell.open_write(tx)->value += 10; });
    younger_parks = tc.metrics().parks;
    younger_park_ns = tc.metrics().park_ns;
  });
  older.join();
  younger.join();

  EXPECT_TRUE(probe->retried.load()) << "the younger transaction never lost to the older";
  EXPECT_EQ(cell.peek()->value, 11);
  EXPECT_GT(younger_parks, 0u) << "the losing transaction never parked";
  EXPECT_GT(younger_park_ns, 0u);
  const stm::ThreadMetrics totals = rt.total_metrics();
  EXPECT_EQ(totals.parks, younger_parks) << "the winner must never park";
}

// In abort mode the same contention pattern must never park: the parking
// layer is strictly opt-in and the abort-mode hot path stays park-free.
TEST(ArbitrationReal, AbortModeNeverParks) {
  stm::Runtime rt(cm::make_manager("Greedy", cm::Params{}));
  stm::TObject<Cell> cell(Cell{0});
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      stm::ThreadCtx& tc = rt.attach_thread();
      for (int i = 0; i < 200; ++i) {
        rt.atomically(tc, [&](stm::Tx& tx) { cell.open_write(tx)->value += 1; });
      }
      });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(cell.peek()->value, 600);
  const stm::ThreadMetrics totals = rt.total_metrics();
  EXPECT_EQ(totals.parks, 0u);
  EXPECT_EQ(totals.unparks, 0u);
}

// Starvation ladder under requester-waits: one long writer against three
// short writers, in wait mode under Polka. Each long attempt holds the
// shared object until a short writer kills it (a short writer with less
// karma parks its Polka slices first, so real parks happen), unless the
// ladder has boosted it; no fixed hold time, so the starvation does not
// depend on how the host schedules the threads. The escalation ladder must
// still walk the starved writer to the serial-token level — a parked
// transaction is invisible to the watchdog's *stall* detector
// (Beacon.parked) but its abort storm is not, and a serial-token holder
// never parks, so the ladder terminates. Exact counts and the single-holder
// token invariant must survive parking.
TEST(ArbitrationReal, ParkedLowPriorityClimbsLadderToIrrevocability) {
  constexpr int kLongTxs = 4;
  constexpr unsigned kShortThreads = 3;

  cm::Params params;
  params.threads = kShortThreads + 1;
  params.window_n = 8;
  params.requester_waits = true;
  stm::RuntimeConfig cfg;
  cfg.arbitration = stm::ArbitrationMode::kWait;
  cfg.liveness.enabled = true;
  cfg.liveness.backoff_after = 1;
  cfg.liveness.boost_after = 4;
  cfg.liveness.serial_after = 4;
  cfg.liveness.backoff_base_us = 1;
  cfg.liveness.backoff_cap_us = 20;
  cfg.liveness.deadline_ns = 60'000'000'000;  // generous: never expected to fire
  cfg.liveness.watchdog_period_ns = 100'000;
  cfg.liveness.stall_timeout_ns = 2'000'000'000;
  cfg.liveness.storm_threshold = 2;
  stm::Runtime rt(cm::make_manager("Polka", params), cfg);
  stm::TObject<Cell> counter(Cell{0});

  constexpr long kBig = 1'000'000'000;
  std::atomic<bool> stop_short{false};
  std::atomic<long> short_total{0};
  std::vector<std::thread> shorts;
  for (unsigned t = 0; t < kShortThreads; ++t) {
    shorts.emplace_back([&] {
      stm::ThreadCtx& tc = rt.attach_thread();
      while (!stop_short.load(std::memory_order_acquire)) {
        rt.atomically(tc, [&](stm::Tx& tx) { counter.open_write(tx)->value += 1; });
        short_total.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }

  stm::ThreadMetrics long_metrics;
  {
    stm::ThreadCtx& tc = rt.attach_thread();
    for (int i = 0; i < kLongTxs; ++i) {
      rt.atomically(tc, [&](stm::Tx& tx) {
        Cell* c = counter.open_write(tx);
        // A boosted attempt (level >= 2, the serial-token level included)
        // wins its conflicts, so it stops waiting to be killed. Bounded
        // only against a hang.
        const stm::TxDesc& me = tx.desc();
        const std::int64_t give_up = now_ns() + 30'000'000'000;
        while (me.is_active() && me.boost.load(std::memory_order_relaxed) == 0 &&
               now_ns() < give_up) {
          std::this_thread::yield();
        }
        c->value += kBig;
      });
    }
    long_metrics = tc.metrics();
    stop_short.store(true, std::memory_order_release);
  }
  for (auto& w : shorts) w.join();

  const long final_value = counter.peek()->value;
  EXPECT_EQ(final_value / kBig, kLongTxs) << "long-writer commits lost";
  EXPECT_EQ(final_value % kBig, short_total.load()) << "short-writer commits lost";

  EXPECT_GE(long_metrics.escalations, 4u * kLongTxs) << "ladder never engaged";
  // The starved writer reaches the serial-token level in every logical
  // transaction; the token is then its own, or another thread holds it.
  const stm::ThreadMetrics totals = rt.total_metrics();
  EXPECT_GT(totals.serial_fallbacks, 0u)
      << "starved writer never reached the irrevocable level under parking";
  EXPECT_GT(totals.parks, 0u) << "the run never actually parked";
  EXPECT_EQ(totals.timeouts, 0u);

  const resilience::LivenessManager::Stats ls = rt.liveness()->stats();
  EXPECT_LE(ls.max_token_holders, 1u);
  EXPECT_EQ(ls.token_overlap_violations, 0u);
}

}  // namespace
}  // namespace wstm
