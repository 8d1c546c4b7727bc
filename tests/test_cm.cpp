// Decision-table tests for the classic contention managers: craft enemy
// descriptors in known states and check each manager's verdict.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "cm/classic.hpp"
#include "cm/registry.hpp"
#include "stm/runtime.hpp"
#include "trace/recorder.hpp"
#include "util/timing.hpp"

namespace wstm::cm {
namespace {

using stm::ConflictKind;
using stm::Resolution;
using stm::TxDesc;
using stm::TxStatus;

class CmTest : public ::testing::Test {
 protected:
  CmTest()
      : rt_(std::make_unique<stm::Runtime>(make_manager("Aggressive", Params{}))),
        tc_(&rt_->attach_thread()) {}

  /// A descriptor that looks like an attempt of thread `slot` whose first
  /// attempt began at `first_begin`.
  static void init_desc(TxDesc& d, std::uint32_t slot, std::int64_t first_begin) {
    d.thread_slot = slot;
    d.first_begin_ns = first_begin;
    d.begin_ns = first_begin;
  }

  std::unique_ptr<stm::Runtime> rt_;
  stm::ThreadCtx* tc_;
};

TEST_F(CmTest, AggressiveAlwaysAbortsEnemy) {
  Aggressive cm;
  TxDesc me, enemy;
  init_desc(me, 0, 100);
  init_desc(enemy, 1, 1);
  EXPECT_EQ(cm.resolve(*tc_, me, enemy, ConflictKind::kWriteWrite), Resolution::kAbortEnemy);
  EXPECT_EQ(cm.resolve(*tc_, me, enemy, ConflictKind::kReadWrite), Resolution::kAbortEnemy);
}

TEST_F(CmTest, PriorityOlderWinsYoungerDies) {
  Priority cm;
  TxDesc old_tx, young_tx;
  init_desc(old_tx, 0, 10);
  init_desc(young_tx, 1, 20);
  EXPECT_EQ(cm.resolve(*tc_, old_tx, young_tx, ConflictKind::kWriteWrite),
            Resolution::kAbortEnemy);
  EXPECT_EQ(cm.resolve(*tc_, young_tx, old_tx, ConflictKind::kWriteWrite),
            Resolution::kAbortSelf);
}

TEST_F(CmTest, PriorityTieBreaksBySlot) {
  Priority cm;
  TxDesc a, b;
  init_desc(a, 0, 10);
  init_desc(b, 1, 10);
  EXPECT_EQ(cm.resolve(*tc_, a, b, ConflictKind::kWriteWrite), Resolution::kAbortEnemy);
  EXPECT_EQ(cm.resolve(*tc_, b, a, ConflictKind::kWriteWrite), Resolution::kAbortSelf);
}

TEST_F(CmTest, GreedyOlderAbortsYounger) {
  Greedy cm;
  TxDesc old_tx, young_tx;
  init_desc(old_tx, 0, 10);
  init_desc(young_tx, 1, 20);
  EXPECT_EQ(cm.resolve(*tc_, old_tx, young_tx, ConflictKind::kWriteWrite),
            Resolution::kAbortEnemy);
}

TEST_F(CmTest, GreedyYoungerWaitsForRunningOlder) {
  Greedy cm;
  TxDesc old_tx, young_tx;
  init_desc(old_tx, 0, 10);
  init_desc(young_tx, 1, 20);
  // Older is active and not waiting: the younger must wait (kRetry).
  EXPECT_EQ(cm.resolve(*tc_, young_tx, old_tx, ConflictKind::kWriteWrite), Resolution::kRetry);
}

TEST_F(CmTest, GreedyYoungerKillsWaitingOlder) {
  Greedy cm;
  TxDesc old_tx, young_tx;
  init_desc(old_tx, 0, 10);
  init_desc(young_tx, 1, 20);
  old_tx.waiting.store(true);
  EXPECT_EQ(cm.resolve(*tc_, young_tx, old_tx, ConflictKind::kWriteWrite),
            Resolution::kAbortEnemy);
}

TEST_F(CmTest, GreedyReturnsAbortSelfWhenKilled) {
  Greedy cm;
  TxDesc old_tx, young_tx;
  init_desc(old_tx, 0, 10);
  init_desc(young_tx, 1, 20);
  young_tx.status.store(TxStatus::kAborted);
  EXPECT_EQ(cm.resolve(*tc_, young_tx, old_tx, ConflictKind::kWriteWrite),
            Resolution::kAbortSelf);
}

TEST_F(CmTest, PolkaLowerKarmaEnemyDiesImmediately) {
  Polka cm;
  TxDesc me, enemy;
  init_desc(me, 0, 10);
  init_desc(enemy, 1, 20);
  me.karma.store(5);
  enemy.karma.store(3);
  EXPECT_EQ(cm.resolve(*tc_, me, enemy, ConflictKind::kWriteWrite), Resolution::kAbortEnemy);
}

TEST_F(CmTest, PolkaRetriesWhenEnemyFinishesDuringWait) {
  Polka cm;
  TxDesc me, enemy;
  init_desc(me, 0, 10);
  init_desc(enemy, 1, 20);
  me.karma.store(0);
  enemy.karma.store(3);
  enemy.status.store(TxStatus::kCommitted);  // finishes before/while waiting
  EXPECT_EQ(cm.resolve(*tc_, me, enemy, ConflictKind::kWriteWrite), Resolution::kRetry);
}

TEST_F(CmTest, PolkaAbortsStubbornHigherKarmaEnemy) {
  Polka cm;
  TxDesc me, enemy;
  init_desc(me, 0, 10);
  init_desc(enemy, 1, 20);
  me.karma.store(0);
  enemy.karma.store(2);  // two short waiting slices, then the kill
  EXPECT_EQ(cm.resolve(*tc_, me, enemy, ConflictKind::kWriteWrite), Resolution::kAbortEnemy);
}

TEST_F(CmTest, PolkaKarmaAccruesPerOpenAndResetsOnCommit) {
  Polka cm;
  TxDesc tx;
  init_desc(tx, tc_->slot(), 10);
  cm.on_begin(*tc_, tx, /*is_retry=*/false);
  cm.on_open(*tc_, tx);
  cm.on_open(*tc_, tx);
  EXPECT_EQ(tx.karma.load(), 2u);
  // The karma persists into a retry of the same transaction...
  TxDesc retry;
  init_desc(retry, tc_->slot(), 10);
  cm.on_begin(*tc_, retry, /*is_retry=*/true);
  EXPECT_EQ(retry.karma.load(), 2u);
  // ...and resets for a fresh transaction.
  cm.on_commit(*tc_, retry);
  TxDesc fresh;
  init_desc(fresh, tc_->slot(), 30);
  cm.on_begin(*tc_, fresh, /*is_retry=*/false);
  EXPECT_EQ(fresh.karma.load(), 0u);
}

TEST_F(CmTest, PolkaClampsBackoffTraceWhenClockRewinds) {
  // Regression: Polka's kBackoff event computed `now_ns() - wait_begin` and
  // converted straight to unsigned. Under the deterministic checker the
  // virtual clock can move backwards across a park (the executor advances
  // it per decision, and a replayed prefix restarts it), so a negative wait
  // truncated to ~2^64 ns and poisoned every backoff statistic downstream.
  // Drive resolve() with a recorder attached and a wait hook that rewinds
  // the virtual clock mid-wait; the recorded wait must clamp to 0.
  std::atomic<std::int64_t> vclock{1'000'000};
  set_virtual_clock(&vclock);

  trace::Recorder::Options opts;
  opts.threads = 2;
  opts.capacity_per_thread = 64;
  trace::Recorder rec(opts);

  struct RewindingWaiter : WaitHooks {
    std::atomic<std::int64_t>* clock = nullptr;
    stm::TxDesc* enemy_to_finish = nullptr;
    bool park_until_inactive(stm::ThreadCtx&, const stm::TxDesc&, const stm::TxDesc&,
                             std::int64_t) noexcept override {
      clock->store(0, std::memory_order_relaxed);  // rewind past wait_begin
      enemy_to_finish->status.store(TxStatus::kCommitted);
      return true;
    }
    void yield_safe() noexcept override {}
  };

  Polka cm;
  TxDesc me, enemy;
  init_desc(me, 0, 10);
  init_desc(enemy, 1, 20);
  me.karma.store(0);
  enemy.karma.store(1);  // one wait slice before the kill threshold

  RewindingWaiter waiter;
  waiter.clock = &vclock;
  waiter.enemy_to_finish = &enemy;
  cm.attach_recorder(&rec);
  cm.attach_wait_hooks(&waiter);
  EXPECT_EQ(cm.resolve(*tc_, me, enemy, ConflictKind::kWriteWrite), Resolution::kRetry);
  set_virtual_clock(nullptr);

  bool found = false;
  for (const trace::Event& e : rec.drain_sorted()) {
    if (e.kind != trace::EventKind::kBackoff) continue;
    found = true;
    EXPECT_EQ(e.a0, 0u) << "negative wait must clamp to 0, not wrap to ~2^64";
    EXPECT_EQ(e.a1, 1u);  // one slice waited
  }
  EXPECT_TRUE(found) << "the wait was never traced";
}

TEST_F(CmTest, RandomizedRoundsLowerDrawWins) {
  RandomizedRounds cm(8);
  TxDesc me, enemy;
  init_desc(me, 0, 10);
  init_desc(enemy, 1, 20);
  me.rand_prio.store(2);
  enemy.rand_prio.store(5);
  EXPECT_EQ(cm.resolve(*tc_, me, enemy, ConflictKind::kWriteWrite), Resolution::kAbortEnemy);
  me.rand_prio.store(7);
  EXPECT_EQ(cm.resolve(*tc_, me, enemy, ConflictKind::kWriteWrite), Resolution::kAbortSelf);
}

TEST_F(CmTest, RandomizedRoundsTieBreaksBySlot) {
  RandomizedRounds cm(8);
  TxDesc me, enemy;
  init_desc(me, 0, 10);
  init_desc(enemy, 1, 20);
  me.rand_prio.store(4);
  enemy.rand_prio.store(4);
  EXPECT_EQ(cm.resolve(*tc_, me, enemy, ConflictKind::kWriteWrite), Resolution::kAbortEnemy);
}

TEST_F(CmTest, RandomizedRoundsDrawsInRange) {
  RandomizedRounds cm(8);
  for (int i = 0; i < 100; ++i) {
    TxDesc tx;
    init_desc(tx, tc_->slot(), 10);
    cm.on_begin(*tc_, tx, false);
    const auto p = tx.rand_prio.load();
    EXPECT_GE(p, 1u);
    EXPECT_LE(p, 8u);
  }
}

TEST(CmRegistry, CreatesEveryAdvertisedManager) {
  Params params;
  params.threads = 4;
  for (const auto& name : manager_names()) {
    ManagerPtr mgr = make_manager(name, params);
    ASSERT_NE(mgr, nullptr) << name;
    EXPECT_EQ(mgr->name(), name);
  }
}

TEST(CmRegistry, RejectsUnknownName) {
  EXPECT_THROW(make_manager("NoSuchManager", Params{}), std::invalid_argument);
}

TEST(CmRegistry, ClassifiesWindowManagers) {
  EXPECT_TRUE(is_window_manager("Online-Dynamic"));
  EXPECT_FALSE(is_window_manager("Polka"));
  for (const auto& name : window_manager_names()) EXPECT_TRUE(is_window_manager(name));
  for (const auto& name : classic_manager_names()) EXPECT_FALSE(is_window_manager(name));
}

}  // namespace
}  // namespace wstm::cm
