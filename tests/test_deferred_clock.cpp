// Deferred commit clock (GV5-style; DESIGN.md §11): write-commits stamp
// `clock+1` into their descriptor without touching the shared clock line,
// which only moves on the snapshot-extension path. These tests cover the
// live-thread protocol (stamps accumulate, bumps stay rare), the
// deterministic checker's full six-variant exploration with the deferred
// clock armed, and the ghost opacity oracle catching the seeded
// "stamp-without-pending-check" bug within the CI schedule budget.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/checker.hpp"
#include "cm/registry.hpp"
#include "stm/runtime.hpp"
#include "structs/intset.hpp"
#include "util/rng.hpp"

namespace wstm::stm {
namespace {

std::unique_ptr<Runtime> make_runtime(unsigned threads, const std::string& cm = "Polka") {
  cm::Params params;
  params.threads = threads;
  RuntimeConfig cfg;
  cfg.visible_reads = false;
  return std::make_unique<Runtime>(cm::make_manager(cm, params), cfg);
}

TEST(DeferredClock, SingleThreadBasics) {
  auto rt = make_runtime(1);
  ThreadCtx& tc = rt->attach_thread();
  TObject<long> obj(10);
  EXPECT_EQ(rt->atomically(tc, [&](Tx& tx) { return *obj.open_read(tx); }), 10);
  rt->atomically(tc, [&](Tx& tx) { *obj.open_write(tx) = 20; });
  EXPECT_EQ(*obj.peek(), 20);
  rt->atomically(tc, [&](Tx& tx) {
    EXPECT_EQ(*obj.open_read(tx), 20);
    *obj.open_write(tx) = 30;
    EXPECT_EQ(*obj.open_read(tx), 30);
  });
  EXPECT_EQ(*obj.peek(), 30);
  const ThreadMetrics m = rt->total_metrics();
  EXPECT_EQ(m.aborts, 0u);
  EXPECT_EQ(m.deferred_stamps, 2u);  // one per write-commit
}

// The shared-line reduction, in-process: under the BM_IntsetWriteHeavy-
// class workload (write-heavy, low-conflict — a hashtable with a wide key
// range) the shared clock line is written far less often than once per
// write-commit. Two effects compound:
// concurrent writers observing the same clock stamp the same generation
// (one bump covers all of them), and begin_attempt re-establishes the
// snapshot, so opens of anything committed before the attempt began
// fast-accept without ever touching the line.
TEST(DeferredClock, BumpsAreFarRarerThanStamps) {
  constexpr unsigned kThreads = 8;
  constexpr int kOpsPerThread = 3000;
  constexpr long kKeyRange = 1024;
  auto rt = make_runtime(kThreads);
  auto set_ptr = structs::make_intset("hashtable");
  structs::TxIntSet& set = *set_ptr;
  {
    ThreadCtx& tc = rt->attach_thread();
    for (long k = 0; k < kKeyRange; k += 2) {
      rt->atomically(tc, [&](Tx& tx) { return set.insert(tx, k); });
    }
  }
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      ThreadCtx& tc = rt->attach_thread();
      Xoshiro256 rng(1000 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const long k = static_cast<long>(rng.below(kKeyRange));
        rt->atomically(tc, [&](Tx& tx) {
          return rng.below(2) == 0 ? set.insert(tx, k) : set.remove(tx, k);
        });
      }
    });
  }
  for (auto& w : workers) w.join();
  const ThreadMetrics m = rt->total_metrics();
  // 24k update ops: thousands of write-commits stamped...
  EXPECT_GT(m.deferred_stamps, 10000u);
  // ...with at most one shared-line write per stamped generation.
  EXPECT_LT(m.clock_bumps * 5, m.deferred_stamps);
}

// ---- deterministic-checker coverage ----------------------------------------

check::CheckConfig deferred_check_config(const std::string& cm) {
  check::CheckConfig c;
  c.threads = 3;
  c.ops_per_thread = 16;
  c.key_range = 16;
  c.window_n = 6;
  c.cm = cm;
  c.visible_reads = false;
  c.seed = 12345;
  return c;
}

// The checker passes the full six-variant exploration on invisible reads —
// the ghost opacity oracle stays silent across random schedules for every
// window variant.
TEST(DeferredClock, SixVariantExploreIsClean) {
  for (const char* cm :
       {"Online", "Online-Dynamic", "Adaptive", "Adaptive-Dynamic", "Adaptive-Improved",
        "Adaptive-Improved-Dynamic"}) {
    check::CheckConfig c = deferred_check_config(cm);
    const check::ExploreResult er = check::Checker(c).explore(10);
    EXPECT_EQ(er.violations, 0u) << cm << ": " << er.first_violation.diagnosis;
  }
}

// Seeded-bug acceptance: dropping the pending-set membership check from the
// deferred fast path (bug "stamp-no-pending") accepts a stamp from a writer
// whose status CAS may postdate the snapshot instant. The ghost opacity
// oracle must flag it within 100 schedules, the pinned schedule must replay
// to the same verdict, and the clean protocol must survive the same budget.
TEST(DeferredClock, StampWithoutPendingCheckIsCaught) {
  check::CheckConfig c = deferred_check_config("Aggressive");
  c.update_percent = 70;  // update-heavy: more concurrent write-commits
  c.key_range = 8;        // small range: stamps land on objects readers open
  c.bug = "stamp-no-pending";
  check::Checker buggy(c);
  const check::ExploreResult er = buggy.explore(100);
  ASSERT_GE(er.violations, 1u);
  EXPECT_NE(er.first_violation.diagnosis.find("deferred-clock"), std::string::npos)
      << er.first_violation.diagnosis;

  check::Checker replayer(er.first_violation.schedule.config);
  const check::RunResult again = replayer.replay(er.first_violation.schedule);
  EXPECT_EQ(again.divergences, 0u);
  EXPECT_TRUE(again.violation);

  c.bug = "none";
  EXPECT_EQ(check::Checker(c).explore(100).violations, 0u);
}

}  // namespace
}  // namespace wstm::stm
