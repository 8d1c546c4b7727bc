// Invisible-read mode tests: DSTM-style read-set validation instead of
// visible reader bitmaps (DSTM2's other read mode; the paper used visible).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "check/checker.hpp"
#include "cm/registry.hpp"
#include "stm/runtime.hpp"
#include "structs/intset.hpp"
#include "structs/sequential_set.hpp"
#include "util/rng.hpp"

namespace wstm::stm {
namespace {

std::unique_ptr<Runtime> make_invisible_runtime(const std::string& cm = "Polka",
                                                unsigned threads = 4) {
  cm::Params params;
  params.threads = threads;
  RuntimeConfig cfg;
  cfg.visible_reads = false;
  return std::make_unique<Runtime>(cm::make_manager(cm, params), cfg);
}

TEST(InvisibleReads, BasicReadWriteCommit) {
  auto rt = make_invisible_runtime();
  ThreadCtx& tc = rt->attach_thread();
  TObject<long> obj(10);
  const long v = rt->atomically(tc, [&](Tx& tx) { return *obj.open_read(tx); });
  EXPECT_EQ(v, 10);
  rt->atomically(tc, [&](Tx& tx) { *obj.open_write(tx) = 20; });
  EXPECT_EQ(*obj.peek(), 20);
}

TEST(InvisibleReads, UpgradeKeepsReadValid) {
  auto rt = make_invisible_runtime();
  ThreadCtx& tc = rt->attach_thread();
  TObject<long> obj(1);
  rt->atomically(tc, [&](Tx& tx) {
    EXPECT_EQ(*obj.open_read(tx), 1);
    *obj.open_write(tx) = 2;  // acquire after reading: must not self-abort
    EXPECT_EQ(*obj.open_read(tx), 2);
  });
  EXPECT_EQ(*obj.peek(), 2);
  EXPECT_EQ(rt->total_metrics().aborts, 0u);
}

TEST(InvisibleReads, StaleReadIsDetectedAtNextOpen) {
  auto rt = make_invisible_runtime("Aggressive", 2);
  TObject<long> x(0);
  TObject<long> y(0);

  std::atomic<bool> reader_read_x{false};
  std::atomic<bool> writer_done{false};
  std::atomic<int> reader_attempts{0};

  std::thread reader([&] {
    ThreadCtx& tc = rt->attach_thread();
    const auto pair = rt->atomically(tc, [&](Tx& tx) {
      const int attempt = reader_attempts.fetch_add(1, std::memory_order_acq_rel);
      const long a = *x.open_read(tx);
      if (attempt == 0) {
        reader_read_x.store(true, std::memory_order_release);
        while (!writer_done.load(std::memory_order_acquire)) std::this_thread::yield();
      }
      const long b = *y.open_read(tx);  // validation must kill attempt 0 here
      return std::pair<long, long>(a, b);
    });
    EXPECT_EQ(pair.first, pair.second);  // never a torn (old, new) view
    EXPECT_EQ(pair.first, 7);
  });

  while (!reader_read_x.load(std::memory_order_acquire)) std::this_thread::yield();
  {
    ThreadCtx& tc = rt->attach_thread();
    rt->atomically(tc, [&](Tx& tx) {
      *x.open_write(tx) = 7;
      *y.open_write(tx) = 7;
    });
    rt->detach_thread(tc);
  }
  writer_done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GE(reader_attempts.load(), 2);  // first attempt failed validation
}

TEST(InvisibleReads, ReadersSeeConsistentPairsUnderChurn) {
  auto rt = make_invisible_runtime("Polka", 3);
  TObject<long> x(0);
  TObject<long> y(0);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> mismatches{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      ThreadCtx& tc = rt->attach_thread();
      while (!stop.load(std::memory_order_acquire)) {
        const auto pair = rt->atomically(tc, [&](Tx& tx) {
          return std::pair<long, long>(*x.open_read(tx), *y.open_read(tx));
        });
        if (pair.first != pair.second) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  {
    std::thread writer([&] {
      ThreadCtx& tc = rt->attach_thread();
      for (int i = 1; i <= 400; ++i) {
        rt->atomically(tc, [&](Tx& tx) {
          *x.open_write(tx) = i;
          *y.open_write(tx) = i;
        });
      }
      stop.store(true, std::memory_order_release);
    });
    writer.join();
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(InvisibleReads, IntSetMatchesOracle) {
  auto rt = make_invisible_runtime();
  ThreadCtx& tc = rt->attach_thread();
  auto set = structs::make_intset("list");
  structs::SequentialSet oracle;
  Xoshiro256 rng(31);
  for (int i = 0; i < 1500; ++i) {
    const long key = static_cast<long>(rng.below(64));
    if (rng.below(2) == 0) {
      EXPECT_EQ(rt->atomically(tc, [&](Tx& tx) { return set->insert(tx, key); }),
                oracle.insert(key));
    } else {
      EXPECT_EQ(rt->atomically(tc, [&](Tx& tx) { return set->remove(tx, key); }),
                oracle.remove(key));
    }
  }
  EXPECT_EQ(set->quiescent_elements(), oracle.elements());
}

TEST(InvisibleReads, ConcurrentCounterHasNoLostUpdates) {
  constexpr unsigned kThreads = 4;
  constexpr int kIncrements = 300;
  auto rt = make_invisible_runtime("Greedy", kThreads);
  TObject<long> counter(0);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      ThreadCtx& tc = rt->attach_thread();
      for (int i = 0; i < kIncrements; ++i) {
        rt->atomically(tc, [&](Tx& tx) { *counter.open_write(tx) += 1; });
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(*counter.peek(), static_cast<long>(kThreads) * kIncrements);
}

// ---- commit-clock snapshot extension ---------------------------------------

// No O(R^2) validation: a transaction reading N distinct objects must not
// run a full read-set validation on every open. Without a concurrent writer
// no fresh commit stamp ever trips the snapshot, so every open skips its
// pass.
TEST(InvisibleSnapshot, ValidationCostIsAmortizedO1) {
  constexpr int kReads = 64;
  auto rt = make_invisible_runtime("Polka", 1);
  ThreadCtx& tc = rt->attach_thread();
  std::vector<std::unique_ptr<TObject<long>>> objs;
  for (int i = 0; i < kReads; ++i) objs.push_back(std::make_unique<TObject<long>>(i));
  long sum = 0;
  rt->atomically(tc, [&](Tx& tx) {
    sum = 0;
    for (const auto& o : objs) sum += *o->open_read(tx);
  });
  EXPECT_EQ(sum, kReads * (kReads - 1) / 2);
  const ThreadMetrics m = rt->total_metrics();
  // kReads opens + the commit-point check, all skipped: every object is
  // still on its initial locator. O(distinct objects) total work.
  EXPECT_EQ(m.validations, 0u);
  EXPECT_EQ(m.validated_reads, 0u);
  EXPECT_EQ(m.validations_skipped, static_cast<std::uint64_t>(kReads) + 1);
}

// Re-reading an object must not append a second read-set entry (that would
// make R the read *count*, not the footprint) and must hand back the version
// recorded at first read.
TEST(InvisibleSnapshot, DuplicateReadsAreDeduped) {
  constexpr int kRereads = 16;
  auto rt = make_invisible_runtime("Polka", 1);
  ThreadCtx& tc = rt->attach_thread();
  TObject<long> obj(42);
  rt->atomically(tc, [&](Tx& tx) {
    const long* first = obj.open_read(tx);
    for (int i = 1; i < kRereads; ++i) {
      EXPECT_EQ(obj.open_read(tx), first);  // same committed version object
    }
  });
  const ThreadMetrics m = rt->total_metrics();
  EXPECT_EQ(m.dup_reads, static_cast<std::uint64_t>(kRereads) - 1);
  EXPECT_EQ(m.aborts, 0u);
}

// A remote write-commit advances the clock, so the reader's next open runs
// one full extension pass (not an abort: the read set is still valid) and
// adopts the new snapshot.
TEST(InvisibleSnapshot, RemoteCommitForcesOneExtensionPass) {
  auto rt = make_invisible_runtime("Polka", 2);
  TObject<long> x(3);
  TObject<long> y(0);

  std::atomic<bool> reader_read_x{false};
  std::atomic<bool> writer_done{false};

  std::thread reader([&] {
    ThreadCtx& tc = rt->attach_thread();
    const auto pair = rt->atomically(tc, [&](Tx& tx) {
      const long a = *x.open_read(tx);
      if (!reader_read_x.exchange(true, std::memory_order_acq_rel)) {
        while (!writer_done.load(std::memory_order_acquire)) std::this_thread::yield();
      }
      const long b = *y.open_read(tx);  // clock moved: extension pass here
      return std::pair<long, long>(a, b);
    });
    EXPECT_EQ(pair.first, 3);
    EXPECT_EQ(pair.second, 7);
  });

  while (!reader_read_x.load(std::memory_order_acquire)) std::this_thread::yield();
  {
    ThreadCtx& tc = rt->attach_thread();
    rt->atomically(tc, [&](Tx& tx) { *y.open_write(tx) = 7; });  // x untouched
    rt->detach_thread(tc);
  }
  writer_done.store(true, std::memory_order_release);
  reader.join();

  const ThreadMetrics m = rt->total_metrics();
  EXPECT_EQ(m.aborts, 0u);  // the pass extends; it must not kill the reader
  EXPECT_GE(m.extensions, 1u);
}

// ---- deterministic-checker coverage ----------------------------------------

check::CheckConfig invisible_check_config(const std::string& cm) {
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

// The validate->recheck window in open_read_invisible has a schedule point,
// so the checker can drive a writer's commit exactly between a successful
// validation and the locator recheck. With the recheck seeded out
// (skip-cas-recheck) the ghost opacity oracle must catch the torn snapshot
// within the CI budget, and the pinned schedule must replay to the same
// verdict; the clean protocol must survive the identical budget.
TEST(InvisibleChecker, CommitInValidateRecheckWindowIsCaught) {
  // Aggressive has no wait slices: Polka-style karma waits burn real time
  // while holding the executor token, which makes a clean 40-schedule
  // budget take minutes in invisible mode (same reason CheckerFaults uses
  // it). The seeded bug is manager-independent, so nothing is lost.
  check::CheckConfig c = invisible_check_config("Aggressive");
  c.bug = "skip-cas-recheck";
  check::Checker buggy(c);
  const check::ExploreResult er = buggy.explore(40);
  ASSERT_GE(er.violations, 1u);
  EXPECT_NE(er.first_violation.diagnosis.find("opacity"), std::string::npos)
      << er.first_violation.diagnosis;

  check::Checker replayer(er.first_violation.schedule.config);
  const check::RunResult again = replayer.replay(er.first_violation.schedule);
  EXPECT_EQ(again.divergences, 0u);
  EXPECT_TRUE(again.violation);

  c.bug = "none";
  EXPECT_EQ(check::Checker(c).explore(40).violations, 0u);
}

}  // namespace
}  // namespace wstm::stm
