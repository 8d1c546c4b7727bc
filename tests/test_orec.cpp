// Orec backend (src/stm/orec/): TL2-style lazy versioning behind the Backend
// concept — read sandwiches + rv extension, redo-log write buffering,
// commit-time lock acquisition with CM arbitration, and the liveness
// ladder's irrevocable serial fallback on the orec commit path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cm/registry.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "stm/runtime.hpp"
#include "util/rng.hpp"
#include "util/timing.hpp"

namespace wstm::stm {
namespace {

std::unique_ptr<Runtime> make_orec_runtime(const std::string& cm = "Polka",
                                           unsigned threads = 4,
                                           std::uint32_t orec_table_bits = 16) {
  cm::Params params;
  params.threads = threads;
  RuntimeConfig cfg;
  cfg.backend = BackendKind::kOrec;
  cfg.orec_table_bits = orec_table_bits;
  return std::make_unique<Runtime>(cm::make_manager(cm, params), cfg);
}

TEST(OrecBasic, ReadWriteCommitAndParse) {
  EXPECT_EQ(parse_backend("dstm"), BackendKind::kDstm);
  EXPECT_EQ(parse_backend("orec"), BackendKind::kOrec);
  EXPECT_THROW(parse_backend("tl3"), std::invalid_argument);

  auto rt = make_orec_runtime();
  EXPECT_EQ(rt->backend_kind(), BackendKind::kOrec);
  ThreadCtx& tc = rt->attach_thread();
  TObject<long> obj(10);
  const long v = rt->atomically(tc, [&](Tx& tx) { return *obj.open_read(tx); });
  EXPECT_EQ(v, 10);
  rt->atomically(tc, [&](Tx& tx) { *obj.open_write(tx) = 20; });
  EXPECT_EQ(*obj.peek(), 20);  // quiescent_version must follow orec_body_
  rt->atomically(tc, [&](Tx& tx) { *obj.open_write(tx) = 30; });
  EXPECT_EQ(*obj.peek(), 30);  // second write-back retires the first body
  const ThreadMetrics m = rt->total_metrics();
  EXPECT_EQ(m.aborts, 0u);
  EXPECT_EQ(m.orec_write_backs, 2u);
  EXPECT_EQ(m.orec_lock_acquires, 2u);
}

TEST(OrecBasic, ReadYourWritesAndUpgrade) {
  auto rt = make_orec_runtime();
  ThreadCtx& tc = rt->attach_thread();
  TObject<long> obj(1);
  rt->atomically(tc, [&](Tx& tx) {
    EXPECT_EQ(*obj.open_read(tx), 1);
    *obj.open_write(tx) = 2;         // redo clone, nothing locked yet
    EXPECT_EQ(*obj.open_read(tx), 2);  // read-own-writes via the write log
    EXPECT_EQ(*obj.peek(), 1);       // not committed: the clone is private
  });
  EXPECT_EQ(*obj.peek(), 2);
  EXPECT_EQ(rt->total_metrics().aborts, 0u);
}

TEST(OrecBasic, RestartDropsBufferedWrites) {
  auto rt = make_orec_runtime();
  ThreadCtx& tc = rt->attach_thread();
  TObject<long> obj(5);
  int attempts = 0;
  rt->atomically(tc, [&](Tx& tx) {
    *obj.open_write(tx) = 99;
    if (attempts++ == 0) tx.restart();  // clone must be dropped, not leaked
    *obj.open_write(tx) = 7;
  });
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(*obj.peek(), 7);
  EXPECT_EQ(rt->total_metrics().aborts, 1u);
}

// A read-only transaction whose snapshot is overtaken mid-flight must extend
// (not abort) when the overtaking commit left its read set intact.
TEST(OrecBasic, RemoteCommitForcesExtensionNotAbort) {
  auto rt = make_orec_runtime("Polka", 2);
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
      const long b = *y.open_read(tx);  // version > rv: extension pass here
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
  EXPECT_EQ(m.aborts, 0u);
  EXPECT_GE(m.extensions, 1u);
}

// A torn (old x, new y) view must never commit: after the writer moves both
// objects, the reader's second open either extends onto the new snapshot
// (seeing both new values) or validation kills the attempt.
TEST(OrecBasic, NoTornSnapshotAcrossRemoteCommit) {
  auto rt = make_orec_runtime("Aggressive", 2);
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
      const long b = *y.open_read(tx);
      return std::pair<long, long>(a, b);
    });
    EXPECT_EQ(pair.first, pair.second) << "torn (old, new) view committed";
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
}

// ---- harness matrix ---------------------------------------------------------

// Every benchmark structure survives a concurrent churn on the orec backend
// with the post-run invariant check; a 4-orec table forces constant false
// sharing of locks, exercising the collision dedup in acquire_locks. A
// parameter "<structure>" churns at 100% updates, "<structure>_u<P>" at P%
// (the read-mostly input: its read-only commits run unclocked under Polka).
class OrecWorkloads : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(Structs, OrecWorkloads,
                         ::testing::Values("list", "rbtree", "skiplist", "hashtable",
                                           "hashtable_u10"),
                         [](const auto& info) { return info.param; });

TEST_P(OrecWorkloads, ConcurrentChurnValidates) {
  const std::string& param = GetParam();
  const std::size_t cut = param.find("_u");
  const std::string kind = param.substr(0, cut);
  const std::uint32_t update_percent =
      cut == std::string::npos ? 100
                               : static_cast<std::uint32_t>(std::stoul(param.substr(cut + 2)));
  for (const std::uint32_t table_bits : {16u, 2u}) {
    auto workload = harness::make_workload(kind, update_percent,
                                           /*key_range=*/64, /*zipf_alpha=*/0.0);
    harness::RunConfig run;
    run.threads = 4;
    run.duration_ms = 150;
    run.runtime.backend = BackendKind::kOrec;
    run.seed = 7 + table_bits;
    // RunConfig has no orec_table_bits knob (the default is right for real
    // runs); drive the collision case through the runtime directly instead.
    if (table_bits == 16) {
      const harness::RunResult r =
          harness::run_workload("Polka", cm::Params{}, *workload, run);
      EXPECT_TRUE(r.valid) << GetParam() << ": " << r.why;
      // One committed transaction per int-set operation.
      EXPECT_EQ(r.totals.commits, r.latency_count) << GetParam();
      EXPECT_GT(r.totals.commits, 0u) << GetParam();
      EXPECT_GT(r.totals.orec_write_backs, 0u) << GetParam();
    } else {
      cm::Params params;
      params.threads = 4;
      RuntimeConfig cfg;
      cfg.backend = BackendKind::kOrec;
      cfg.orec_table_bits = 2;  // 4 orecs: every commit collides
      Runtime rt(cm::make_manager("Polka", params), cfg);
      {
        ThreadCtx& tc = rt.attach_thread();
        workload->populate(rt, tc);
        rt.detach_thread(tc);
      }
      std::atomic<bool> stop{false};
      std::vector<std::thread> workers;
      for (unsigned t = 0; t < 4; ++t) {
        workers.emplace_back([&, t] {
          ThreadCtx& tc = rt.attach_thread();
          Xoshiro256 rng(0x5eedu + t);
          while (!stop.load(std::memory_order_acquire)) {
            workload->run_one(rt, tc, rng);
          }
        });
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      stop.store(true, std::memory_order_release);
      for (auto& w : workers) w.join();
      std::string why;
      EXPECT_TRUE(workload->validate(&why)) << GetParam() << " @4 orecs: " << why;
      EXPECT_GT(rt.total_metrics().commits, 0u);
    }
  }
}

// ---- liveness: the serial-fallback token on the orec commit path -----------
// (ISSUE 8 satellite: irrevocable attempts bypass lock stealing.)

struct Cell {
  long value = 0;
};

void spin_ns(std::int64_t ns) {
  const std::int64_t until = now_ns() + ns;
  while (now_ns() < until) {
  }
}

TEST(OrecLiveness, LongWriterClimbsLadderAndCommitsIrrevocably) {
  // Orec mirror of the DSTM starvation regression: one long writer that
  // keeps losing to quick enemies must climb the ladder to the irrevocable
  // token and then commit — which on this backend requires that (a) an
  // irrevocable committer steals contended orec locks by killing active
  // holders, and (b) nobody steals the token holder's own commit locks
  // (try_abort refuses irrevocable targets), so its write-back always
  // completes. Exactness of both counters proves no lost updates either way.
  constexpr int kMinLongCommits = 6;
  constexpr int kMaxLongCommits = 80;
  constexpr unsigned kShortThreads = 3;

  cm::Params params;
  params.threads = kShortThreads + 1;
  params.window_n = 8;
  RuntimeConfig cfg;
  cfg.backend = BackendKind::kOrec;
  cfg.liveness.enabled = true;
  cfg.liveness.backoff_after = 1;
  cfg.liveness.boost_after = 4;
  cfg.liveness.serial_after = 4;
  cfg.liveness.backoff_base_us = 1;
  cfg.liveness.backoff_cap_us = 20;
  cfg.liveness.deadline_ns = 60'000'000'000;
  cfg.liveness.watchdog_period_ns = 100'000;
  cfg.liveness.stall_timeout_ns = 2'000'000'000;
  cfg.liveness.storm_threshold = 2;
  Runtime rt(cm::make_manager("Polka", params), cfg);
  TObject<Cell> counter(Cell{0});

  constexpr long kBig = 1'000'000'000;
  std::atomic<bool> stop_short{false};
  std::atomic<long> short_total{0};
  std::vector<std::thread> shorts;
  for (unsigned t = 0; t < kShortThreads; ++t) {
    shorts.emplace_back([&] {
      ThreadCtx& tc = rt.attach_thread();
      while (!stop_short.load(std::memory_order_acquire)) {
        rt.atomically(tc, [&](Tx& tx) { counter.open_write(tx)->value += 1; });
        short_total.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }

  int long_commits = 0;
  {
    ThreadCtx& tc = rt.attach_thread();
    while (long_commits < kMaxLongCommits) {
      rt.atomically(tc, [&](Tx& tx) {
        Cell* c = counter.open_write(tx);
        for (int s = 0; s < 60; ++s) {  // ~300 us held, yielding throughout
          spin_ns(5'000);
          std::this_thread::yield();
        }
        c->value += kBig;
      });
      ++long_commits;
      if (long_commits >= kMinLongCommits && tc.metrics().serial_fallbacks > 0 &&
          rt.liveness()->stats().storms_flagged > 0) {
        break;
      }
    }
    stop_short.store(true, std::memory_order_release);
  }
  for (auto& w : shorts) w.join();

  const long final_value = counter.peek()->value;
  EXPECT_EQ(final_value / kBig, long_commits) << "long-writer commits lost";
  EXPECT_EQ(final_value % kBig, short_total.load()) << "short-writer commits lost";

  const ThreadMetrics totals = rt.total_metrics();
  EXPECT_GT(totals.escalations, 0u) << "ladder never engaged on orec";
  EXPECT_GT(totals.serial_fallbacks, 0u)
      << "starved writer never reached the irrevocable level on orec";
  EXPECT_GT(totals.orec_write_backs, 0u);
  EXPECT_EQ(totals.timeouts, 0u);

  const resilience::LivenessManager::Stats ls = rt.liveness()->stats();
  EXPECT_LE(ls.max_token_holders, 1u);
  EXPECT_EQ(ls.token_overlap_violations, 0u);
}

}  // namespace
}  // namespace wstm::stm
