// Single-threaded semantics of the STM runtime: commit/abort visibility,
// read-own-write, transactional allocation, metrics accounting.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "cm/registry.hpp"
#include "stm/runtime.hpp"

namespace wstm::stm {
namespace {

struct Box {
  int value = 0;
};

std::unique_ptr<Runtime> make_runtime(const std::string& cm_name = "Aggressive") {
  cm::Params params;
  params.threads = 4;
  return std::make_unique<Runtime>(cm::make_manager(cm_name, params));
}

TEST(StmBasic, CommitMakesWritesVisible) {
  auto rt = make_runtime();
  ThreadCtx& tc = rt->attach_thread();
  TObject<Box> obj(Box{1});
  rt->atomically(tc, [&](Tx& tx) { obj.open_write(tx)->value = 42; });
  EXPECT_EQ(obj.peek()->value, 42);
  const int seen = rt->atomically(tc, [&](Tx& tx) { return obj.open_read(tx)->value; });
  EXPECT_EQ(seen, 42);
}

// DSTM exposes its descriptor on every open (locator owner, reader stripes,
// commit-pending slot), so it publishes at begin: every transaction, read-only
// and empty ones included, changes the thread's published descriptor.
TEST(StmBasic, DstmPublishesEveryAttempt) {
  auto rt = make_runtime("Polka");
  ThreadCtx& tc = rt->attach_thread();
  TObject<Box> obj(Box{1});
  const TxDesc* prev = rt->tx_of_slot(tc.slot());
  for (int i = 0; i < 30; ++i) {
    const TxDesc* seen = nullptr;
    rt->atomically(tc, [&](Tx& tx) {
      seen = &tx.desc();
      if (i % 3 == 1) (void)obj.open_read(tx)->value;
      if (i % 3 == 2) obj.open_write(tx)->value = i;
    });
    const TxDesc* now = rt->tx_of_slot(tc.slot());
    EXPECT_NE(now, prev) << "transaction " << i;
    EXPECT_EQ(now, seen) << "transaction " << i;
    prev = now;
  }
}

TEST(StmBasic, ReturnValuePropagates) {
  auto rt = make_runtime();
  ThreadCtx& tc = rt->attach_thread();
  const std::string s = rt->atomically(tc, [&](Tx&) { return std::string("hello"); });
  EXPECT_EQ(s, "hello");
}

TEST(StmBasic, ReadOwnWriteWithinTransaction) {
  auto rt = make_runtime();
  ThreadCtx& tc = rt->attach_thread();
  TObject<Box> obj(Box{5});
  rt->atomically(tc, [&](Tx& tx) {
    obj.open_write(tx)->value = 9;
    EXPECT_EQ(obj.open_read(tx)->value, 9);   // sees own write
    EXPECT_EQ(obj.open_write(tx)->value, 9);  // same clone again
  });
  EXPECT_EQ(obj.peek()->value, 9);
}

TEST(StmBasic, RestartRetriesTheBody) {
  auto rt = make_runtime();
  ThreadCtx& tc = rt->attach_thread();
  TObject<Box> obj(Box{0});
  int attempts = 0;
  rt->atomically(tc, [&](Tx& tx) {
    obj.open_write(tx)->value += 1;
    if (++attempts < 3) tx.restart();
  });
  EXPECT_EQ(attempts, 3);
  // Aborted attempts' writes were discarded: exactly one increment landed.
  EXPECT_EQ(obj.peek()->value, 1);
}

TEST(StmBasic, UserExceptionAbortsAndPropagates) {
  auto rt = make_runtime();
  ThreadCtx& tc = rt->attach_thread();
  TObject<Box> obj(Box{7});
  EXPECT_THROW(rt->atomically(tc,
                              [&](Tx& tx) {
                                obj.open_write(tx)->value = 100;
                                throw std::runtime_error("boom");
                              }),
               std::runtime_error);
  EXPECT_EQ(obj.peek()->value, 7);  // write rolled back
  EXPECT_EQ(rt->total_metrics().aborts, 1u);
}

TEST(StmBasic, MakeIsRolledBackOnAbort) {
  static int live = 0;
  struct Counted {
    Counted() { ++live; }
    Counted(const Counted&) { ++live; }
    ~Counted() { --live; }
  };
  auto rt = make_runtime();
  ThreadCtx& tc = rt->attach_thread();
  int attempts = 0;
  Counted* kept = nullptr;
  rt->atomically(tc, [&](Tx& tx) {
    kept = tx.make<Counted>();
    if (++attempts < 2) tx.restart();
  });
  // The first attempt's allocation was deleted on abort; the committed
  // attempt's survives and is owned by the caller.
  EXPECT_EQ(live, 1);
  delete kept;
  EXPECT_EQ(live, 0);
}

TEST(StmBasic, RetireOnCommitFreesAfterGrace) {
  static int destroyed = 0;
  struct Tracked {
    ~Tracked() { ++destroyed; }
  };
  destroyed = 0;
  {
    auto rt = make_runtime();
    ThreadCtx& tc = rt->attach_thread();
    auto* obj = new Tracked();
    rt->atomically(tc, [&](Tx& tx) { tx.retire_on_commit(obj); });
    rt->detach_thread(tc);
  }  // runtime teardown drains the EBR domain
  EXPECT_EQ(destroyed, 1);
}

TEST(StmBasic, RetireOnCommitSkippedOnAbort) {
  static int destroyed = 0;
  struct Tracked {
    ~Tracked() { ++destroyed; }
  };
  destroyed = 0;
  auto rt = make_runtime();
  ThreadCtx& tc = rt->attach_thread();
  auto* obj = new Tracked();
  int attempts = 0;
  rt->atomically(tc, [&](Tx& tx) {
    if (++attempts < 2) {
      tx.retire_on_commit(obj);
      tx.restart();  // retire request must be dropped
    }
  });
  EXPECT_EQ(destroyed, 0);
  delete obj;
}

TEST(StmBasic, MetricsCountCommitsAndAborts) {
  auto rt = make_runtime();
  ThreadCtx& tc = rt->attach_thread();
  TObject<Box> obj(Box{0});
  int attempts = 0;
  rt->atomically(tc, [&](Tx& tx) {
    obj.open_write(tx)->value++;
    if (++attempts < 4) tx.restart();
  });
  const ThreadMetrics m = rt->total_metrics();
  EXPECT_EQ(m.commits, 1u);
  EXPECT_EQ(m.aborts, 3u);
  EXPECT_GT(m.committed_ns, 0);
  EXPECT_GT(m.response_ns, 0);
}

TEST(StmBasic, ResetMetricsClears) {
  auto rt = make_runtime();
  ThreadCtx& tc = rt->attach_thread();
  TObject<Box> obj(Box{0});
  rt->atomically(tc, [&](Tx& tx) { obj.open_write(tx)->value = 1; });
  rt->reset_metrics();
  EXPECT_EQ(rt->total_metrics().commits, 0u);
}

TEST(StmBasic, SequentialTransactionsOnManyObjects) {
  auto rt = make_runtime();
  ThreadCtx& tc = rt->attach_thread();
  std::vector<std::unique_ptr<TObject<Box>>> objs;
  for (int i = 0; i < 50; ++i) objs.push_back(std::make_unique<TObject<Box>>(Box{i}));
  rt->atomically(tc, [&](Tx& tx) {
    for (auto& o : objs) o->open_write(tx)->value *= 2;
  });
  for (int i = 0; i < 50; ++i) EXPECT_EQ(objs[static_cast<std::size_t>(i)]->peek()->value, 2 * i);
}

TEST(StmBasic, RuntimeRequiresManager) {
  EXPECT_THROW(Runtime(nullptr), std::invalid_argument);
}

TEST(StmBasic, SlotExhaustionThrows) {
  auto rt = make_runtime();
  std::vector<ThreadCtx*> ctxs;
  for (unsigned i = 0; i < kMaxThreads; ++i) ctxs.push_back(&rt->attach_thread());
  EXPECT_THROW(rt->attach_thread(), std::runtime_error);
  rt->detach_thread(*ctxs.back());
  EXPECT_NO_THROW(rt->attach_thread());
}

TEST(StmBasic, DetachThreadTwiceIsSafe) {
  auto rt = make_runtime();
  ThreadCtx& tc = rt->attach_thread();
  TObject<Box> obj(Box{0});
  rt->atomically(tc, [&](Tx& tx) { obj.open_write(tx)->value = 1; });
  rt->detach_thread(tc);
  rt->detach_thread(tc);  // second detach of the same context is a no-op
  // The slot is reusable, and the retired context stays valid until the
  // runtime dies (so a stale reference cannot dangle).
  ThreadCtx& tc2 = rt->attach_thread();
  rt->atomically(tc2, [&](Tx& tx) { obj.open_write(tx)->value = 2; });
  EXPECT_EQ(obj.peek()->value, 2);
  rt->detach_thread(tc2);
  rt->detach_thread(tc);  // still a no-op after the slot was recycled
  // Runtime destruction must not double-detach either context.
}

TEST(StmBasic, SummarizeComputesDerivedMetrics) {
  ThreadMetrics t;
  t.commits = 100;
  t.aborts = 50;
  t.wasted_ns = 250;
  t.committed_ns = 750;
  t.response_ns = 100 * 2000;
  t.timed_commits = 100;
  const MetricsSummary s = summarize(t, 1'000'000'000);  // 1 s
  EXPECT_DOUBLE_EQ(s.throughput_per_s, 100.0);
  EXPECT_DOUBLE_EQ(s.aborts_per_commit, 0.5);
  EXPECT_DOUBLE_EQ(s.wasted_fraction, 0.25);
  EXPECT_DOUBLE_EQ(s.mean_response_us, 2.0);

  // Sampled timing: the response sum covers only the timed commits, so
  // they, not all commits, are the mean's denominator.
  t.timed_commits = 10;
  t.response_ns = 10 * 3000;
  const MetricsSummary sampled = summarize(t, 1'000'000'000);
  EXPECT_DOUBLE_EQ(sampled.throughput_per_s, 100.0);
  EXPECT_DOUBLE_EQ(sampled.mean_response_us, 3.0);

  // to_string: the derived line, then every nonzero counter by name.
  const std::string text = sampled.to_string(t);
  EXPECT_NE(text.find("aborts/commit=0.500"), std::string::npos) << text;
  EXPECT_NE(text.find("  commits=100"), std::string::npos) << text;
  EXPECT_NE(text.find("  timed_commits=10"), std::string::npos) << text;
  EXPECT_EQ(text.find("serve_completed"), std::string::npos) << text;
}

TEST(StmBasic, CounterListDrivesSumAndVisitor) {
  // Give every counter a distinct value through the visitor.
  ThreadMetrics m;
  int next = 1;
  m.visit([&](const char*, auto& field) { field = next++; });
  ThreadMetrics doubled = m;
  doubled += m;

  std::set<std::string> names;
  std::vector<std::int64_t> once;
  std::vector<std::int64_t> twice;
  m.visit([&](const char* name, auto value) {
    names.insert(name);
    once.push_back(static_cast<std::int64_t>(value));
  });
  doubled.visit(
      [&](const char*, auto value) { twice.push_back(static_cast<std::int64_t>(value)); });
  EXPECT_EQ(names.size(), 41u);
  EXPECT_EQ(ThreadMetrics::kCounters, 41u);
  ASSERT_EQ(twice.size(), once.size());
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(once[i], static_cast<std::int64_t>(i) + 1);
    EXPECT_EQ(twice[i], 2 * once[i]) << i;
  }
  // The visitor walks the fields themselves, first to last.
  EXPECT_EQ(m.commits, 1u);
  EXPECT_EQ(m.serve_queue_wait_ns, 41);
  EXPECT_TRUE(names.count("ebr_shard_syncs"));
}

TEST(StmBasic, UnclockedManagerSamplesTiming) {
  // Polka reads no attempt timestamp, so only the metrics want the clock:
  // each thread times its first logical transaction and every 64th after.
  static_assert(Runtime::kTimingSamplePeriod == 64);
  auto rt = make_runtime("Polka");
  ThreadCtx& tc = rt->attach_thread();
  TObject<Box> obj(Box{0});
  for (int i = 0; i < 640; ++i) {
    rt->atomically(tc, [&](Tx& tx) { obj.open_write(tx)->value++; });
  }
  const ThreadMetrics m = rt->total_metrics();
  EXPECT_EQ(m.commits, 640u);
  EXPECT_EQ(m.aborts, 0u);
  EXPECT_EQ(m.timed_commits, 10u);
  EXPECT_GT(m.committed_ns, 0);
  EXPECT_GT(m.response_ns, 0);
  EXPECT_EQ(obj.peek()->value, 640);
}

TEST(StmBasic, ClockedManagerTimesEveryCommit) {
  // Greedy arbitrates on first_begin_ns, so every attempt is stamped and
  // every commit is timed, exactly as without sampling.
  auto rt = make_runtime("Greedy");
  ThreadCtx& tc = rt->attach_thread();
  TObject<Box> obj(Box{0});
  int attempts = 0;
  for (int i = 0; i < 100; ++i) {
    rt->atomically(tc, [&](Tx& tx) {
      obj.open_write(tx)->value++;
      if (++attempts % 7 == 0) tx.restart();
    });
  }
  const ThreadMetrics m = rt->total_metrics();
  EXPECT_EQ(m.commits, 100u);
  EXPECT_GT(m.aborts, 0u);
  EXPECT_EQ(m.timed_commits, m.commits);
  EXPECT_GT(m.committed_ns, 0);
  EXPECT_GT(m.response_ns, 0);
}

TEST(StmBasic, RegistryClassifiesTimedManagers) {
  for (const char* name : {"Greedy", "Priority"}) {
    EXPECT_TRUE(cm::is_timed_manager(name)) << name;
  }
  for (const auto& name : cm::window_manager_names()) {
    EXPECT_TRUE(cm::is_timed_manager(name)) << name;
  }
  // Every other classic manager reads no attempt timestamp.
  std::size_t untimed = 0;
  for (const auto& name : cm::classic_manager_names()) untimed += !cm::is_timed_manager(name);
  EXPECT_EQ(cm::classic_manager_names().size(), 5u);
  EXPECT_EQ(untimed, 3u);
  EXPECT_TRUE(cm::is_timed_manager("NoSuchManager"));
}

}  // namespace
}  // namespace wstm::stm
