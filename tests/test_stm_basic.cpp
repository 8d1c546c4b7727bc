// Single-threaded semantics of the STM runtime: commit/abort visibility,
// read-own-write, transactional allocation, metrics accounting.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

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
  for (unsigned i = 0; i < Runtime::kMaxThreads; ++i) ctxs.push_back(&rt->attach_thread());
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
  const MetricsSummary s = summarize(t, 1'000'000'000);  // 1 s
  EXPECT_DOUBLE_EQ(s.throughput_per_s, 100.0);
  EXPECT_DOUBLE_EQ(s.aborts_per_commit, 0.5);
  EXPECT_DOUBLE_EQ(s.wasted_fraction, 0.25);
  EXPECT_DOUBLE_EQ(s.mean_response_us, 2.0);
}

}  // namespace
}  // namespace wstm::stm
