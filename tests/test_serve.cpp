// Serving front-end (src/serve/): bounded MPMC queue semantics including
// both backpressure modes, admission-policy placement determinism, worker
// pool drain/shutdown behaviour, TxServer lifecycle, and an end-to-end
// open-loop smoke run. Suite names all start with "Serve" so the CI TSan
// regex picks the whole file up.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cm/registry.hpp"
#include "harness/open_loop.hpp"
#include "harness/workload.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "stm/runtime.hpp"
#include "util/timing.hpp"

namespace wstm {
namespace {

using serve::AdmissionScheduler;
using serve::Backpressure;
using serve::BoundedQueue;
using serve::SchedulerConfig;
using serve::SubmitResult;
using serve::TxRequest;
using serve::TxServer;
using stm::Runtime;
using stm::Tx;

TxRequest req_with_key(std::uint64_t key) {
  TxRequest r;
  r.key = key;
  r.arg = key;
  return r;
}

// ---- bounded queue ---------------------------------------------------------

TEST(ServeQueue, CapacityRoundsUpAndRejectsWhenFull) {
  BoundedQueue q(5);  // rounds up to 8
  EXPECT_EQ(q.capacity(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(q.try_push(req_with_key(i)), BoundedQueue::PushResult::kOk);
  }
  // Reject-mode backpressure: a full ring fails fast, no blocking.
  EXPECT_EQ(q.try_push(req_with_key(99)), BoundedQueue::PushResult::kFull);
  EXPECT_EQ(q.stats().rejected_full, 1u);
  EXPECT_EQ(q.depth(), 8u);

  TxRequest out;
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.try_pop(&out));
    EXPECT_EQ(out.key, i);  // FIFO
  }
  EXPECT_FALSE(q.try_pop(&out));
  const BoundedQueue::Stats s = q.stats();
  EXPECT_EQ(s.enqueued, 8u);
  EXPECT_EQ(s.dequeued, 8u);
  EXPECT_EQ(s.max_depth, 8u);
}

TEST(ServeQueue, BlockModePushWaitsForSpace) {
  BoundedQueue q(2);
  ASSERT_EQ(q.try_push(req_with_key(0)), BoundedQueue::PushResult::kOk);
  ASSERT_EQ(q.try_push(req_with_key(1)), BoundedQueue::PushResult::kOk);

  // Block-mode backpressure: the producer parks until a consumer frees a
  // slot, then the push lands (never kFull).
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_EQ(q.push_wait(req_with_key(2)), BoundedQueue::PushResult::kOk);
    pushed.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load(std::memory_order_acquire));

  TxRequest out;
  ASSERT_TRUE(q.try_pop(&out));
  producer.join();
  EXPECT_TRUE(pushed.load(std::memory_order_acquire));
  EXPECT_EQ(q.depth(), 2u);
}

TEST(ServeQueue, CloseWakesWaitersAndDrainsRemainder) {
  BoundedQueue q(4);
  ASSERT_EQ(q.try_push(req_with_key(7)), BoundedQueue::PushResult::kOk);

  // A parked consumer on an empty-after-drain queue must wake on close()
  // instead of sleeping out its timeout budget forever.
  std::thread waiter([&] {
    TxRequest out;
    // First pop gets the item; the second observes closed+empty → false.
    EXPECT_TRUE(q.pop_wait(&out, std::int64_t{5'000'000'000}));
    EXPECT_EQ(out.key, 7u);
    EXPECT_FALSE(q.pop_wait(&out, std::int64_t{5'000'000'000}));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  waiter.join();

  EXPECT_EQ(q.try_push(req_with_key(8)), BoundedQueue::PushResult::kClosed);
  EXPECT_EQ(q.push_wait(req_with_key(9)), BoundedQueue::PushResult::kClosed);
}

TEST(ServeQueue, CloseRacingParkedConsumerReturnsPromptly) {
  // Regression for a lost shutdown wakeup: pop_wait checked closed_ only
  // *before* announcing itself in pop_waiters_, so a close() landing between
  // the announcement and the condition-variable wait delivered its
  // notify_all to nobody and the consumer slept out its full timeout. Same
  // window existed in push_wait for a producer blocked on a full queue. The
  // fix re-checks closed_ under wait_mutex_ (close() stores the flag before
  // taking the mutex to notify, so the mutex-held re-check cannot miss it).
  // Hammer the window: with the bug, iterations that lose the race cost the
  // full 300 ms timeout each and blow the elapsed bound; fixed, every close
  // returns the waiters near-instantly. TSan covers the ordering claim.
  constexpr int kIters = 60;
  constexpr std::int64_t kPopTimeoutNs = 300'000'000;
  const auto begin = std::chrono::steady_clock::now();
  for (int iter = 0; iter < kIters; ++iter) {
    BoundedQueue q(2);
    // Full queue so the producer side parks too.
    ASSERT_EQ(q.try_push(req_with_key(1)), BoundedQueue::PushResult::kOk);
    ASSERT_EQ(q.try_push(req_with_key(2)), BoundedQueue::PushResult::kOk);
    std::atomic<int> ready{0};
    std::thread producer([&] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      // kOk when the consumer freed a slot first, kClosed when close() won
      // the race — either way it must return, never sleep out the shutdown.
      EXPECT_NE(q.push_wait(req_with_key(3)), BoundedQueue::PushResult::kFull);
    });
    std::thread consumer([&] {
      TxRequest out;
      // Drain the two items, then park on the empty queue until close().
      while (q.pop_wait(&out, kPopTimeoutNs)) {
      }
      ready.fetch_add(1, std::memory_order_acq_rel);
    });
    while (ready.load(std::memory_order_acquire) < 1) std::this_thread::yield();
    q.close();  // races the consumer's park and the producer's full-queue park
    producer.join();
    consumer.join();
  }
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  // Fixed: the whole loop is thread churn, far under one second. Buggy: a
  // handful of lost wakeups alone exceed this bound.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            10LL * kIters)
      << "close() left a parked waiter sleeping out its timeout";
}

TEST(ServeQueue, MpmcStressKeepsEveryItemExactlyOnce) {
  constexpr unsigned kProducers = 4;
  constexpr unsigned kConsumers = 4;
  constexpr std::uint64_t kPerProducer = 2000;
  BoundedQueue q(64);
  std::atomic<std::uint64_t> popped_sum{0};
  std::atomic<std::uint64_t> popped_count{0};

  std::vector<std::thread> threads;
  for (unsigned p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v = p * kPerProducer + i + 1;
        while (q.push_wait(req_with_key(v)) != BoundedQueue::PushResult::kOk) {
        }
      }
    });
  }
  for (unsigned c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      TxRequest out;
      for (;;) {
        if (!q.pop_wait(&out, std::int64_t{2'000'000})) {
          // A timeout is not end of stream: under load every consumer can
          // time out while producers still wait for space. Stop only once
          // the queue is closed and a pop finds it empty.
          if (!q.closed()) continue;
          if (!q.try_pop(&out)) break;
        }
        popped_sum.fetch_add(out.key, std::memory_order_relaxed);
        popped_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (unsigned p = 0; p < kProducers; ++p) threads[p].join();
  q.close();
  for (unsigned c = 0; c < kConsumers; ++c) threads[kProducers + c].join();

  const std::uint64_t n = kProducers * kPerProducer;
  EXPECT_EQ(popped_count.load(), n);
  EXPECT_EQ(popped_sum.load(), n * (n + 1) / 2);
  EXPECT_EQ(q.stats().enqueued, n);
  EXPECT_EQ(q.stats().dequeued, n);
}

// ---- admission policies ----------------------------------------------------

std::vector<unsigned> placements(AdmissionScheduler& s, const std::vector<std::uint64_t>& keys) {
  std::vector<unsigned> out;
  out.reserve(keys.size());
  for (const std::uint64_t k : keys) out.push_back(s.place(req_with_key(k)));
  return out;
}

TEST(ServePolicy, FactoryKnowsEveryAdvertisedName) {
  SchedulerConfig sc;
  sc.n_queues = 4;
  for (const std::string& name : serve::scheduler_names()) {
    auto s = serve::make_scheduler(name, sc);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->name(), name);
    EXPECT_EQ(s->n_queues(), 4u);
    // Placement always stays in range.
    for (std::uint64_t k = 0; k < 100; ++k) {
      EXPECT_LT(s->place(req_with_key(k * 40503u)), 4u) << name;
    }
  }
  EXPECT_THROW(serve::make_scheduler("no-such-policy", sc), std::invalid_argument);
}

TEST(ServePolicy, RoundRobinCyclesAllQueues) {
  SchedulerConfig sc;
  sc.n_queues = 3;
  auto s = serve::make_scheduler("round-robin", sc);
  const auto p = placements(*s, {9, 9, 9, 9, 9, 9});
  // Key-oblivious rotation: every queue hit once per period.
  for (std::size_t i = 0; i + 3 < p.size(); ++i) EXPECT_EQ(p[i], p[i + 3]);
  EXPECT_EQ(std::set<unsigned>(p.begin(), p.end()).size(), 3u);
}

TEST(ServePolicy, PlacementIsDeterministicAcrossInstances) {
  const std::vector<std::uint64_t> keys = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
  SchedulerConfig sc;
  sc.n_queues = 4;
  sc.seed = 0xfeedface;
  for (const std::string& name : serve::scheduler_names()) {
    auto a = serve::make_scheduler(name, sc);
    auto b = serve::make_scheduler(name, sc);
    // Two identically-configured instances place a fixed key stream
    // identically — reproducibility of the fig_serve_scaling sweeps.
    EXPECT_EQ(placements(*a, keys), placements(*b, keys)) << name;
  }
}

TEST(ServePolicy, KeyHashIsStablePerKey) {
  SchedulerConfig sc;
  sc.n_queues = 8;
  auto s = serve::make_scheduler("key-hash", sc);
  for (std::uint64_t k = 0; k < 64; ++k) {
    const unsigned first = s->place(req_with_key(k));
    for (int rep = 0; rep < 4; ++rep) EXPECT_EQ(s->place(req_with_key(k)), first);
  }
}

TEST(ServePolicy, ConflictGraphIsolatesHotKeysAfterFeedback) {
  SchedulerConfig sc;
  sc.n_queues = 8;
  sc.hot_threshold = 0.25;
  sc.hot_lane_fraction = 0.25;  // 2 hot lanes of 8 queues
  auto s = serve::make_scheduler("conflict-graph", sc);

  constexpr std::uint64_t kHot = 42;
  // Cold key, cold system: spreads (round-robin) — placements vary.
  std::set<unsigned> before;
  for (int i = 0; i < 16; ++i) before.insert(s->place(req_with_key(kHot)));
  EXPECT_GT(before.size(), 1u);

  // Workers report the key aborting heavily; its EWMA crosses the hot
  // threshold and the global contention estimate rises with it.
  for (int i = 0; i < 64; ++i) s->on_executed(kHot, 4);

  // Hot key, hot system: pinned into the hot-lane set — one stable queue.
  std::set<unsigned> after;
  for (int i = 0; i < 16; ++i) after.insert(s->place(req_with_key(kHot)));
  EXPECT_EQ(after.size(), 1u);
  EXPECT_LT(*after.begin(), 2u);  // inside the 2 reserved hot lanes
}

TEST(ServePolicy, WindowFrameRotatesWithTheFrameClock) {
  // With a real window CM the schedule rotates: the same key maps to
  // different queues as current_frame advances. Drive the frame forward by
  // committing transactions (static variants derive a synthetic frame from
  // elapsed time; use the dynamic controller for a deterministic hop).
  cm::Params params;
  params.threads = 2;
  params.window_n = 4;
  auto manager = cm::make_manager("Online-Dynamic", params);

  SchedulerConfig sc;
  sc.n_queues = 4;
  sc.manager = manager.get();
  auto s = serve::make_scheduler("window-frame", sc);

  cm::FrameSchedule fs;
  ASSERT_TRUE(manager->frame_schedule(&fs));
  const unsigned q0 = s->place(req_with_key(5));
  // Same frame, same key → same queue (determinism within a frame).
  EXPECT_EQ(s->place(req_with_key(5)), q0);

  // Without a manager the policy degrades to static key-hash placement.
  SchedulerConfig bare;
  bare.n_queues = 4;
  auto fallback = serve::make_scheduler("window-frame", bare);
  const unsigned f0 = fallback->place(req_with_key(5));
  EXPECT_EQ(fallback->place(req_with_key(5)), f0);
}

// ---- worker pool + TxServer lifecycle --------------------------------------

struct CounterCtx {
  stm::TObject<long>* cell = nullptr;
  std::atomic<std::uint64_t> done_calls{0};
  /// Gate for count_done_then_hold: done hooks wait until it reads true.
  std::atomic<bool>* hold = nullptr;
};

std::uint64_t increment_fn(Tx& tx, void* ctx, std::uint64_t) {
  auto* c = static_cast<CounterCtx*>(ctx);
  long& v = *c->cell->open_write(tx);
  v += 1;
  return static_cast<std::uint64_t>(v);
}

void count_done(void* ctx, std::uint64_t, std::uint64_t) {
  static_cast<CounterCtx*>(ctx)->done_calls.fetch_add(1, std::memory_order_relaxed);
}

void count_done_then_hold(void* ctx, std::uint64_t, std::uint64_t) {
  auto* c = static_cast<CounterCtx*>(ctx);
  c->done_calls.fetch_add(1, std::memory_order_acq_rel);
  while (!c->hold->load(std::memory_order_acquire)) std::this_thread::yield();
}

TEST(ServeServer, GracefulStopDrainsEverythingAccepted) {
  cm::Params params;
  params.threads = 4;
  Runtime rt(cm::make_manager("Polka", params));
  stm::TObject<long> cell(0L);
  CounterCtx ctx{&cell, {}};

  serve::ServerConfig cfg;
  cfg.n_workers = 4;
  cfg.queue_capacity = 256;
  cfg.backpressure = Backpressure::kBlock;  // lossless for this test
  TxServer server(rt, cfg);
  server.start();

  constexpr std::uint64_t kRequests = 2000;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    TxRequest r;
    r.fn = increment_fn;
    r.done = count_done;
    r.ctx = &ctx;
    r.key = i % 17;
    ASSERT_EQ(server.submit(r), SubmitResult::kAccepted);
  }
  server.stop();  // closes queues; workers drain the backlog, then exit

  EXPECT_EQ(cell.peek() != nullptr ? *cell.peek() : -1L, static_cast<long>(kRequests));
  EXPECT_EQ(ctx.done_calls.load(), kRequests);
  const TxServer::Stats s = server.stats();
  EXPECT_EQ(s.accepted, kRequests);
  EXPECT_EQ(s.enqueued, kRequests);
  EXPECT_EQ(s.dequeued, kRequests);
  EXPECT_EQ(rt.total_metrics().serve_completed, kRequests);
  // After stop, submits are refused, not queued.
  TxRequest late;
  late.fn = increment_fn;
  late.ctx = &ctx;
  EXPECT_EQ(server.submit(late), SubmitResult::kRejectedStopping);
}

TEST(ServeServer, RejectModeShedsWhenQueuesFill) {
  cm::Params params;
  params.threads = 1;
  Runtime rt(cm::make_manager("Aggressive", params));
  stm::TObject<long> cell(0L);
  CounterCtx ctx{&cell, {}};

  serve::ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.queue_capacity = 4;
  cfg.backpressure = Backpressure::kReject;
  TxServer server(rt, cfg);  // workers not started: queue can only fill

  unsigned accepted = 0, rejected = 0;
  for (int i = 0; i < 64; ++i) {
    TxRequest r;
    r.fn = increment_fn;
    r.ctx = &ctx;
    (server.submit(r) == SubmitResult::kAccepted ? accepted : rejected)++;
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(rejected, 60u);
  EXPECT_EQ(server.stats().rejected_full, 60u);

  server.start();  // drain the 4 queued ones, then stop
  server.stop();
  EXPECT_EQ(rt.total_metrics().serve_completed, 4u);
}

TEST(ServeServer, RuntimeShutdownShedsBacklogAsCancelled) {
  cm::Params params;
  params.threads = 2;
  Runtime rt(cm::make_manager("Polka", params));
  stm::TObject<long> cell(0L);
  CounterCtx ctx{&cell, {}};

  serve::ServerConfig cfg;
  cfg.n_workers = 2;
  cfg.queue_capacity = 4096;
  TxServer server(rt, cfg);
  // Queue a large backlog before any worker runs; round-robin placement
  // gives each worker's queue half of it.
  constexpr std::uint64_t kRequests = 3000;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    TxRequest r;
    r.fn = increment_fn;
    r.done = count_done_then_hold;
    r.ctx = &ctx;
    ASSERT_EQ(server.submit(r), SubmitResult::kAccepted);
  }

  // Each worker commits its first request and then waits inside that
  // request's done hook (which runs after atomically() returned), so the
  // shutdown below lands with both workers idle and nothing else committed.
  std::atomic<bool> released{false};
  ctx.hold = &released;
  server.start();
  while (ctx.done_calls.load(std::memory_order_acquire) < cfg.n_workers) {
    std::this_thread::yield();
  }
  rt.shutdown();  // atomically() now throws RuntimeStoppedError
  released.store(true, std::memory_order_release);
  server.stop();  // must return: workers shed the backlog instead of hanging

  const stm::ThreadMetrics m = rt.total_metrics();
  // Exactly the two held requests committed; every other dequeued request
  // was cancelled — nothing is silently lost and done fires only for the
  // commits.
  EXPECT_EQ(m.serve_dequeued, kRequests);
  EXPECT_EQ(m.serve_completed, 2u);
  EXPECT_EQ(m.serve_cancelled, kRequests - 2);
  EXPECT_EQ(ctx.done_calls.load(), 2u);
  EXPECT_EQ(cell.peek() != nullptr ? *cell.peek() : -1L, 2L);
  // And the server refuses new work once the runtime is stopping.
  TxRequest late;
  late.fn = increment_fn;
  late.ctx = &ctx;
  EXPECT_EQ(server.submit(late), SubmitResult::kRejectedStopping);
}

TEST(ServeServer, ExpiredRequestsAreShedNotExecuted) {
  cm::Params params;
  params.threads = 1;
  Runtime rt(cm::make_manager("Polka", params));
  stm::TObject<long> cell(0L);
  CounterCtx ctx{&cell, {}};

  serve::ServerConfig cfg;
  cfg.n_workers = 1;
  cfg.queue_capacity = 64;
  TxServer server(rt, cfg);  // not started yet

  for (int i = 0; i < 10; ++i) {
    TxRequest r;
    r.fn = increment_fn;
    r.done = count_done;
    r.ctx = &ctx;
    r.deadline_ns = now_ns() - 1;  // already past due
    ASSERT_EQ(server.submit(r), SubmitResult::kAccepted);
  }
  server.start();
  server.stop();

  const stm::ThreadMetrics m = rt.total_metrics();
  EXPECT_EQ(m.serve_expired, 10u);
  EXPECT_EQ(m.serve_completed, 0u);
  EXPECT_EQ(ctx.done_calls.load(), 0u);  // done never fires for shed work
  EXPECT_EQ(cell.peek() != nullptr ? *cell.peek() : -1L, 0L);
}

// ---- end-to-end open loop --------------------------------------------------

TEST(ServeOpenLoop, SmokeAtEightWorkersSustainsLoadAndValidates) {
  auto workload = harness::make_workload("hashtable", 50, 512, 0.8);
  ASSERT_TRUE(workload->open_loop_capable());

  harness::RunConfig run;
  run.threads = 8;
  run.duration_ms = 200;
  run.seed = 7;
  run.pin_threads = false;

  harness::ServeConfig serve_cfg;
  serve_cfg.arrival_rate = 20'000.0;
  serve_cfg.producers = 2;
  serve_cfg.policy = "conflict-graph";
  serve_cfg.queue_capacity = 1024;

  const harness::OpenLoopResult r =
      harness::run_open_loop("Polka", cm::Params{}, *workload, run, serve_cfg);

  EXPECT_TRUE(r.base.valid) << r.base.why;
  EXPECT_GT(r.offered, 0u);
  EXPECT_GT(r.server.accepted, 0u);
  EXPECT_LE(r.server.accepted, r.offered);
  EXPECT_GT(r.base.summary.commits, 0u);
  EXPECT_GT(r.completed_per_s, 0.0);
  // Every accepted request is accounted for: completed, expired (none here
  // — no deadline), or cancelled (none — graceful stop).
  EXPECT_EQ(r.base.totals.serve_completed + r.expired + r.cancelled, r.server.dequeued);
  EXPECT_EQ(r.server.dequeued, r.server.enqueued);
  // Sojourn percentiles came from the reservoir and are ordered.
  EXPECT_GT(r.base.latency_count, 0u);
  EXPECT_LE(r.base.p50_us, r.base.p95_us);
  EXPECT_LE(r.base.p95_us, r.base.p99_us);
}

TEST(ServeOpenLoop, AllPoliciesRunTheSameWorkloadValidly) {
  for (const std::string& policy : serve::scheduler_names()) {
    auto workload = harness::make_workload("hashtable", 50, 256, 0.0);
    harness::RunConfig run;
    run.threads = 4;
    run.duration_ms = 80;
    run.seed = 11;
    run.pin_threads = false;

    harness::ServeConfig serve_cfg;
    serve_cfg.arrival_rate = 10'000.0;
    serve_cfg.policy = policy;

    const harness::OpenLoopResult r =
        harness::run_open_loop("Online", cm::Params{}, *workload, run, serve_cfg);
    EXPECT_TRUE(r.base.valid) << policy << ": " << r.base.why;
    EXPECT_GT(r.base.totals.serve_completed, 0u) << policy;
  }
}

}  // namespace
}  // namespace wstm
