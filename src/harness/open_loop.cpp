#include "harness/open_loop.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "trace/recorder.hpp"
#include "util/stats.hpp"
#include "util/timing.hpp"

namespace wstm::harness {

namespace {

/// Hybrid wait until absolute time `when`: sleep for the bulk, spin the
/// last stretch so arrival timing stays tight at high rates.
void wait_until_ns(std::int64_t when) {
  for (;;) {
    const std::int64_t now = now_ns();
    if (now >= when) return;
    const std::int64_t left = when - now;
    if (left > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(left - 100'000));
    } else {
      std::this_thread::yield();
    }
  }
}

}  // namespace

RunResult run_open_loop(const std::string& cm_name, cm::Params cm_params, Workload& workload,
                        const RunConfig& run, const ServeConfig& serve) {
  if (!workload.open_loop_capable()) {
    throw std::invalid_argument("workload '" + workload.name() +
                                "' cannot run open-loop (no request support)");
  }
  if (serve.arrival_rate <= 0.0) throw std::invalid_argument("arrival_rate must be > 0");
  const unsigned producers = serve.producers == 0 ? 1 : serve.producers;

  cm_params.threads = run.threads;
  cm_params.requester_waits = run.runtime.arbitration == stm::ArbitrationMode::kWait;
  stm::RuntimeConfig rt_config = run.runtime;
  rt_config.seed = run.seed;

  std::unique_ptr<trace::Recorder> recorder;
  if (!run.trace_path.empty()) {
    trace::Recorder::Options opts;
    const unsigned rings = run.threads + producers + 1;  // workers + producers + populate
    opts.threads = rings > stm::kMaxThreads ? stm::kMaxThreads : rings;
    opts.capacity_per_thread = run.trace_events_per_thread;
    recorder = std::make_unique<trace::Recorder>(opts);
    rt_config.recorder = recorder.get();
  }
  stm::Runtime rt(cm::make_manager(cm_name, cm_params), rt_config);

  {
    stm::ThreadCtx& main_tc = rt.attach_thread();
    workload.populate(rt, main_tc);
    rt.detach_thread(main_tc);
  }
  rt.reset_metrics();
  if (recorder) recorder->clear();

  LatencyReservoir latency(4096, run.seed);

  serve::ServerConfig server_config;
  server_config.n_workers = run.threads;
  server_config.n_queues = serve.n_queues;
  server_config.queue_capacity = serve.queue_capacity;
  server_config.backpressure = serve.backpressure;
  server_config.policy = serve.policy;
  server_config.seed = run.seed;
  server_config.worker.steal = serve.steal;
  server_config.worker.latency = &latency;
  server_config.worker.recorder = recorder.get();
  serve::TxServer server(rt, server_config);
  server.start();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> offered{0};
  const double rate_per_producer = serve.arrival_rate / producers;
  const std::int64_t deadline_rel_ns = serve.deadline_ms * 1'000'000;

  std::vector<std::thread> producer_threads;
  producer_threads.reserve(producers);
  const std::int64_t begin = now_ns();
  for (unsigned p = 0; p < producers; ++p) {
    producer_threads.emplace_back([&, p] {
      // A producer attaches only when tracing, to give kEnqueue a ring slot.
      unsigned slot = serve::TxServer::kNoProducerSlot;
      stm::ThreadCtx* tc = nullptr;
      if (recorder) {
        tc = &rt.attach_thread();
        slot = tc->slot();
      }
      Xoshiro256 rng(run.seed * 0x9e3779b97f4a7c15ULL + p + 0x0feed);
      std::int64_t next = begin;
      while (!stop.load(std::memory_order_acquire)) {
        // Exponential inter-arrival gap: memoryless Poisson stream. When
        // the producer falls behind schedule it submits immediately,
        // preserving the open-loop property that load does not slow down
        // because the system did.
        const double gap = -std::log(1.0 - rng.uniform01()) * 1e9 / rate_per_producer;
        next += static_cast<std::int64_t>(gap);
        if (next > now_ns()) wait_until_ns(next);
        serve::TxRequest req = workload.build_request(rng);
        if (deadline_rel_ns > 0) req.deadline_ns = now_ns() + deadline_rel_ns;
        offered.fetch_add(1, std::memory_order_relaxed);
        server.submit(req, slot);
      }
      if (tc != nullptr) rt.detach_thread(*tc);
    });
  }

  wait_until_ns(begin + run.duration_ms * 1'000'000);
  stop.store(true, std::memory_order_release);
  for (auto& t : producer_threads) t.join();
  const std::int64_t produce_window = now_ns() - begin;

  server.stop();  // closes queues; workers drain the backlog, then join
  const std::int64_t elapsed = now_ns() - begin;

  RunResult result;
  detail::finish_run(result, rt, elapsed, run, workload, latency, recorder.get());
  result.server = server.stats();
  result.offered = offered.load(std::memory_order_relaxed);
  const double window_s = ns_to_s(produce_window);
  const double elapsed_s = ns_to_s(elapsed);
  if (window_s > 0) {
    result.offered_per_s = static_cast<double>(result.offered) / window_s;
    result.accepted_per_s = static_cast<double>(result.server.accepted) / window_s;
  }
  result.summary.throughput_per_s =
      elapsed_s > 0 ? static_cast<double>(result.totals.serve_completed) / elapsed_s : 0.0;
  return result;
}

}  // namespace wstm::harness
