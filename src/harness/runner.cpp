#include "harness/runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "trace/recorder.hpp"
#include "trace/sink.hpp"
#include "util/affinity.hpp"
#include "util/stats.hpp"
#include "util/timing.hpp"

namespace wstm::harness {

RunResult run_workload(const std::string& cm_name, cm::Params cm_params, Workload& workload,
                       const RunConfig& run) {
  cm_params.threads = run.threads;
  cm_params.requester_waits = run.runtime.arbitration == stm::ArbitrationMode::kWait;
  stm::RuntimeConfig rt_config = run.runtime;
  rt_config.seed = run.seed;

  // The recorder outlives the Runtime (the config holds a raw pointer).
  std::unique_ptr<trace::Recorder> recorder;
  if (!run.trace_path.empty()) {
    trace::Recorder::Options opts;
    opts.threads = run.threads;
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
  if (recorder) recorder->clear();  // populate is not part of the measured run

  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> committed{0};
  // Per-operation latency: every worker samples into one shared bounded
  // reservoir, so percentile reporting costs fixed memory however long the
  // run is (two clock reads + a fetch_add per operation).
  LatencyReservoir latency(4096, run.seed);

  // An exception escaping a worker used to std::terminate the whole
  // benchmark; instead each worker records its error here (slot i), the
  // cell fails with a readable report, and the other workers wind down.
  std::vector<std::string> worker_errors(run.threads);

  std::vector<std::thread> workers;
  workers.reserve(run.threads);
  for (std::uint32_t i = 0; i < run.threads; ++i) {
    workers.emplace_back([&, i] {
      if (run.pin_threads) pin_current_thread(i);
      stm::ThreadCtx& tc = rt.attach_thread();
      Xoshiro256 rng(run.seed * 0x9e3779b97f4a7c15ULL + i + 0xabcd);
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      try {
        while (!stop.load(std::memory_order_acquire)) {
          const std::int64_t op_begin = now_ns();
          workload.run_one(rt, tc, rng);
          latency.record(now_ns() - op_begin);
          // Relaxed: `committed` is a pure tally — nothing is published
          // through it (the RMW total order alone guarantees exactly the
          // fixed_commits-th increment crosses the threshold), and the
          // shutdown handshake is carried by the release store / acquire
          // loads on `stop`, not by this counter.
          if (run.fixed_commits > 0 &&
              committed.fetch_add(1, std::memory_order_relaxed) + 1 >= run.fixed_commits) {
            stop.store(true, std::memory_order_release);
          }
        }
      } catch (const resilience::TxTimeoutError& e) {
        worker_errors[i] = std::string("TxTimeoutError: ") + e.what();
      } catch (const std::exception& e) {
        worker_errors[i] = e.what();
      } catch (...) {
        worker_errors[i] = "unknown exception escaped the workload";
      }
      if (!worker_errors[i].empty()) stop.store(true, std::memory_order_release);
      // ThreadCtx stays attached so the runtime can aggregate its metrics;
      // Runtime teardown detaches it.
    });
  }

  const std::int64_t begin = now_ns();
  start.store(true, std::memory_order_release);
  if (run.fixed_commits == 0) {
    // Sleep, not yield: a spinning controller is one more runnable thread
    // than the M workers. Slices of at most 1 ms still notice a worker's
    // early stop (an escaped exception) promptly.
    const std::int64_t deadline = begin + run.duration_ms * 1'000'000;
    for (std::int64_t now = now_ns(); now < deadline && !stop.load(std::memory_order_acquire);
         now = now_ns()) {
      std::this_thread::sleep_for(Nanos(std::min<std::int64_t>(deadline - now, 1'000'000)));
    }
    stop.store(true, std::memory_order_release);
  }
  for (auto& w : workers) w.join();
  const std::int64_t elapsed = now_ns() - begin;

  RunResult result;
  for (std::uint32_t i = 0; i < run.threads; ++i) {
    if (worker_errors[i].empty()) continue;
    result.thread_errors.push_back("thread " + std::to_string(i) + ": " + worker_errors[i]);
  }
  if (!result.thread_errors.empty()) {
    result.valid = false;
    std::string report = std::to_string(result.thread_errors.size()) +
                         " worker thread(s) died on an exception";
    for (const std::string& e : result.thread_errors) report += "\n  " + e;
    result.why = report;
  }
  detail::finish_run(result, rt, elapsed, run, workload, latency, recorder.get());
  return result;
}

namespace detail {

void finish_run(RunResult& result, stm::Runtime& rt, std::int64_t elapsed_ns,
                const RunConfig& run, Workload& workload, const LatencyReservoir& latency,
                trace::Recorder* recorder) {
  result.totals = rt.total_metrics();
  result.elapsed_ns = elapsed_ns;
  result.summary = stm::summarize(result.totals, elapsed_ns);
  if (const resilience::LivenessManager* lm = rt.liveness()) {
    result.liveness_stats = lm->stats();
  }
  result.p50_us = latency.percentile_ns(50) / 1e3;
  result.p95_us = latency.percentile_ns(95) / 1e3;
  result.p99_us = latency.percentile_ns(99) / 1e3;
  result.latency_count = latency.count();
  const auto fail = [&](const std::string& why) {
    result.valid = false;
    result.why = result.why.empty() ? why : result.why + "; " + why;
  };
  if (run.validate) {
    std::string why;
    if (!workload.validate(&why)) fail(why);
  }
  if (recorder != nullptr) {
    // Workers are joined, so drain_sorted() sees every ring quiescent.
    try {
      if (!trace::write_trace_file(run.trace_path, recorder->drain_sorted())) {
        throw std::runtime_error("cannot write trace file " + run.trace_path);
      }
    } catch (const std::exception& e) {
      fail(e.what());
    }
  }
}

}  // namespace detail

Cell repeat(const RunConfig& run, unsigned repetitions,
            const std::function<RunResult(const RunConfig&)>& run_once) {
  Cell cell;
  for (unsigned i = 0; i < repetitions; ++i) {
    RunConfig cfg = run;
    cfg.seed = run.seed + i * 7919;
    if (!run.trace_path.empty() && repetitions > 1) {
      cfg.trace_path = trace::path_with_suffix(run.trace_path, "-r" + std::to_string(i));
    }
    cell.push_back(run_once(cfg));
  }
  return cell;
}

stm::ThreadMetrics sum_totals(const Cell& cell) {
  stm::ThreadMetrics sum;
  for (const RunResult& r : cell) sum += r.totals;
  return sum;
}

bool cell_valid(const Cell& cell, std::string* why) {
  bool valid = true;
  for (const RunResult& r : cell) {
    if (r.valid) continue;
    valid = false;
    if (why != nullptr) *why = r.why;
  }
  return valid;
}

}  // namespace wstm::harness
