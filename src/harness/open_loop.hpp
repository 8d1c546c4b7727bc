// Open-loop experiment driver: Poisson arrivals served through TxServer.
//
// The closed-loop runner (runner.cpp) measures capacity — M threads retry
// as fast as they can, so offered load always equals completion rate. An
// open-loop run decouples them: producer threads submit requests at a fixed
// arrival rate regardless of how fast the system drains, which is how real
// traffic behaves and the only way to observe queueing delay, shed load,
// and the saturation point. Below saturation, completion rate tracks the
// arrival rate and latency is flat; past it, queues fill, the backpressure
// policy sheds requests, and p99 explodes — fig_serve_scaling sweeps the
// rate to chart exactly that transition per admission policy.
//
// Arrival gaps are exponential (rate λ split evenly over the producers),
// giving the memoryless bursts that distinguish an open-loop experiment
// from a metered closed loop.
#pragma once

#include <cstdint>
#include <string>

#include "harness/runner.hpp"

namespace wstm::harness {

struct ServeConfig {
  /// Total arrival rate, requests/second, across all producers.
  double arrival_rate = 100'000.0;
  unsigned producers = 1;
  std::string policy = "round-robin";
  /// 0 = one queue per worker.
  unsigned n_queues = 0;
  std::size_t queue_capacity = 1024;
  /// Relative deadline per request; 0 = none. Queued requests past it are
  /// shed, completed ones past it count as misses.
  std::int64_t deadline_ms = 0;
  /// Full queue: shed (reject, the open-loop default — a blocked producer
  /// would turn the experiment back into a closed loop) or block.
  serve::Backpressure backpressure = serve::Backpressure::kReject;
  /// Idle workers steal from other queues (see worker_pool.hpp).
  bool steal = false;
};

/// Open-loop counterpart of run_workload: builds the runtime (threads =
/// run.threads workers) and a TxServer with `serve.policy`, then drives it
/// with Poisson arrivals for run.duration_ms. The record's throughput is
/// completed requests/s, its percentiles are sojourn times, and its open-loop
/// fields are filled. The workload must be open_loop_capable(); throws
/// std::invalid_argument otherwise.
RunResult run_open_loop(const std::string& cm_name, cm::Params cm_params, Workload& workload,
                        const RunConfig& run, const ServeConfig& serve);

}  // namespace wstm::harness
