// The experiment runner: executes a workload on M worker threads under a
// chosen contention manager and reports the paper's metrics.
//
// Two stop conditions cover all figures:
//  * timed run (`duration_ms`)           — Figs. 2, 3, 4 (throughput,
//    aborts/commit over a fixed wall-clock interval);
//  * fixed commit count (`fixed_commits`) — Fig. 5 (total time to commit
//    20 000 transactions).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cm/registry.hpp"
#include "harness/workload.hpp"
#include "resilience/liveness.hpp"
#include "serve/server.hpp"
#include "stm/metrics.hpp"
#include "stm/runtime.hpp"

namespace wstm {
class LatencyReservoir;
}
namespace wstm::trace {
class Recorder;
}

namespace wstm::harness {

struct RunConfig {
  std::uint32_t threads = 4;  // M
  std::int64_t duration_ms = 1000;
  /// When > 0, ignore duration and run until this many transactions
  /// committed across all threads.
  std::uint64_t fixed_commits = 0;
  std::uint64_t seed = 42;
  bool pin_threads = true;
  /// Validate the workload after the run (strongly recommended; adds a
  /// quiescent pass over the structure).
  bool validate = true;
  /// Runtime settings: engine, arbitration mode (wait mode also switches
  /// the manager's requester_waits on), read mode, liveness layer, chaos.
  /// The runner overrides `seed` with the run's seed above and `recorder`
  /// per `trace_path`.
  stm::RuntimeConfig runtime;
  /// When non-empty, record transaction events during the measured interval
  /// and write them here after the run: Chrome trace_event JSON if the path
  /// ends in ".json", the compact binary format otherwise (read it back
  /// with trace::read_binary or the wstm-trace CLI).
  std::string trace_path;
  /// Ring capacity per thread (rounded up to a power of two); when the ring
  /// overflows the oldest events are dropped.
  std::size_t trace_events_per_thread = std::size_t{1} << 16;
};

/// The one record of a run, closed or open loop. Tables and bench reports
/// are views of these records (harness/report.hpp).
struct RunResult {
  stm::ThreadMetrics totals;
  std::int64_t elapsed_ns = 0;
  /// summarize(totals, elapsed_ns), except that an open-loop run's
  /// throughput counts completed requests (totals.serve_completed).
  stm::MetricsSummary summary;
  /// Per-operation latency percentiles from a bounded-memory reservoir
  /// (util::LatencyReservoir): closed loop samples run_one wall time,
  /// open loop samples submit-to-completion sojourn. 0 without samples.
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  /// Operations offered to the reservoir (not just the ones retained).
  std::uint64_t latency_count = 0;
  bool valid = true;
  std::string why;
  /// One entry per worker thread that died on an exception (formatted
  /// "thread N: what"). Non-empty implies !valid.
  std::vector<std::string> thread_errors;
  /// Snapshot of the liveness manager's counters (token acquisitions,
  /// watchdog detections); all zero when the liveness layer was off.
  resilience::LivenessManager::Stats liveness_stats;

  // Open-loop runs only (harness/open_loop.hpp); zero in the closed loop.
  serve::TxServer::Stats server;
  std::uint64_t offered = 0;     ///< submit() calls
  double offered_per_s = 0.0;    ///< submit() calls per second of the production window
  double accepted_per_s = 0.0;   ///< accepted into a queue per second of that window
};

/// The records of one sweep cell, one per repetition.
using Cell = std::vector<RunResult>;

/// Builds a fresh Runtime with `cm_name` (threads taken from `run`),
/// populates `workload`, runs it, validates, and returns the metrics.
/// The measured interval excludes populate and teardown.
RunResult run_workload(const std::string& cm_name, cm::Params cm_params, Workload& workload,
                       const RunConfig& run);

/// Runs `run_once` `repetitions` times: run i gets seed run.seed + i * 7919
/// and, when repeated, a "-r<i>" suffix on its trace path.
Cell repeat(const RunConfig& run, unsigned repetitions,
            const std::function<RunResult(const RunConfig&)>& run_once);

/// Every counter summed over the cell's runs.
stm::ThreadMetrics sum_totals(const Cell& cell);

/// Whether every run of `cell` validated; if not, `why` (when given) gets
/// the reason of the last run that did not.
bool cell_valid(const Cell& cell, std::string* why = nullptr);

namespace detail {
/// The tail both runners share once the workers joined: fills the record's
/// counters, summary, liveness snapshot and latency percentiles, validates
/// the workload and writes the trace file. A failure appends to `why`.
void finish_run(RunResult& result, stm::Runtime& rt, std::int64_t elapsed_ns,
                const RunConfig& run, Workload& workload, const LatencyReservoir& latency,
                trace::Recorder* recorder);
}  // namespace detail

}  // namespace wstm::harness

