// Per-thread transactional metrics and their aggregation.
//
// Counters are written only by the owning thread (each slot is cache-line
// padded) and read by the harness after the threads have joined, so plain
// non-atomic fields suffice for the hot path except where noted.
//
// Every counter is declared once, in WSTM_THREAD_METRICS. The struct's
// fields, operator+= and the name/value visitor expand that list, and
// everything that prints counters (MetricsSummary::to_string, the bench
// reports' JSON rows) goes through the visitor. Doc comments inside the list
// are block comments: a line comment would swallow the next spliced line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

// X(type, field) for every counter, in declaration order.
#define WSTM_THREAD_METRICS(X)                                                               \
  X(std::uint64_t, commits)                                                                  \
  X(std::uint64_t, aborts)                                                                   \
                                                                                             \
  /* Conflicts seen at open time, by kind (from the opener's perspective). */                \
  X(std::uint64_t, ww_conflicts)                                                             \
  X(std::uint64_t, wr_conflicts)                                                             \
  X(std::uint64_t, rw_conflicts)                                                             \
  /* Conflicts against the same enemy attempt as the previous conflict on                    \
     this thread ("repeat conflicts" — time spent fighting one enemy). */                    \
  X(std::uint64_t, repeat_conflicts)                                                         \
                                                                                             \
  /* Timing, over *timed* logical transactions only: every one when the                       \
     runtime reads the attempt clock anyway (a timestamp-reading manager,                     \
     the liveness layer or a trace recorder), otherwise each thread's first                   \
     and then every Runtime::kTimingSamplePeriod-th (all of its attempts). */                \
  /* Wall time spent in attempts that ended in abort ("wasted work"). */                     \
  X(std::int64_t, wasted_ns)                                                                 \
  /* Wall time spent in attempts that committed. */                                          \
  X(std::int64_t, committed_ns)                                                              \
  /* Sum over timed committed transactions of (commit time - first attempt                    \
     begin): response time, including all retries. */                                        \
  X(std::int64_t, response_ns)                                                               \
  /* Committed transactions that were timed: response_ns's denominator. */                   \
  X(std::uint64_t, timed_commits)                                                            \
  /* Total attempts whose conflict loop waited at least once. */                             \
  X(std::uint64_t, waits)                                                                    \
                                                                                             \
  /* Requester-waits arbitration (src/stm/park.hpp; all 0 in abort mode). */                 \
  /* Parks taken (both real futex-style waits and checker kPark points). */                  \
  X(std::uint64_t, parks)                                                                    \
  /* Wall time spent parked (real mode only — checker parks are virtual). */                 \
  X(std::int64_t, park_ns)                                                                   \
  /* Waiters this thread's status transitions woke (commit/abort/kill). */                   \
  X(std::uint64_t, unparks)                                                                  \
  /* Parks that woke with the enemy still active (site collision, timeout                     \
     slice expiry, or a missed edge degrading to the bounded timeout). */                    \
  X(std::uint64_t, spurious_wakeups)                                                         \
  /* Aborts forced by the deterministic checker's fault injector (a subset                    \
     of `aborts`; always 0 outside checker runs). */                                         \
  X(std::uint64_t, injected_aborts)                                                          \
                                                                                             \
  /* Invisible-read validation; all 0 in visible-read mode. */                               \
  /* Full read-set validation passes executed (each O(R)). */                                \
  X(std::uint64_t, validations)                                                              \
  /* Read-set entries checked across those passes (the real validation                        \
     cost: O(reads * R) without the commit-clock fast path). */                              \
  X(std::uint64_t, validated_reads)                                                          \
  /* Passes that ran because the commit clock advanced past the attempt's                     \
     snapshot (LSA/TL2-style snapshot extension; subset of `validations`). */                \
  X(std::uint64_t, extensions)                                                               \
  /* Validation passes skipped by the snapshot fast path (clock unchanged). */               \
  X(std::uint64_t, validations_skipped)                                                      \
  /* Estimated time saved by skipped passes (skips x EWMA of measured                         \
     extension-pass cost; 0 until the first extension pass calibrates it). */                \
  X(std::int64_t, validation_saved_ns)                                                       \
  /* Re-opens of an object already in the read set (deduplicated, not                        \
     appended — without dedup R becomes the read *count*). */                                \
  X(std::uint64_t, dup_reads)                                                                \
                                                                                             \
  /* Shared-line contention (see DESIGN.md §11). These separate "how often a                  \
     thread wrote a process-wide cache line" from "how often it wanted to". */               \
  /* Writes to the shared commit-clock line: one per orec write-commit; on                    \
     DSTM (invisible reads) only the extension-path CAS advances — the                        \
     whole point of GV5-style deferral. */                                                   \
  X(std::uint64_t, clock_bumps)                                                              \
  /* DSTM write-commits (invisible reads) that stamped `clock+1` into their                   \
     descriptor without touching the shared clock line. */                                   \
  X(std::uint64_t, deferred_stamps)                                                          \
  /* Snapshot establishments retried or refused because a commit completed                    \
     mid-scan (the deferred clock's interference rule; see DESIGN.md §11). */                \
  X(std::uint64_t, snapshot_interference)                                                    \
  /* Failed CAS iterations on the striped visible-reader records: the                         \
     residual announce/clear contention the stripes exist to spread. */                      \
  X(std::uint64_t, reader_stripe_retries)                                                    \
  /* Cross-shard EBR epoch syncs (full-domain scans that advanced the                         \
     epoch) triggered by this thread's retires. */                                           \
  X(std::uint64_t, ebr_shard_syncs)                                                          \
                                                                                             \
  /* Orec backend (src/stm/orec/); all 0 under the DSTM engine. The shared                    \
     validation counters above (validations, validated_reads, extensions,                     \
     dup_reads, clock_bumps) are reused with the same meaning. */                            \
  /* Orec write-locks successfully acquired at commit time. */                               \
  X(std::uint64_t, orec_lock_acquires)                                                       \
  /* Lock-acquire iterations that found the orec held by an active enemy                      \
     (each one is a CM-arbitrated write-write conflict). */                                  \
  X(std::uint64_t, orec_lock_waits)                                                          \
  /* Redo-log entries written back under lock by committed transactions. */                  \
  X(std::uint64_t, orec_write_backs)                                                         \
                                                                                             \
  /* Liveness layer (src/resilience/); all 0 unless the watchdog/escalation                   \
     ladder or chaos injection is enabled on the RuntimeConfig. */                           \
  /* Attempts that started at escalation level >= 1 (backoff or above). */                   \
  X(std::uint64_t, escalations)                                                              \
  /* Attempts that ran irrevocably under the serial-fallback token. */                       \
  X(std::uint64_t, serial_fallbacks)                                                         \
  /* Logical transactions abandoned with TxTimeoutError. */                                  \
  X(std::uint64_t, timeouts)                                                                 \
  /* Watchdog detections (storm/stall episodes) collected by this thread. */                 \
  X(std::uint64_t, watchdog_flags)                                                           \
  /* Chaos faults suffered by this thread (stalls, spurious aborts, delays,                   \
     EBR pressure bursts). */                                                                \
  X(std::uint64_t, chaos_faults)                                                             \
                                                                                             \
  /* Serving front-end (src/serve/), counted by worker threads; all 0 in                      \
     closed-loop runs. */                                                                    \
  /* Requests this worker pulled off a submit queue. */                                      \
  X(std::uint64_t, serve_dequeued)                                                           \
  /* Requests that committed (the only ones whose `done` hook ran). */                       \
  X(std::uint64_t, serve_completed)                                                          \
  /* Requests shed at dequeue because their deadline had already passed. */                  \
  X(std::uint64_t, serve_expired)                                                            \
  /* Requests that completed, but after their deadline. */                                   \
  X(std::uint64_t, serve_deadline_misses)                                                    \
  /* Requests dropped because the runtime was shutting down. */                              \
  X(std::uint64_t, serve_cancelled)                                                          \
  /* Submit-to-dequeue wall time summed over dequeued requests. */                           \
  X(std::int64_t, serve_queue_wait_ns)

namespace wstm::stm {

/// Counters for one thread. Reset between measurement phases.
struct ThreadMetrics {
#define WSTM_METRICS_FIELD(type, field) type field = 0;
  WSTM_THREAD_METRICS(WSTM_METRICS_FIELD)
#undef WSTM_METRICS_FIELD

#define WSTM_METRICS_COUNT(type, field) +1
  static constexpr std::size_t kCounters = 0 WSTM_THREAD_METRICS(WSTM_METRICS_COUNT);
#undef WSTM_METRICS_COUNT

  void reset() { *this = ThreadMetrics{}; }

  ThreadMetrics& operator+=(const ThreadMetrics& other) {
#define WSTM_METRICS_ADD(type, field) field += other.field;
    WSTM_THREAD_METRICS(WSTM_METRICS_ADD)
#undef WSTM_METRICS_ADD
    return *this;
  }

  /// Calls f(name, field) for every counter in declaration order; `name` is
  /// the field's identifier.
  template <typename F>
  void visit(F&& f) {
#define WSTM_METRICS_VISIT(type, field) f(#field, field);
    WSTM_THREAD_METRICS(WSTM_METRICS_VISIT)
  }
  template <typename F>
  void visit(F&& f) const {
    WSTM_THREAD_METRICS(WSTM_METRICS_VISIT)
#undef WSTM_METRICS_VISIT
  }
};

// A field declared outside WSTM_THREAD_METRICS would escape +=, the visitor
// and every report.
static_assert(sizeof(ThreadMetrics) == ThreadMetrics::kCounters * sizeof(std::uint64_t),
              "every ThreadMetrics field must be a 64-bit counter in WSTM_THREAD_METRICS");

/// Derived quantities the paper reports.
struct MetricsSummary {
  double throughput_per_s = 0.0;     // commits / elapsed seconds
  double aborts_per_commit = 0.0;    // Fig. 4's metric
  double wasted_fraction = 0.0;      // wasted / (wasted + committed) time
  double mean_response_us = 0.0;     // mean response time of timed commits
  double repeat_conflicts_per_commit = 0.0;  // paper §IV "repeat conflicts"
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;

  /// The derived values on one line, followed by every nonzero counter of
  /// `totals` as name=value.
  std::string to_string(const ThreadMetrics& totals) const;
};

/// Summarizes a totals struct over an elapsed wall-clock duration.
MetricsSummary summarize(const ThreadMetrics& totals, std::int64_t elapsed_ns);

}  // namespace wstm::stm
