// Per-thread transactional metrics and their aggregation.
//
// Counters are written only by the owning thread (each slot is cache-line
// padded) and read by the harness after the threads have joined, so plain
// non-atomic fields suffice for the hot path except where noted.
#pragma once

#include <cstdint>
#include <string>

namespace wstm::stm {

/// Counters for one thread. Reset between measurement phases.
struct ThreadMetrics {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;

  // Conflicts seen at open time, by kind (from the opener's perspective).
  std::uint64_t ww_conflicts = 0;
  std::uint64_t wr_conflicts = 0;
  std::uint64_t rw_conflicts = 0;
  /// Conflicts against the same enemy attempt as the previous conflict on
  /// this thread ("repeat conflicts" — time spent fighting one enemy).
  std::uint64_t repeat_conflicts = 0;

  /// Wall time spent in attempts that ended in abort ("wasted work").
  std::int64_t wasted_ns = 0;
  /// Wall time spent in attempts that committed.
  std::int64_t committed_ns = 0;
  /// Sum over committed transactions of (commit time - first attempt begin):
  /// response time, including all retries.
  std::int64_t response_ns = 0;
  /// Total attempts whose conflict loop waited at least once.
  std::uint64_t waits = 0;

  // Requester-waits arbitration (src/stm/park.hpp; all 0 in abort mode).
  /// Parks taken (both real futex-style waits and checker kPark points).
  std::uint64_t parks = 0;
  /// Wall time spent parked (real mode only — checker parks are virtual).
  std::int64_t park_ns = 0;
  /// Waiters this thread's status transitions woke (commit/abort/kill).
  std::uint64_t unparks = 0;
  /// Parks that woke with the enemy still active (site collision, timeout
  /// slice expiry, or a missed edge degrading to the bounded timeout).
  std::uint64_t spurious_wakeups = 0;
  /// Aborts forced by the deterministic checker's fault injector (a subset
  /// of `aborts`; always 0 outside checker runs).
  std::uint64_t injected_aborts = 0;

  // Invisible-read validation; all 0 in visible-read mode.
  /// Full read-set validation passes executed (each O(R)).
  std::uint64_t validations = 0;
  /// Read-set entries checked across those passes (the real validation
  /// cost: O(reads * R) without the commit-clock fast path).
  std::uint64_t validated_reads = 0;
  /// Passes that ran because the commit clock advanced past the attempt's
  /// snapshot (LSA/TL2-style snapshot extension; subset of `validations`).
  std::uint64_t extensions = 0;
  /// Validation passes skipped by the snapshot fast path (clock unchanged).
  std::uint64_t validations_skipped = 0;
  /// Estimated time saved by skipped passes (skips x EWMA of measured
  /// extension-pass cost; 0 until the first extension pass calibrates it).
  std::int64_t validation_saved_ns = 0;
  /// Re-opens of an object already in the read set (deduplicated, not
  /// appended — without dedup R becomes the read *count*).
  std::uint64_t dup_reads = 0;

  // Shared-line contention (see DESIGN.md §11). These separate "how often a
  // thread wrote a process-wide cache line" from "how often it wanted to".
  /// Writes to the shared commit-clock line: one per orec write-commit; on
  /// DSTM (invisible reads) only the extension-path CAS advances — the
  /// whole point of GV5-style deferral.
  std::uint64_t clock_bumps = 0;
  /// DSTM write-commits (invisible reads) that stamped `clock+1` into their
  /// descriptor without touching the shared clock line.
  std::uint64_t deferred_stamps = 0;
  /// Snapshot establishments retried or refused because a commit completed
  /// mid-scan (the deferred clock's interference rule; see DESIGN.md §11).
  std::uint64_t snapshot_interference = 0;
  /// Failed CAS iterations on the striped visible-reader records: the
  /// residual announce/clear contention the stripes exist to spread.
  std::uint64_t reader_stripe_retries = 0;
  /// Cross-shard EBR epoch syncs (full-domain scans that advanced the
  /// epoch) triggered by this thread's retires.
  std::uint64_t ebr_shard_syncs = 0;

  // Orec backend (src/stm/orec/); all 0 under the DSTM engine. The shared
  // validation counters above (validations, validated_reads, extensions,
  // dup_reads, clock_bumps) are reused with the same meaning.
  /// Orec write-locks successfully acquired at commit time.
  std::uint64_t orec_lock_acquires = 0;
  /// Lock-acquire iterations that found the orec held by an active enemy
  /// (each one is a CM-arbitrated write-write conflict).
  std::uint64_t orec_lock_waits = 0;
  /// Redo-log entries written back under lock by committed transactions.
  std::uint64_t orec_write_backs = 0;

  // Liveness layer (src/resilience/); all 0 unless the watchdog/escalation
  // ladder or chaos injection is enabled on the RuntimeConfig.
  /// Attempts that started at escalation level >= 1 (backoff or above).
  std::uint64_t escalations = 0;
  /// Attempts that ran irrevocably under the serial-fallback token.
  std::uint64_t serial_fallbacks = 0;
  /// Logical transactions abandoned with TxTimeoutError.
  std::uint64_t timeouts = 0;
  /// Watchdog detections (storm/stall episodes) collected by this thread.
  std::uint64_t watchdog_flags = 0;
  /// Chaos faults suffered by this thread (stalls, spurious aborts, delays,
  /// EBR pressure bursts).
  std::uint64_t chaos_faults = 0;

  // Serving front-end (src/serve/), counted by worker threads; all 0 in
  // closed-loop runs.
  /// Requests this worker pulled off a submit queue.
  std::uint64_t serve_dequeued = 0;
  /// Requests that committed (the only ones whose `done` hook ran).
  std::uint64_t serve_completed = 0;
  /// Requests shed at dequeue because their deadline had already passed.
  std::uint64_t serve_expired = 0;
  /// Requests that completed, but after their deadline.
  std::uint64_t serve_deadline_misses = 0;
  /// Requests dropped because the runtime was shutting down.
  std::uint64_t serve_cancelled = 0;
  /// Submit-to-dequeue wall time summed over dequeued requests.
  std::int64_t serve_queue_wait_ns = 0;

  void reset() { *this = ThreadMetrics{}; }

  ThreadMetrics& operator+=(const ThreadMetrics& other) {
    commits += other.commits;
    aborts += other.aborts;
    ww_conflicts += other.ww_conflicts;
    wr_conflicts += other.wr_conflicts;
    rw_conflicts += other.rw_conflicts;
    repeat_conflicts += other.repeat_conflicts;
    wasted_ns += other.wasted_ns;
    committed_ns += other.committed_ns;
    response_ns += other.response_ns;
    waits += other.waits;
    parks += other.parks;
    park_ns += other.park_ns;
    unparks += other.unparks;
    spurious_wakeups += other.spurious_wakeups;
    injected_aborts += other.injected_aborts;
    validations += other.validations;
    validated_reads += other.validated_reads;
    extensions += other.extensions;
    validations_skipped += other.validations_skipped;
    validation_saved_ns += other.validation_saved_ns;
    dup_reads += other.dup_reads;
    clock_bumps += other.clock_bumps;
    deferred_stamps += other.deferred_stamps;
    snapshot_interference += other.snapshot_interference;
    reader_stripe_retries += other.reader_stripe_retries;
    ebr_shard_syncs += other.ebr_shard_syncs;
    orec_lock_acquires += other.orec_lock_acquires;
    orec_lock_waits += other.orec_lock_waits;
    orec_write_backs += other.orec_write_backs;
    escalations += other.escalations;
    serial_fallbacks += other.serial_fallbacks;
    timeouts += other.timeouts;
    watchdog_flags += other.watchdog_flags;
    chaos_faults += other.chaos_faults;
    serve_dequeued += other.serve_dequeued;
    serve_completed += other.serve_completed;
    serve_expired += other.serve_expired;
    serve_deadline_misses += other.serve_deadline_misses;
    serve_cancelled += other.serve_cancelled;
    serve_queue_wait_ns += other.serve_queue_wait_ns;
    return *this;
  }
};

/// Derived quantities the paper reports.
struct MetricsSummary {
  double throughput_per_s = 0.0;     // commits / elapsed seconds
  double aborts_per_commit = 0.0;    // Fig. 4's metric
  double wasted_fraction = 0.0;      // wasted / (wasted + committed) time
  double mean_response_us = 0.0;     // mean committed response time
  double repeat_conflicts_per_commit = 0.0;  // paper §IV "repeat conflicts"
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;

  // Shared-line contention totals (DESIGN.md §11); all zero when the
  // relevant subsystem is off, and then omitted from to_string().
  std::uint64_t clock_bumps = 0;
  std::uint64_t deferred_stamps = 0;
  std::uint64_t snapshot_interference = 0;
  std::uint64_t reader_stripe_retries = 0;
  std::uint64_t ebr_shard_syncs = 0;

  // Orec-backend totals; zero (and omitted from to_string()) under DSTM.
  std::uint64_t orec_lock_acquires = 0;
  std::uint64_t orec_lock_waits = 0;
  std::uint64_t orec_write_backs = 0;

  // Requester-waits arbitration totals; zero (and omitted from to_string())
  // in abort mode.
  std::uint64_t parks = 0;
  std::int64_t park_ns = 0;
  std::uint64_t unparks = 0;
  std::uint64_t spurious_wakeups = 0;

  std::string to_string() const;
};

/// Summarizes a totals struct over an elapsed wall-clock duration.
MetricsSummary summarize(const ThreadMetrics& totals, std::int64_t elapsed_ns);

}  // namespace wstm::stm
