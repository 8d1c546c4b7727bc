#!/usr/bin/env python3
"""Gate on microbench JSON output (Google Benchmark --benchmark_out).

Modes:

* --mode alloc (default, BENCH_micro.json): the pooled hot path must be
  allocation-free in steady state. `BM_AllocPressureWriteTx` reports
  global-allocator calls per transaction attempt via the interposed
  operator new; anything above the threshold means a TxDesc/Locator/clone/
  EBR-chunk slipped back onto the global allocator.

* --mode readval (BENCH_readval.json): invisible-read validation must stay
  amortized O(1) per open. The `BM_ReadSetScaling/<R>` rows report read-set
  entries validated per open; anything above the threshold means opens
  regressed toward revalidating the whole read set on every open.

* --mode clock (BENCH_clock.json): the attempt clock is read only where
  something consumes it. micro_stm interposes clock_gettime and reports
  CLOCK_MONOTONIC reads per transaction on the fixed-cost rows
  (`BM_EmptyTransaction`, `BM_ReadOneObject`, `BM_WriteOneObject`, each
  /dstm, /orec and /dstm_greedy). Polka reads no attempt timestamp, so its
  rows (/dstm, /orec) may read only for the 1-in-64 metrics sample: at most
  0.05 per transaction (a fixed bound, not an option). Two self-checks keep
  that clause from passing vacuously: `BM_NowNs` must count one read per
  now_ns() call (the interposer sees the library's clock), and the Greedy
  rows, which arbitrate on the first attempt's timestamp, must still read
  at least once per transaction. The same rows report publishes_per_tx,
  how often a transaction publishes its descriptor: the unexposed orec
  rows (`BM_EmptyTransaction/orec`, `BM_ReadOneObject/orec`) must publish
  never, and the rows that must publish every time (each /dstm and
  /dstm_greedy row, `BM_WriteOneObject/orec`) are the self-check that the
  probe sees publications at all.

The four bench reports below (scaling, backend, serve, arbitration) share
one shape, written by harness::write_report: {"context": {..., "host_cpus":
N}, "rows": [...]}, one row per cell. A row holds the bench's config
fields, every ThreadMetrics counter under its field name, the derived
attempts, attempts_per_s, throughput_per_s, aborts_per_commit and valid,
and the bench's own extras.

* --mode scaling (BENCH_scaling.json, from bench/fig_scaling_matrix --json):
  the shared commit-clock line must actually go quiet under the deferred
  protocol. Always gated, per row: validation passed, attempt conservation
  (attempts == commits + aborts), and write-commits stamped. The
  contention-ratio clause — at M=8 clock_bumps stay at or below
  --max-bump-ratio x deferred_stamps (the write-commit count, i.e. what a
  bump per commit would cost) — is additionally gated only when
  context.host_cpus >= 16; an oversubscribed host serializes the writers
  and measures the OS scheduler, not the clock.

* --mode backend (BENCH_backend.json, from bench/fig_backend --json): the
  eager-vs-lazy engine sweep. Always gated, per row: validation passed,
  attempt conservation (attempts == commits + aborts), commits > 0, and the
  backend split is sane (every (benchmark, M) cell has BOTH a dstm and an
  orec row; orec rows recorded write-backs, dstm rows recorded none). The
  performance clause — on the low-contention intset ("list") cell at M=8,
  orec sustains at least --min-orec-attempt-ratio x dstm's attempts/s (lazy
  commit-time locking beats eager per-open locator CAS when conflicts are
  rare) — is additionally gated only when context.host_cpus >= 8.

* --mode serve (BENCH_serve.json, from bench/fig_serve_scaling --json): the
  serving front-end must not lose requests. Always gated, per cell:
  validation passed, accepted == enqueued == dequeued, and
  serve_completed + serve_expired + serve_cancelled == dequeued (exact
  conservation across queue, workers, and drain). The conflict-aware-policy
  clause — at every arrival rate, window-frame sustains at least
  --min-throughput-ratio x round-robin's completions/s (throughput_per_s)
  OR keeps p99 at most --max-p99-ratio x round-robin's — is additionally
  gated when the producing host had at least `threads` CPUs
  (context.host_cpus); on an oversubscribed host the ratios measure the OS
  scheduler, not the admission policy, so they are reported
  informationally instead.

* --mode arbitration (BENCH_arbitration.json, from bench/fig_arbitration
  --json): the abort-vs-wait arbitration sweep. Always gated, per row:
  validation passed, attempt conservation, commits > 0, and the mode split
  is sane (every (benchmark, M) cell has BOTH an abort and a wait row;
  wait rows on these contended cells recorded parks, abort rows recorded
  none — parking is strictly opt-in). The performance clauses — at every
  M >= 16 cell, wait mode cuts involuntary context switches per commit to
  at most --max-wait-nivcsw-ratio x abort mode's AND cuts CPU time per
  commit to at most --max-wait-cpu-ratio x abort mode's, while sustaining
  at least --min-wait-attempt-ratio x abort mode's attempts/s — are
  additionally gated only when context.host_cpus >= 16; an oversubscribed
  host preempts everything constantly, drowning exactly the
  voluntary-vs-involuntary switch signal the clause measures.

Usage: check_bench.py BENCH_micro.json [--max-allocs-per-attempt 0.5]
       check_bench.py BENCH_readval.json --mode readval \
           [--max-validations-per-read 1.05]
       check_bench.py BENCH_clock.json --mode clock
       check_bench.py BENCH_serve.json --mode serve \
           [--min-throughput-ratio 1.2] [--max-p99-ratio 0.7]
       check_bench.py BENCH_scaling.json --mode scaling [--max-bump-ratio 0.2]
       check_bench.py BENCH_backend.json --mode backend \
           [--min-orec-attempt-ratio 1.5]
       check_bench.py BENCH_arbitration.json --mode arbitration \
           [--max-wait-nivcsw-ratio 0.9] [--max-wait-cpu-ratio 0.95] \
           [--min-wait-attempt-ratio 0.95]
"""

import argparse
import json
import sys


def load_report(json_path: str):
    try:
        with open(json_path, encoding="utf-8") as f:
            report = json.load(f)
    except FileNotFoundError:
        print(
            f"check_bench: {json_path}: no such file "
            "(did the benchmark run produce it? check --benchmark_out)",
            file=sys.stderr,
        )
        return None
    except OSError as e:
        print(f"check_bench: {json_path}: cannot read: {e}", file=sys.stderr)
        return None
    except json.JSONDecodeError as e:
        print(
            f"check_bench: {json_path}: not valid JSON ({e}); "
            "a truncated file usually means the benchmark was killed mid-run",
            file=sys.stderr,
        )
        return None

    if not isinstance(report, dict) or not isinstance(report.get("benchmarks"), list):
        print(
            f"check_bench: {json_path}: no 'benchmarks' array; "
            "expected Google Benchmark --benchmark_out_format=json output",
            file=sys.stderr,
        )
        return None
    return report


def gate(report, prefix: str, counter: str, limit: float, info_prefixes) -> int:
    """Fail when any `prefix` iteration row's `counter` exceeds `limit`."""
    gated = [
        b
        for b in report["benchmarks"]
        if b.get("name", "").startswith(prefix)
        and b.get("run_type", "iteration") == "iteration"
    ]
    if not gated:
        print(f"check_bench: {prefix} missing from report", file=sys.stderr)
        return 1

    failed = False
    for b in gated:
        name = b.get("name", "<unnamed>")
        value = b.get(counter)
        if not isinstance(value, (int, float)):
            print(
                f"check_bench: {name} lacks a numeric {counter} counter "
                "(was the bench built with the instrumented micro_stm target?)",
                file=sys.stderr,
            )
            failed = True
            continue
        verdict = "ok" if value <= limit else "FAIL"
        print(f"check_bench: {name}: {counter}={value:.4f} (limit {limit}) {verdict}")
        if value > limit:
            failed = True

    # Informational: the ungated baseline rows for context in CI logs.
    for b in report["benchmarks"]:
        name = b.get("name", "")
        if any(name.startswith(p) for p in info_prefixes) and (
            b.get("run_type", "iteration") == "iteration"
        ):
            value = b.get(counter)
            if isinstance(value, (int, float)):
                print(f"check_bench: (info) {name}: {counter}={value:.4f}")

    return 1 if failed else 0


FIXED_COST_ROWS = ("BM_EmptyTransaction", "BM_ReadOneObject", "BM_WriteOneObject")

# A sampled transaction reads the clock twice (begin and end), and each
# thread samples its first logical transaction and every 64th after it:
# 2 * ceil(n / 64) reads for n transactions, 2/64 = 0.031 per transaction
# on a long run. 0.05 leaves margin for a short one.
MAX_CLOCK_READS_PER_TX = 0.05


# Fixed-cost rows whose transactions are never exposed: an orec attempt
# that takes no lock runs on its thread's never-published descriptor.
UNEXPOSED_ROWS = ("BM_EmptyTransaction/orec", "BM_ReadOneObject/orec")


def gate_clock(report) -> int:
    """Polka fixed-cost rows read the clock only for the metrics sample,
    and only exposed transactions publish a descriptor."""
    rows = {
        b.get("name", ""): b
        for b in report["benchmarks"]
        if b.get("run_type", "iteration") == "iteration"
    }
    # (row, counter, lowest, highest): BM_NowNs and the Greedy rows are the
    # self-checks that the interposer sees the library's clock at all.
    checks = [("BM_NowNs", "clock_reads_per_call", 0.99, 1.01)]
    for bench in FIXED_COST_ROWS:
        checks += [
            (f"{bench}/dstm", "clock_reads_per_tx", 0.0, MAX_CLOCK_READS_PER_TX),
            (f"{bench}/orec", "clock_reads_per_tx", 0.0, MAX_CLOCK_READS_PER_TX),
            (f"{bench}/dstm_greedy", "clock_reads_per_tx", 1.0, float("inf")),
        ]
        for row in (f"{bench}/dstm", f"{bench}/orec", f"{bench}/dstm_greedy"):
            want = 0.0 if row in UNEXPOSED_ROWS else 1.0
            checks.append((row, "publishes_per_tx", want, want))
    failed = False
    for name, key, lo, hi in checks:
        value = rows.get(name, {}).get(key)
        if not isinstance(value, (int, float)):
            print(
                f"check_bench: {name} missing or lacks a numeric {key} counter "
                "(was the bench built with the clock interposer?)",
                file=sys.stderr,
            )
            failed = True
            continue
        ok = lo <= value <= hi
        print(
            f"check_bench: {name}: {key}={value:.4f} (want {lo} to {hi}) "
            f"{'ok' if ok else 'FAIL'}"
        )
        failed |= not ok
    return 1 if failed else 0


def load_rows_report(json_path: str):
    """The shared bench report shape: {"context": {...}, "rows": [...]}."""
    try:
        with open(json_path, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: {json_path}: cannot load: {e}", file=sys.stderr)
        return None
    if not isinstance(report, dict) or not isinstance(report.get("rows"), list):
        print(
            f"check_bench: {json_path}: no 'rows' array; expected the --json "
            "output of fig_backend, fig_arbitration, fig_scaling_matrix or "
            "fig_serve_scaling",
            file=sys.stderr,
        )
        return None
    return report


def check_attempts(name: str, r, require_commits: bool) -> bool:
    """Per-row structural gate shared by the closed-loop modes: validation
    passed and attempts == commits + aborts, plus commits > 0 where the mode
    requires it. Returns True when the row failed."""
    failed = False
    if not r.get("valid", False):
        print(f"check_bench: {name}: workload validation FAILED", file=sys.stderr)
        failed = True
    attempts = r.get("attempts", -1)
    accounted = r.get("commits", 0) + r.get("aborts", 0)
    if attempts != accounted:
        print(
            f"check_bench: {name}: attempt conservation FAILED "
            f"(attempts={attempts} commits+aborts={accounted})",
            file=sys.stderr,
        )
        failed = True
    elif require_commits and r.get("commits", 0) <= 0:
        print(f"check_bench: {name}: zero commits", file=sys.stderr)
        failed = True
    else:
        print(f"check_bench: {name}: conserved {attempts} attempts, valid ok")
    return failed


def gate_serve(report, min_throughput_ratio: float, max_p99_ratio: float) -> int:
    rows = report["rows"]
    if not rows:
        print("check_bench: serve report has no cells", file=sys.stderr)
        return 1
    context = report.get("context", {})
    failed = False

    # Structural gates: every cell validated and conserved every request.
    for r in rows:
        name = f"{r.get('policy', '?')}@{r.get('arrival_rate', '?')}/s"
        if not r.get("valid", False):
            print(f"check_bench: {name}: workload validation FAILED", file=sys.stderr)
            failed = True
        accepted = r.get("accepted", -1)
        enqueued = r.get("enqueued", -2)
        dequeued = r.get("dequeued", -3)
        accounted = (
            r.get("serve_completed", 0)
            + r.get("serve_expired", 0)
            + r.get("serve_cancelled", 0)
        )
        if not (accepted == enqueued == dequeued == accounted):
            print(
                f"check_bench: {name}: request conservation FAILED "
                f"(accepted={accepted} enqueued={enqueued} dequeued={dequeued} "
                f"serve_completed+serve_expired+serve_cancelled={accounted})",
                file=sys.stderr,
            )
            failed = True
        else:
            print(f"check_bench: {name}: conserved {dequeued} requests, valid ok")

    # Conflict-aware clause: per (threads, rate) group, window-frame vs the
    # round-robin baseline. Enforced per group, only
    # when the producing host had enough CPUs to actually run that group's
    # workers concurrently (rows carry their own thread count now that
    # fig_serve_scaling sweeps M; older reports fall back to the context).
    host_cpus = context.get("host_cpus", 0)
    context_threads = context.get("threads", 0)
    by_group = {}
    for r in rows:
        key = (r.get("threads", context_threads), r.get("arrival_rate"))
        by_group.setdefault(key, {})[r.get("policy")] = r
    any_ungated = False
    for (threads, rate), policies in sorted(
        by_group.items(), key=lambda kv: (kv[0][0] or 0, kv[0][1] or 0)
    ):
        enforce = (
            isinstance(host_cpus, int)
            and isinstance(threads, int)
            and host_cpus >= threads
        )
        any_ungated = any_ungated or not enforce
        base = policies.get("round-robin")
        if base is None or base.get("throughput_per_s", 0) <= 0:
            continue
        for name in ("window-frame",):
            row = policies.get(name)
            if row is None:
                continue
            thr_ratio = row.get("throughput_per_s", 0) / base["throughput_per_s"]
            base_p99 = base.get("p99_us", 0)
            p99_ratio = row.get("p99_us", 0) / base_p99 if base_p99 > 0 else float("inf")
            ok = thr_ratio >= min_throughput_ratio or p99_ratio <= max_p99_ratio
            verdict = "ok" if ok else ("FAIL" if enforce else "miss (not gated)")
            print(
                f"check_bench: {name}@M={threads}/{rate}/s vs round-robin: "
                f"throughput x{thr_ratio:.2f} (need >= {min_throughput_ratio}) "
                f"p99 x{p99_ratio:.2f} (need <= {max_p99_ratio}) {verdict}"
            )
            if not ok and enforce:
                failed = True
    if any_ungated:
        print(
            f"check_bench: ratio clause informational for groups with "
            f"threads > host_cpus={host_cpus}"
        )
    return 1 if failed else 0


def gate_scaling(report, max_bump_ratio: float) -> int:
    rows = report["rows"]
    if not rows:
        print("check_bench: scaling report has no rows", file=sys.stderr)
        return 1
    context = report.get("context", {})
    host_cpus = context.get("host_cpus", 0)
    failed = False

    # Structural gates, always enforced: every row validated, and attempts
    # conserve exactly into commits + aborts.
    for r in rows:
        name = f"M={r.get('threads', '?')}"
        failed |= check_attempts(name, r, require_commits=False)
        # Write-commits must actually stamp (deferred clock active).
        if r.get("commits", 0) > 0 and r.get("deferred_stamps", 0) == 0:
            print(
                f"check_bench: {name}: row recorded no stamps "
                "(deferred clock not active?)",
                file=sys.stderr,
            )
            failed = True

    # Contention-ratio clause: only meaningful with real concurrency.
    enforce = isinstance(host_cpus, int) and host_cpus >= 16
    row8 = next((r for r in rows if r.get("threads") == 8), None)
    if row8 is not None:
        stamps = row8.get("deferred_stamps", 0)
        bumps = row8.get("clock_bumps", 0)
        ratio = bumps / stamps if stamps > 0 else float("inf")
        ok = ratio <= max_bump_ratio
        verdict = "ok" if ok else ("FAIL" if enforce else "miss (not gated)")
        print(
            f"check_bench: M=8 shared-line writes: "
            f"clock_bumps/deferred_stamps={ratio:.3f} "
            f"(need <= {max_bump_ratio}) {verdict}"
        )
        if not ok and enforce:
            failed = True
    if not enforce:
        print(
            f"check_bench: contention-ratio clause informational only "
            f"(host_cpus={host_cpus} < 16)"
        )
    return 1 if failed else 0


def gate_backend(report, min_orec_attempt_ratio: float) -> int:
    rows = report["rows"]
    if not rows:
        print("check_bench: backend report has no rows", file=sys.stderr)
        return 1
    context = report.get("context", {})
    host_cpus = context.get("host_cpus", 0)
    failed = False

    # Structural gates, always enforced.
    cells = {}
    for r in rows:
        name = (
            f"{r.get('benchmark', '?')}/M={r.get('threads', '?')}/"
            f"{r.get('backend', '?')}"
        )
        failed |= check_attempts(name, r, require_commits=True)
        # The orec counters separate the engines: the lazy engine commits by
        # write-back, the eager engine never touches that path.
        write_backs = r.get("orec_write_backs", 0)
        if r.get("backend") == "orec" and r.get("commits", 0) > 0 and write_backs == 0:
            print(
                f"check_bench: {name}: orec row recorded no write-backs "
                "(lazy engine not active?)",
                file=sys.stderr,
            )
            failed = True
        if r.get("backend") == "dstm" and write_backs != 0:
            print(
                f"check_bench: {name}: dstm row recorded orec write-backs",
                file=sys.stderr,
            )
            failed = True
        cells.setdefault((r.get("benchmark"), r.get("threads")), set()).add(
            r.get("backend")
        )
    for (benchmark, threads), backends in sorted(cells.items()):
        if backends != {"dstm", "orec"}:
            print(
                f"check_bench: {benchmark}/M={threads}: cell is missing a backend "
                f"(have {sorted(backends)})",
                file=sys.stderr,
            )
            failed = True

    # Performance clause: lazy commit-time locking must beat the eager
    # per-open locator CAS on the low-contention intset cell — but only
    # where the committers actually run concurrently.
    enforce = isinstance(host_cpus, int) and host_cpus >= 8
    by_key = {
        (r.get("benchmark"), r.get("threads"), r.get("backend")): r for r in rows
    }
    dstm8 = by_key.get(("list", 8, "dstm"))
    orec8 = by_key.get(("list", 8, "orec"))
    if dstm8 is not None and orec8 is not None and dstm8.get("attempts_per_s", 0) > 0:
        ratio = orec8.get("attempts_per_s", 0) / dstm8["attempts_per_s"]
        ok = ratio >= min_orec_attempt_ratio
        verdict = "ok" if ok else ("FAIL" if enforce else "miss (not gated)")
        print(
            f"check_bench: list M=8 orec vs dstm attempts/s: x{ratio:.3f} "
            f"(need >= {min_orec_attempt_ratio}) {verdict}"
        )
        if not ok and enforce:
            failed = True
    if not enforce:
        print(
            f"check_bench: backend performance clause informational only "
            f"(host_cpus={host_cpus} < 8)"
        )
    return 1 if failed else 0


def gate_arbitration(
    report,
    max_wait_nivcsw_ratio: float,
    max_wait_cpu_ratio: float,
    min_wait_attempt_ratio: float,
) -> int:
    rows = report["rows"]
    if not rows:
        print("check_bench: arbitration report has no rows", file=sys.stderr)
        return 1
    context = report.get("context", {})
    host_cpus = context.get("host_cpus", 0)
    failed = False

    # Structural gates, always enforced.
    cells = {}
    for r in rows:
        name = (
            f"{r.get('benchmark', '?')}/M={r.get('threads', '?')}/"
            f"{r.get('mode', '?')}"
        )
        failed |= check_attempts(name, r, require_commits=True)
        # Parking is strictly opt-in: abort rows must never park; wait rows
        # on these contended cells must actually exercise the ParkingLot
        # (a conflict-heavy run that never parks means the wait verb is
        # not wired through the managers).
        parks = r.get("parks", 0)
        if r.get("mode") == "abort" and (parks != 0 or r.get("unparks", 0) != 0):
            print(
                f"check_bench: {name}: abort row recorded parks/unparks "
                "(parking must be opt-in)",
                file=sys.stderr,
            )
            failed = True
        if r.get("mode") == "wait" and r.get("aborts", 0) > 0 and parks == 0:
            print(
                f"check_bench: {name}: contended wait row never parked "
                "(wait verb not reaching the managers?)",
                file=sys.stderr,
            )
            failed = True
        cells.setdefault((r.get("benchmark"), r.get("threads")), set()).add(
            r.get("mode")
        )
    for (benchmark, threads), modes in sorted(cells.items()):
        if modes != {"abort", "wait"}:
            print(
                f"check_bench: {benchmark}/M={threads}: cell is missing a mode "
                f"(have {sorted(modes)})",
                file=sys.stderr,
            )
            failed = True

    # Performance clauses: parking must cut the costs it exists to cut —
    # involuntary preemptions of spinning losers and the CPU they burn —
    # without giving back offered work. Only meaningful where the M >= 16
    # workers actually run concurrently.
    enforce = isinstance(host_cpus, int) and host_cpus >= 16
    by_key = {(r.get("benchmark"), r.get("threads"), r.get("mode")): r for r in rows}
    compared = False
    for (benchmark, threads), modes in sorted(cells.items()):
        if not isinstance(threads, int) or threads < 16:
            continue
        abort_row = by_key.get((benchmark, threads, "abort"))
        wait_row = by_key.get((benchmark, threads, "wait"))
        if abort_row is None or wait_row is None:
            continue
        compared = True
        label = f"{benchmark}/M={threads} wait vs abort"
        checks = (
            ("nivcsw/commit", "nivcsw_per_commit", max_wait_nivcsw_ratio, "<="),
            ("cpu/commit", "cpu_us_per_commit", max_wait_cpu_ratio, "<="),
            ("attempts/s", "attempts_per_s", min_wait_attempt_ratio, ">="),
        )
        for what, key, limit, op in checks:
            base = abort_row.get(key, 0)
            ratio = wait_row.get(key, 0) / base if base > 0 else float("inf")
            ok = ratio <= limit if op == "<=" else ratio >= limit
            verdict = "ok" if ok else ("FAIL" if enforce else "miss (not gated)")
            print(
                f"check_bench: {label}: {what} x{ratio:.3f} "
                f"(need {op} {limit}) {verdict}"
            )
            if not ok and enforce:
                failed = True
    if not compared:
        print("check_bench: no M >= 16 cell to compare", file=sys.stderr)
        failed = True
    if not enforce:
        print(
            f"check_bench: arbitration performance clauses informational only "
            f"(host_cpus={host_cpus} < 16)"
        )
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("json_path")
    parser.add_argument(
        "--mode",
        choices=("alloc", "readval", "clock", "serve", "scaling", "backend", "arbitration"),
        default="alloc",
    )
    parser.add_argument("--max-allocs-per-attempt", type=float, default=0.5)
    parser.add_argument("--max-validations-per-read", type=float, default=1.05)
    parser.add_argument("--min-throughput-ratio", type=float, default=1.2)
    parser.add_argument("--max-p99-ratio", type=float, default=0.7)
    parser.add_argument("--max-bump-ratio", type=float, default=0.2)
    parser.add_argument("--min-orec-attempt-ratio", type=float, default=1.5)
    parser.add_argument("--max-wait-nivcsw-ratio", type=float, default=0.9)
    parser.add_argument("--max-wait-cpu-ratio", type=float, default=0.95)
    parser.add_argument("--min-wait-attempt-ratio", type=float, default=0.95)
    args = parser.parse_args(argv)

    if args.mode in ("scaling", "backend", "serve", "arbitration"):
        report = load_rows_report(args.json_path)
        if report is None:
            return 1
        if args.mode == "scaling":
            return gate_scaling(report, args.max_bump_ratio)
        if args.mode == "backend":
            return gate_backend(report, args.min_orec_attempt_ratio)
        if args.mode == "serve":
            return gate_serve(report, args.min_throughput_ratio, args.max_p99_ratio)
        return gate_arbitration(
            report,
            args.max_wait_nivcsw_ratio,
            args.max_wait_cpu_ratio,
            args.min_wait_attempt_ratio,
        )

    report = load_report(args.json_path)
    if report is None:
        return 1

    if args.mode == "clock":
        return gate_clock(report)
    if args.mode == "alloc":
        return gate(
            report,
            "BM_AllocPressureWriteTx",
            "allocs_per_attempt",
            args.max_allocs_per_attempt,
            ("BM_IntsetWriteHeavy",),
        )
    failed = 0
    for r in (8, 64, 256):
        failed |= gate(
            report,
            f"BM_ReadSetScaling/{r}",
            "validations_per_read",
            args.max_validations_per_read,
            (),
        )
    return failed


if __name__ == "__main__":
    sys.exit(main())
