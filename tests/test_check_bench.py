#!/usr/bin/env python3
"""Self-test of tools/check_bench.py on hand-built bench reports.

For the backend, arbitration, scaling and serve modes: a clean report
passes, each structural gate fails on its broken variant, and each ratio
clause fails only once context.host_cpus reaches its threshold.

Run: python3 tests/test_check_bench.py
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools"))
import check_bench  # noqa: E402


def report(rows, host_cpus=4):
    return {"context": {"host_cpus": host_cpus}, "rows": rows}


def closed_row(commits=1000, aborts=100, **extra):
    row = {
        "commits": commits,
        "aborts": aborts,
        "attempts": commits + aborts,
        "attempts_per_s": float(commits + aborts),
        "throughput_per_s": float(commits),
        "aborts_per_commit": aborts / commits if commits else 0.0,
        "valid": True,
    }
    row.update(extra)
    return row


def backend_rows(orec_attempts_per_s=2000.0):
    rows = []
    for threads in (2, 8):
        rows.append(closed_row(benchmark="list", backend="dstm", threads=threads,
                               orec_write_backs=0))
        rows.append(closed_row(benchmark="list", backend="orec", threads=threads,
                               orec_write_backs=500))
    rows[3]["attempts_per_s"] = orec_attempts_per_s  # orec at M=8
    return rows


def arbitration_rows(wait_cpu_us=5.0):
    rows = []
    for threads in (8, 16):
        rows.append(closed_row(benchmark="skiplist", mode="abort", threads=threads, parks=0,
                               unparks=0, nivcsw_per_commit=1.0, cpu_us_per_commit=10.0))
        rows.append(closed_row(benchmark="skiplist", mode="wait", threads=threads, parks=50,
                               unparks=50, nivcsw_per_commit=0.5,
                               cpu_us_per_commit=wait_cpu_us))
    return rows


def scaling_rows(bumps_at_8=10):
    return [
        closed_row(threads=threads, cm="Polka", deferred_stamps=1000,
                   clock_bumps=bumps_at_8 if threads == 8 else 10)
        for threads in (2, 8)
    ]


def serve_row(policy, throughput_per_s=1000.0, p99_us=100.0):
    return {
        "policy": policy,
        "threads": 4,
        "arrival_rate": 100000.0,
        "throughput_per_s": throughput_per_s,
        "p99_us": p99_us,
        "accepted": 900,
        "enqueued": 900,
        "dequeued": 900,
        "serve_completed": 880,
        "serve_expired": 15,
        "serve_cancelled": 5,
        "valid": True,
    }


def serve_rows(window_p99_us=50.0):
    return [serve_row("round-robin"), serve_row("key-hash"),
            serve_row("window-frame", p99_us=window_p99_us)]


class CheckBenchTest(unittest.TestCase):
    def run_gate(self, data, mode):
        """Exit code of check_bench on `data` written to a file."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "report.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(data, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = check_bench.main([path, "--mode", mode])
        self.last_output = out.getvalue()
        return code

    def assert_passes(self, data, mode):
        self.assertEqual(self.run_gate(data, mode), 0, self.last_output)

    def assert_fails(self, data, mode, message):
        self.assertEqual(self.run_gate(data, mode), 1, self.last_output)
        self.assertIn(message, self.last_output)

    def broken(self, rows, index, **changes):
        rows = copy.deepcopy(rows)
        rows[index].update(changes)
        return rows

    # ---- loader ----------------------------------------------------------

    def test_loader_rejects_other_shapes_and_missing_files(self):
        for mode in ("backend", "arbitration", "scaling", "serve"):
            self.assert_fails({"context": {}, mode: []}, mode, "no 'rows' array")
        out = io.StringIO()
        with contextlib.redirect_stderr(out):
            self.assertEqual(check_bench.main(["/nonexistent/report.json", "--mode", "serve"]), 1)

    # ---- backend ---------------------------------------------------------

    def test_backend_clean_report_passes(self):
        self.assert_passes(report(backend_rows(), host_cpus=8), "backend")

    def test_backend_structural_gates(self):
        rows = backend_rows()
        self.assert_fails(report(self.broken(rows, 0, valid=False)), "backend",
                          "validation FAILED")
        self.assert_fails(report(self.broken(rows, 0, attempts=1)), "backend",
                          "attempt conservation FAILED")
        self.assert_fails(report(self.broken(rows, 0, commits=0, aborts=0, attempts=0)),
                          "backend", "zero commits")
        self.assert_fails(report(self.broken(rows, 1, orec_write_backs=0)), "backend",
                          "orec row recorded no write-backs")
        self.assert_fails(report(self.broken(rows, 0, orec_write_backs=3)), "backend",
                          "dstm row recorded orec write-backs")
        self.assert_fails(report(rows[1:]), "backend", "cell is missing a backend")

    def test_backend_ratio_clause_fires_from_eight_cpus(self):
        slow = backend_rows(orec_attempts_per_s=1000.0)  # x1.0 < 1.5
        self.assert_passes(report(slow, host_cpus=7), "backend")
        self.assert_fails(report(slow, host_cpus=8), "backend", "FAIL")

    # ---- arbitration -----------------------------------------------------

    def test_arbitration_clean_report_passes(self):
        self.assert_passes(report(arbitration_rows(), host_cpus=16), "arbitration")

    def test_arbitration_structural_gates(self):
        rows = arbitration_rows()
        self.assert_fails(report(self.broken(rows, 0, valid=False)), "arbitration",
                          "validation FAILED")
        self.assert_fails(report(self.broken(rows, 0, attempts=1)), "arbitration",
                          "attempt conservation FAILED")
        self.assert_fails(report(self.broken(rows, 1, commits=0, aborts=0, attempts=0)),
                          "arbitration", "zero commits")
        self.assert_fails(report(self.broken(rows, 0, parks=2)), "arbitration",
                          "abort row recorded parks/unparks")
        self.assert_fails(report(self.broken(rows, 1, parks=0)), "arbitration",
                          "contended wait row never parked")
        self.assert_fails(report(rows[1:]), "arbitration", "cell is missing a mode")
        self.assert_fails(report(rows[:2]), "arbitration", "no M >= 16 cell to compare")

    def test_arbitration_ratio_clause_fires_from_sixteen_cpus(self):
        costly = arbitration_rows(wait_cpu_us=13.0)  # x1.3 > 0.95
        self.assert_passes(report(costly, host_cpus=15), "arbitration")
        self.assert_fails(report(costly, host_cpus=16), "arbitration", "FAIL")

    # ---- scaling ---------------------------------------------------------

    def test_scaling_clean_report_passes(self):
        self.assert_passes(report(scaling_rows(), host_cpus=16), "scaling")

    def test_scaling_structural_gates(self):
        rows = scaling_rows()
        self.assert_fails(report(self.broken(rows, 0, valid=False)), "scaling",
                          "validation FAILED")
        self.assert_fails(report(self.broken(rows, 0, attempts=1)), "scaling",
                          "attempt conservation FAILED")
        self.assert_fails(report(self.broken(rows, 0, deferred_stamps=0)), "scaling",
                          "row recorded no stamps")
        # Scaling does not gate on commits > 0.
        self.assert_passes(report(self.broken(rows, 0, commits=0, aborts=0, attempts=0)),
                           "scaling")

    def test_scaling_ratio_clause_fires_from_sixteen_cpus(self):
        busy = scaling_rows(bumps_at_8=500)  # 0.5 > 0.2
        self.assert_passes(report(busy, host_cpus=15), "scaling")
        self.assert_fails(report(busy, host_cpus=16), "scaling", "FAIL")

    # ---- serve -----------------------------------------------------------

    def test_serve_clean_report_passes(self):
        self.assert_passes(report(serve_rows(), host_cpus=4), "serve")

    def test_serve_structural_gates(self):
        rows = serve_rows()
        self.assert_fails(report(self.broken(rows, 0, valid=False)), "serve",
                          "validation FAILED")
        self.assert_fails(report(self.broken(rows, 0, serve_completed=879)), "serve",
                          "request conservation FAILED")
        self.assert_fails(report(self.broken(rows, 1, dequeued=901)), "serve",
                          "request conservation FAILED")
        self.assert_fails(report([]), "serve", "serve report has no cells")

    def test_serve_ratio_clause_fires_from_threads_cpus(self):
        even = serve_rows(window_p99_us=100.0)  # x1.0 throughput, x1.0 p99
        self.assert_passes(report(even, host_cpus=3), "serve")
        self.assert_fails(report(even, host_cpus=4), "serve", "FAIL")
        faster = self.broken(even, 2, throughput_per_s=1300.0)  # x1.3 >= 1.2
        self.assert_passes(report(faster, host_cpus=4), "serve")


if __name__ == "__main__":
    unittest.main()
