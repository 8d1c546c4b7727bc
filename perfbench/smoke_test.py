#!/usr/bin/env python3
"""Smoke test for perfbench: short runs of every workload, checked.

Usage, from the root of a checkout:  python3 perfbench/smoke_test.py

Checks:
  * every workload, run briefly with --trace 0 and --trace 1, exits 0,
    passes its own output checks, and prints every metric BENCHMARK.json
    names, with that metric's unit;
  * traced spans nest: each child lies inside its parent and no span has
    negative self time;
  * a wait-mode run through the CM decorator parks (stm.parks_per_commit > 0),
    so the decorator hands the Runtime's wait hooks to the wrapped manager;
  * cm.resolve_per_commit on readmostly-orec stays below 1% of its
    hotspot-window value, as BENCHMARK's README predicts.
Exits 1 on the first failed check.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def fail(msg):
    print("FAIL: " + msg)
    sys.exit(1)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", trace, *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        fail(f"{workload} trace={trace} {' '.join(extra)} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} trace={trace}: no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: correct={result['correct']} "
             f"attempted={result['attempted']}")
    return result["metrics"]


def check_metrics(workload, metrics, expected):
    for spec in expected:
        got = metrics.get(spec["name"])
        if got is None:
            fail(f"{workload}: metric {spec['name']} missing")
        if got["unit"] != spec["unit"]:
            fail(f"{workload}: {spec['name']} unit {got['unit']} != {spec['unit']}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            fail(f"{workload}: {spec['name']} value {got['value']!r}")
    extra = set(metrics) - {s["name"] for s in expected}
    if extra:
        fail(f"{workload}: unexpected metrics {sorted(extra)}")


def check_spans(workload, path):
    spans = [json.loads(line) for line in open(path)]
    if not spans:
        fail(f"{workload}: no spans written")
    by_id = {s["id"]: s for s in spans}
    linked = 0
    for s in spans:
        if s["end_ns"] < s["start_ns"] or s["self_ns"] < 0:
            fail(f"{workload}: span {s} has negative duration or self time")
        parent = by_id.get(s["parent"])
        if parent is None:
            continue
        linked += 1
        if s["start_ns"] < parent["start_ns"] or s["end_ns"] > parent["end_ns"]:
            fail(f"{workload}: span {s['name']} not inside its parent {parent['name']}")
        if s["req"] != parent["req"]:
            fail(f"{workload}: span {s['name']} has another request id than its parent")
    if linked == 0:
        fail(f"{workload}: no span has its parent among the written spans")
    return {s["name"] for s in spans}


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    scratch = os.path.join(ROOT, ".bench_build", "perfbench-smoke")
    os.makedirs(scratch, exist_ok=True)
    layer = {}
    for w in spec["workloads"]:
        name = w["name"]
        check_metrics(name, run(name, "0"), spec["end_to_end"])
        spans_path = os.path.join(scratch, f"spans-{name}.jsonl")
        layer[name] = run(name, "1", "--spans-out", spans_path)
        check_metrics(name, layer[name], spec["per_layer"])
        kinds = check_spans(name, spans_path)
        want = {"serve.submit", "serve.queue", "serve.exec"} if name.startswith("serve") \
            else {"tx", "attempt", "cm.on_begin"}
        if not want <= kinds:
            fail(f"{name}: span kinds {sorted(kinds)} lack {sorted(want - kinds)}")
        print(f"ok  {name}: {len(spec['end_to_end'])} end-to-end and "
              f"{len(spec['per_layer'])} per-layer metrics, spans nest")

    parks = run("hotspot-window", "1", "--arbitration", "wait")["stm.parks_per_commit"]["value"]
    if not parks > 0:
        fail("wait-mode run through the CM decorator never parked")
    print(f"ok  wait mode parks through the decorator: {parks:.4f} parks/commit")

    quiet = layer["readmostly-orec"]["cm.resolve_per_commit"]["value"]
    busy = layer["hotspot-window"]["cm.resolve_per_commit"]["value"]
    if not busy > 0 or not quiet < 0.01 * busy:
        fail(f"cm.resolve_per_commit readmostly-orec {quiet} vs hotspot-window {busy}")
    print(f"ok  cm.resolve_per_commit: readmostly-orec {quiet:.6f} < 1% of "
          f"hotspot-window {busy:.4f}")
    print("PASS")


if __name__ == "__main__":
    main()
