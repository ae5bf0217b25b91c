"""Self-tests of the benchmark harness.

Run with ``python3 -m pytest bench/selftest.py`` from the repository root.
The file name keeps these tests out of the default ``pytest`` collection:
they start child processes and take tens of seconds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import child
import run
import tracing
from workloads import WORKLOADS

SMOKE_N = 16
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _deadline() -> float:
    return time.monotonic() + run.DEADLINE_S


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_n16(name, tmp_path):
    w = WORKLOADS[name]
    results = run.measure(w, 3, 0, str(tmp_path / name), False, _deadline(), 1, SMOKE_N, 1)
    assert [r["command"] for r in results] == list(w.commands()) + ["setup"]
    assert [p for r in results for p in r["problems"]] == []
    metrics = run.e2e_metrics(w, results)
    assert set(metrics) == set(run.E2E_UNITS)
    assert all(v > 0 for v in metrics.values())


def test_traced_counts_n16(tmp_path):
    w = WORKLOADS["step-n64"]
    metrics, results = run.traced_metrics(w, 5, _deadline(), str(tmp_path), SMOKE_N)
    assert not any(r["failed"] for r in results)
    assert set(metrics) == set(run.layer_units())
    assert metrics["spectral.fft.inverse_per_rhs"] == 12
    assert metrics["spectral.fft.forward_per_rhs"] == 3
    assert metrics["spectral.convective_core_half.calls_per_step"] == 4
    for name in ("criteria.holder_check.ms", "snapshot.read_snapshot.mb_per_s",
                 "solver.step.peak_mb", "criteria.evaluate_sample.identity_ms"):
        assert metrics[name] > 0, name


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": "t"}


def test_self_time_on_synthetic_tree():
    #  root [0, 10]
    #    a [1, 4]
    #      a1 [2, 3]
    #    b [5, 9]
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a1", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_step_windows_count_stage_one():
    # run [0, 10]: stage-1 term, step 1 (3 stages), stage-1 term, step 2, final sample
    spans = [_span("solver.run", 0.0, 10.0, None)]

    def add(name, start, end, parent):
        spans.append(_span(name, start, end, parent))
        return len(spans) - 1

    t = 0.1
    for _ in range(2):
        add("spectral.convective_core_half", t, t + 0.1, 0)
        step = add(tracing.STEP_SPAN, t + 0.2, t + 1.0, 0)
        for k in range(3):
            add("spectral.convective_core_half", t + 0.3 + 0.2 * k, t + 0.4 + 0.2 * k, step)
        t += 2.0
    add("spectral.convective_core_half", t, t + 0.1, 0)
    metrics = tracing.layer_metrics([spans])
    assert metrics["spectral.convective_core_half.calls_per_step"] == 4
    assert metrics["spectral.convective_core_half.ms"] == pytest.approx(100.0)


def test_speed_probe_normalizes_by_median_loop_time():
    probe = child.SpeedProbe()
    nominal = probe.NOMINAL_S
    # a CPU running at half speed: every loop takes twice the nominal time
    probe.samples = [(0.1 * k, 2 * nominal) for k in range(1, 10)] + [(5.0, nominal)]
    value, slowdown = probe.normalized(0.0, 1.0)
    assert slowdown == 2.0
    assert value == pytest.approx((1.0 - 9 * 2 * nominal) / 2.0)
    assert probe.normalized(2.0, 3.0) == (1.0, 1.0)  # no sample: wall time as is


def test_tampered_snapshot_counts_as_failure(tmp_path):
    w = WORKLOADS["verify-n96"]
    good = str(tmp_path / "good")
    results = run.measure(w, 7, 0, good, False, _deadline(), 1, SMOKE_N, 0)
    assert not any(r["failed"] for r in results)

    bad = str(tmp_path / "bad")
    shutil.copytree(good, bad)
    rundir = os.path.join(bad, w.verified[0])
    snap = sorted(f for f in os.listdir(rundir) if f.startswith("snap_"))[-1]
    path = os.path.join(rundir, snap)
    with open(path, "r+b") as fh:
        fh.seek(-8, os.SEEK_END)
        fh.write(np.array([math.nan], dtype="<f8").tobytes())
    r = run.Runner(w, bad, False, _deadline()).run("verify")
    assert r["failed"] and "wall_s" in r
    results.append(r)
    failed = sum(x["failed"] for x in results)
    assert failed == 1 and failed / len(results) > 0


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [x["name"] for x in spec["workloads"]] == list(WORKLOADS)
    assert {x["name"]: x["unit"] for x in spec["end_to_end"]} == run.E2E_UNITS
    assert {x["name"]: x["unit"] for x in spec["per_layer"]} == run.layer_units()
    for x in spec["workloads"]:
        assert x["why"] == WORKLOADS[x["name"]].why


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "step-n64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
