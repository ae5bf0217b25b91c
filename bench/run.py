"""regcrit benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload step-n64 --seed 1 --seconds 30 --trace 0

Each command of the workload runs in a fresh child process, one at a time,
with ``REGCRIT_THREADS=1`` and the BLAS/OpenMP pools pinned to one thread.
``--trace 0`` repeats the workload for ``--seconds`` seconds and reports the
end-to-end metrics: medians over the commands, with times normalized by the
CPU speed each child samples while it runs (``child.SpeedProbe``).  ``--trace 1`` runs the
workload once untraced and once traced, and reports per-layer metrics from
the traced pass plus the tracing overhead.  ``--second-seed`` measures the
same workload again on another seed and records it beside the first, so a
claim can be checked on a seed not used while writing it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit.  A run record (versions, CPU count,
cache sizes, thread environment, seed, commit, every command's raw numbers)
is written to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, Workload, write_configs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

#: every run must end within this many seconds of starting
DEADLINE_S = 170.0
#: set-up-only children after the repeats, so setup_s is a median of many
SETUP_CHILDREN = 6

THREAD_ENV = {
    "REGCRIT_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

E2E_UNITS = {
    "setup_s": "s",
    "sim_s_per_step": "s",
    "calibrate_s_per_field": "s",
    "verify_s_per_snapshot": "s",
    "peak_rss_mb": "MB",
}


class Runner:
    """Runs commands of one workload in child processes, one at a time."""

    def __init__(self, w: Workload, workdir: str, trace: bool, deadline: float,
                 probe: bool = True):
        self.w = w
        self.workdir = workdir
        self.trace = trace
        self.deadline = deadline
        self.probe = probe
        self.results: list[dict] = []

    def run(self, command: str) -> dict:
        k = len(self.results)
        stem = os.path.join(self.workdir, "logs", f"{k:03d}-{command}")
        os.makedirs(os.path.dirname(stem), exist_ok=True)
        spec = {
            "workload": self.w.name,
            "command": command,
            "workdir": self.workdir,
            "src": SRC,
            "trace": self.trace,
            "run_id": f"{k:03d}-{command}",
            "result": stem + ".result.json",
            "spans": stem + ".spans.json",
        }
        with open(stem + ".spec.json", "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=self.workdir, **THREAD_ENV)
        timeout = max(1.0, self.deadline - time.monotonic())
        t = time.perf_counter()
        with open(stem + ".out", "w") as out:
            try:
                argv = [sys.executable, os.path.join(HERE, "child.py"), stem + ".spec.json"]
                proc = subprocess.run(
                    argv + ([] if self.probe else ["--no-probe"]),
                    cwd=self.workdir, env=env, stdout=out, stderr=subprocess.STDOUT,
                    timeout=timeout,
                )
                status = proc.returncode
            except subprocess.TimeoutExpired:
                status = "timeout"
        res = {"command": command, "proc_s": time.perf_counter() - t}
        if status == 0 and os.path.exists(spec["result"]):
            with open(spec["result"], encoding="utf-8") as fh:
                res.update(json.load(fh))
            if self.trace:
                with open(spec["spans"], encoding="utf-8") as fh:
                    res["spans"] = json.load(fh)
        else:
            res["problems"] = [f"child process ended with {status}; log {stem}.out"]
        res["failed"] = bool(res["problems"])
        self.results.append(res)
        return res


def measure(w: Workload, seed: int, seconds: float, workdir: str, trace: bool,
            deadline: float, repeats: int | None = None, n: int | None = None,
            setup_children: int = SETUP_CHILDREN, probe: bool = True) -> list[dict]:
    """Run ``pre``, then ``repeat`` for ``seconds`` (or exactly ``repeats``
    times), then ``setup_children`` set-up-only children.

    ``n`` overrides the workload's grid size (smoke tests); ``probe=False``
    turns the children's CPU-speed probe off.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    write_configs(w, seed, workdir, n)
    r = Runner(w, workdir, trace, deadline, probe)
    for command in w.pre:
        r.run(command)
    durations: list[float] = []
    t_loop = time.monotonic()
    while True:
        t = time.monotonic()
        for command in w.repeat:
            r.run(command)
        durations.append(time.monotonic() - t)
        typical = statistics.median(durations)
        if repeats is not None:
            if len(durations) >= repeats:
                break
        else:
            # start another repeat only if at least half of it fits
            now = time.monotonic()
            if now - t_loop + typical / 2 > seconds or now + 2 * typical > deadline:
                break
    for _ in range(setup_children):
        r.run("setup")
    return r.results


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def e2e_metrics(w: Workload, results: list[dict], raw: bool = False) -> dict[str, float | None]:
    """End-to-end metrics of one run: medians over its commands.

    Times are normalized by the CPU speed the child sampled (see
    ``child.SpeedProbe``); ``raw=True`` gives the wall-clock values instead.
    """
    done = [r for r in results if "wall_s" in r]

    def t(r, key):
        return r["raw"][key] if raw else r[key]

    def of(command, key, per):
        return _median([t(r, key) / per for r in done if r["command"] == command])

    rss = [r["maxrss_mb"] for r in done]
    return {
        "setup_s": _median([t(r, "setup_s") for r in done]),
        "sim_s_per_step": of("simulate", "run_s", w.shape.steps),
        "calibrate_s_per_field": of("calibrate", "wall_s", w.fields),
        "verify_s_per_snapshot": of("verify", "wall_s", w.verified[1].snapshots),
        "peak_rss_mb": max(rss) if rss else None,
    }


def traced_metrics(w: Workload, seed: int, deadline: float, work: str = WORK,
                   n: int | None = None) -> tuple[dict, list[dict]]:
    """One untraced and one traced pass (``pre`` and one repeat) of ``w``."""
    import tracing

    plain, traced = (
        measure(w, seed, 0, os.path.join(work, f"{w.name}-{label}"), trace, deadline, 1, n,
                setup_children=0, probe=False)
        for label, trace in (("untraced", False), ("traced", True))
    )
    metrics = tracing.layer_metrics([r["spans"] for r in traced if "spans" in r])
    plain_s, traced_s = (
        sum(r["setup_s"] + r["wall_s"] for r in rs if "wall_s" in r) for rs in (plain, traced)
    )
    metrics["bench.trace_overhead_s"] = traced_s - plain_s
    metrics["bench.trace_overhead_frac"] = traced_s / plain_s - 1.0
    for r in traced:
        r.pop("spans", None)
    return metrics, plain + traced


def layer_units() -> dict[str, str]:
    import tracing

    return dict(tracing.UNITS, **{"bench.trace_overhead_s": "s", "bench.trace_overhead_frac": "1"})


def _cache_sizes() -> dict:
    """L1d/L2/L3 sizes from glibc's sysconf (CPUID on x86; no file reads)."""
    names = {"l1d": 188, "l2": 191, "l3": 194}  # _SC_LEVEL{1_D,2,3}CACHE_SIZE
    try:
        libc = ctypes.CDLL(None)
        return {k: libc.sysconf(v) for k, v in names.items()}
    except (OSError, AttributeError):
        return {k: None for k in names}


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(ref[5:]):
                    return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "regcrit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_record(args, results: list[dict]) -> dict:
    versions = next((r["versions"] for r in results if "versions" in r), None)
    return {
        "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "workload": args.workload,
        "seed": args.seed,
        "second_seed": args.second_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "versions": versions,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cache_bytes": _cache_sizes(),
        "thread_env": THREAD_ENV,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _print_table(title: str, metrics: dict, units: dict, attempted: int, failed: int,
                 raw: dict | None = None) -> None:
    print(title + ("  (normalized, then wall-clock)" if raw else ""))
    for name, value in metrics.items():
        extra = f" {_fmt(raw[name]):>14}" if raw else ""
        print(f"  {name:<46} {_fmt(value):>14}{extra} {units[name]}")
    print(f"  {'fail_frac':<46} {failed / max(attempted, 1):>14.6g} 1"
          f"  ({failed} of {attempted} commands failed)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--second-seed", type=int, default=None)
    args = parser.parse_args(argv)
    if args.seed < 0 or (args.second_seed is not None and args.second_seed < 0):
        parser.error("seeds must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "regcrit", "__init__.py")):
        print(f"regcrit sources not found under {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    seeds = [args.seed] + ([args.second_seed] if args.second_seed is not None else [])
    per_seed = []
    for seed in seeds:
        deadline = time.monotonic() + DEADLINE_S
        raw = None
        if args.trace:
            metrics, results = traced_metrics(w, seed, deadline)
            units = layer_units()
        else:
            workdir = os.path.join(WORK, w.name)
            results = measure(w, seed, args.seconds, workdir, False, deadline)
            metrics, units = e2e_metrics(w, results), E2E_UNITS
            raw = e2e_metrics(w, results, raw=True)
        attempted, failed = len(results), sum(r["failed"] for r in results)
        _print_table(f"{w.name} seed {seed} trace {args.trace}", metrics, units, attempted,
                     failed, raw)
        for r in results:
            for p in r["problems"]:
                print(f"  FAILED {r['command']}: {p}")
        per_seed.append((seed, metrics, raw, results, attempted, failed))

    seed, metrics, _, results, attempted, failed = per_seed[0]
    record = run_record(args, results)
    record["runs"] = [
        {"seed": s, "metrics": m, "wall_clock_metrics": rm, "attempted": a, "failed": f,
         "commands": rs}
        for s, m, rm, rs, a, f in per_seed
    ]
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    out = os.path.join(WORK, "results", f"{w.name}-seed{seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    correct = failed == 0 and all(v is not None for v in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
