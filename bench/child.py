"""Run one regcrit command in a fresh process and report how it went.

Usage: ``python3 bench/child.py SPEC.json [--no-probe]``.  The spec names the workload,
the command (calibrate, simulate, fixture, verify, or setup, which
only sets up), the run directory, whether to trace, and where to write the
result (and the spans, when tracing).

Set-up time runs from the first line of this file through ``import regcrit``,
``parse_config``, ``build_solver_config`` and ``build_criterion_config``; the
last one builds the initial field inside ``SolverConfig``.  The command then
runs through ``cli.main``, timed as a whole, with ``solver.run`` timed on its
own.  Outputs are checked after the timed part.

Every time is reported twice: as measured, and normalized by the CPU speed
:class:`SpeedProbe` samples while it runs.
"""

import signal
import sys
import time

_T0 = time.perf_counter()


class SpeedProbe:
    """Samples how fast this process's CPU runs, from inside the process.

    On a shared host the speed a process gets changes by tens of percent
    within seconds, and each CPU changes on its own, so a reference timed in
    another process or at another moment does not track it.  Every
    ``INTERVAL_S`` a SIGALRM handler times a fixed pure-Python loop on the
    measured thread.  A time normalized over an interval is its wall time,
    minus the probe's own time in it, scaled by ``NOMINAL_S`` over the median
    loop time in it: seconds on a CPU on which the loop takes ``NOMINAL_S``.
    Long native calls delay a sample until they return, so sampling is
    irregular but covers the whole interval.
    """

    INTERVAL_S = 0.05
    LOOP = 10_000
    #: about the loop's median time on the 2-CPU box the bench was tuned on
    NOMINAL_S = 0.0006

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _sample(self, _signum, _frame) -> None:
        t = time.perf_counter()
        acc = 0
        for i in range(self.LOOP):
            acc += i * i
        self.samples.append((t, time.perf_counter() - t))

    def normalized(self, start: float, end: float) -> tuple[float, float]:
        """(normalized seconds, slowdown) of the interval [start, end)."""
        inside = sorted(d for t, d in self.samples if start <= t < end)
        busy = end - start - sum(inside)
        if not inside:
            return busy, 1.0
        slowdown = inside[len(inside) // 2] / self.NOMINAL_S
        return busy / slowdown, slowdown


_PROBE = SpeedProbe()
#: traced runs report wall-clock times only, and tracemalloc would slow the
#: loop (it allocates ints) inside the spans it measures
NO_PROBE = "--no-probe"
if __name__ == "__main__" and NO_PROBE not in sys.argv:
    _PROBE.start()  # before the imports below, so set-up time is sampled too

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _versions() -> dict:
    import numpy
    import regcrit
    import scipy

    return {
        "regcrit": regcrit.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import regcrit
    from regcrit import cli, config, solver

    from workloads import CONFIGS, WORKLOADS

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(regcrit.__file__).startswith(src + os.sep):
        raise RuntimeError(f"regcrit imported from {regcrit.__file__}, not from {src}")

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer(spec["run_id"])
        tracing.install(tracer)

    command, workdir = spec["command"], spec["workdir"]
    w = WORKLOADS[spec["workload"]]
    cfg_path = os.path.join(workdir, CONFIGS[command])
    raw = config.parse_config(cfg_path)
    config.build_solver_config(raw)
    config.build_criterion_config(raw)
    intervals = {"setup_s": [(_T0, time.perf_counter())], "wall_s": [], "run_s": []}
    if command == "setup":
        return _write_result(spec, intervals, [])

    inner_run = solver.run

    def timed_run(*args, **kwargs):
        t = time.perf_counter()
        try:
            return inner_run(*args, **kwargs)
        finally:
            intervals["run_s"].append((t, time.perf_counter()))

    solver.run = timed_run

    target = os.path.join(workdir, w.verified[0]) if command == "verify" else cfg_path
    argv = ["simulate" if command == "fixture" else command, target]
    problems: list[str] = []
    t = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a raising command is a failed command, not a crash
        code = None
        problems.append(f"{command} raised {exc!r}")
        traceback.print_exc()
    intervals["wall_s"].append((t, time.perf_counter()))
    _PROBE.stop()

    if tracer is not None:
        tracer.enabled = False
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    if code != cli.EXIT_OK:
        problems.append(f"{command} exited with {code}")
    else:
        import checks

        try:
            problems += checks.check(command, w, workdir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"{command} outputs unreadable: {exc!r}")

    return _write_result(spec, intervals, problems)


def _write_result(spec: dict, intervals: dict, problems: list[str]) -> int:
    _PROBE.stop()
    result: dict = {"raw": {}, "slowdown": {}}
    for key, spans in intervals.items():
        norm = [_PROBE.normalized(a, b) for a, b in spans]
        result[key] = sum(v for v, _ in norm)
        result["raw"][key] = sum(b - a for a, b in spans)
        result["slowdown"][key] = [s for _, s in norm]
    result.update({
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "problems": problems,
        "versions": _versions(),
    })
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
