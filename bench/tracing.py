"""Span tracer for the benchmark's traced run.

The tracer wraps every public function of the regcrit modules from the
benchmark's own files; ``src/`` is not touched.  A wrapped function is
patched in every module namespace that holds it (``norms.second_derivatives``
and ``criteria.second_derivatives`` are the same function, so both names get
the same wrapper).  ``spectral._fft`` is replaced by a proxy so that each call
into ``scipy.fft`` becomes a span that knows how many 3-D transforms its batch
holds and how many bytes it read and wrote.

Spans (name, start, end, parent, run id, extras) are kept in memory and
written out once, when the command ends.  :func:`layer_metrics` turns span
lists into the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
import tracemalloc

MODULES = ("spectral", "norms", "solver", "criteria", "snapshot", "config", "cli")

#: run() advances through this private function; its span is the "step" layer
STEP_SPAN = "solver._advance"
PRIVATE_SPANS = {STEP_SPAN}

#: spans whose tracemalloc peak is recorded (they never nest each other)
PEAK_SPANS = {STEP_SPAN, "criteria.h2_identity_residual", "criteria.holder_check"}

FFT_SPAN = "spectral.fft"
FFT_FORWARD = ("fftn", "rfftn")
FFT_INVERSE = ("ifftn", "irfftn")

MB = 1e6


class Tracer:
    """Records nested spans for one command (one run id)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.enabled = True
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, annotate=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        peak = name in PEAK_SPANS and not tracemalloc.is_tracing()
        if peak:
            tracemalloc.start()
        rec["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            if peak:
                rec["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()
        if annotate is not None:
            annotate(rec, args, kwargs, result)
        return result

    def wrap(self, fn, name, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, annotate)

        return traced


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _annotators(mods: dict) -> dict:
    evaluate = mods["criteria"].evaluate_sample
    write = mods["snapshot"].write_snapshot

    def on_evaluate(rec, args, kwargs, _result):
        a = _bound(evaluate, args, kwargs)
        rec["identity"] = bool(a["cfg"].identity and a["with_identity"])

    def on_write(rec, args, kwargs, _result):
        rec["bytes"] = os.path.getsize(_bound(write, args, kwargs)["path"])

    def on_read(rec, args, _kwargs, _result):
        rec["bytes"] = os.path.getsize(args[0])

    return {
        "criteria.evaluate_sample": on_evaluate,
        "snapshot.write_snapshot": on_write,
        "snapshot.read_snapshot": on_read,
    }


class FFTProxy:
    """Stands in for ``scipy.fft`` inside ``regcrit.spectral``."""

    def __init__(self, tracer: Tracer, module):
        self._tracer = tracer
        self._module = module

    def __getattr__(self, attr):
        fn = getattr(self._module, attr)
        if attr not in FFT_FORWARD + FFT_INVERSE:
            return fn
        direction = "forward" if attr in FFT_FORWARD else "inverse"

        def annotate(rec, args, _kwargs, result):
            x = args[0]
            rec["direction"] = direction
            rec["transforms"] = math.prod(x.shape[:-3])
            rec["bytes"] = x.nbytes + result.nbytes

        def call(*args, **kwargs):
            return self._tracer.call(FFT_SPAN, fn, args, kwargs, annotate)

        return call


def install(tracer: Tracer) -> None:
    """Patch every public regcrit function (plus the step function) with a
    span-recording wrapper, in every regcrit namespace that refers to it."""
    mods = {m: importlib.import_module(f"regcrit.{m}") for m in MODULES}
    annotators = _annotators(mods)
    wrapped = {}
    for short, mod in mods.items():
        for name, obj in vars(mod).items():
            full = f"{short}.{name}"
            if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                continue
            if name.startswith("_") and full not in PRIVATE_SPANS:
                continue
            wrapped[obj] = tracer.wrap(obj, full, annotators.get(full))
    namespaces = list(mods.values()) + [importlib.import_module("regcrit")]
    for mod in namespaces:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
    mods["spectral"]._fft = FFTProxy(tracer, mods["spectral"]._fft)


# --- analysis (runs in the benchmark parent, on the written span lists) ---


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another on one thread, so the sum of
    their durations is the part of the parent's interval they cover.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _ancestor(spans: list[dict], i: int, name: str) -> int | None:
    """Index of the nearest enclosing span called ``name``, or None."""
    p = spans[i]["parent"]
    while p is not None:
        if spans[p]["name"] == name:
            return p
        p = spans[p]["parent"]
    return None


def _step_windows(spans: list[dict], run_idx: int) -> list[int]:
    """convective_core_half calls per step of one solver.run span.

    Step i's window runs from the end of step i-1 (or the start of run) to the
    end of step i, so it holds the stage-1 term run() computes before calling
    the step function as well as the three stages inside it.  Calls after the
    last step belong to the final monitor sample, not to a step.
    """
    steps = [
        j for j, s in enumerate(spans) if s["parent"] == run_idx and s["name"] == STEP_SPAN
    ]
    calls = [
        spans[j]["start"]
        for j, s in enumerate(spans)
        if s["name"] == "spectral.convective_core_half"
        and _ancestor(spans, j, "solver.run") == run_idx
    ]
    counts = []
    lo = spans[run_idx]["start"]
    for j in steps:
        hi = spans[j]["end"]
        counts.append(sum(1 for t in calls if lo < t <= hi))
        lo = hi
    return counts


#: per-call inclusive mean time, in ms, is reported for each of these spans
MEAN_MS = (
    "spectral.convective_core_half",
    "spectral.full_from_half",
    "spectral.to_physical",
    "spectral.first_derivatives",
    "spectral.second_derivatives",
    "config.build_solver_config",
    "solver.init_random_divfree",
    "criteria.evaluate_sample",
    "criteria.h2_identity_residual",
    "criteria.holder_check",
    "criteria.calibrate_constants",
    "norms.hessian_lq_norm",
    "norms.gn_ratio",
    "norms.lp_norm",
    "norms.sobolev_seminorm",
    "snapshot.write_snapshot",
    "snapshot.read_snapshot",
    "cli.write_series_csv",
    "cli.read_series_csv",
    "cli.run_checks",
)

PEAK_MB = {
    "solver.step.peak_mb": STEP_SPAN,
    "criteria.h2_identity_residual.peak_mb": "criteria.h2_identity_residual",
    "criteria.holder_check.peak_mb": "criteria.holder_check",
}

#: name -> unit of every metric :func:`layer_metrics` returns
UNITS = {f"{name}.ms": "ms" for name in MEAN_MS}
UNITS.update({name: "MB" for name in PEAK_MB})
UNITS.update(
    {
        "criteria.evaluate_sample.identity_ms": "ms",
        "spectral.convective_core_half.calls_per_step": "count",
        "spectral.fft.inverse_per_rhs": "count",
        "spectral.fft.forward_per_rhs": "count",
        "spectral.fft.ms": "ms",
        "spectral.fft.total_ms": "ms",
        "spectral.fft.bytes_computed": "bytes",
        "solver.run.self_ms_per_step": "ms",
        "snapshot.write_snapshot.mb_per_s": "MB/s",
        "snapshot.read_snapshot.mb_per_s": "MB/s",
    }
)


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the layer did not run (den == 0)."""
    return num / den if den else 0.0


def layer_metrics(span_lists: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics over all commands of one traced pass.

    ``.ms`` is the mean inclusive duration per call; a layer that did not run
    reports 0.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    peak: dict[str, int] = {}
    nbytes: dict[str, int] = {}
    ident_calls = ident_total = 0.0
    fft_in_rhs = {"forward": 0, "inverse": 0}
    rhs_calls = 0
    step_calls: list[int] = []
    solver_self = 0.0
    for spans in span_lists:
        selfs = self_times(spans)
        for i, s in enumerate(spans):
            name, dur = s["name"], s["end"] - s["start"]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            if "peak_bytes" in s:
                peak[name] = max(peak.get(name, 0), s["peak_bytes"])
            if "bytes" in s:
                nbytes[name] = nbytes.get(name, 0) + s["bytes"]
            if name == "criteria.evaluate_sample" and s["identity"]:
                ident_calls += 1
                ident_total += dur
            if name == FFT_SPAN and (
                _ancestor(spans, i, "spectral.convective_core_half") is not None
            ):
                fft_in_rhs[s["direction"]] += s["transforms"]
            if name == "spectral.convective_core_half":
                rhs_calls += 1
            if name == "solver.run":
                step_calls += _step_windows(spans, i)
                solver_self += selfs[i]
            if name == STEP_SPAN and _ancestor(spans, i, "solver.run") is not None:
                solver_self += selfs[i]

    out = {f"{n}.ms": 1e3 * _ratio(total.get(n, 0.0), calls.get(n, 0)) for n in MEAN_MS}
    out["criteria.evaluate_sample.identity_ms"] = 1e3 * _ratio(ident_total, ident_calls)
    out["spectral.convective_core_half.calls_per_step"] = _ratio(sum(step_calls), len(step_calls))
    out["spectral.fft.inverse_per_rhs"] = _ratio(fft_in_rhs["inverse"], rhs_calls)
    out["spectral.fft.forward_per_rhs"] = _ratio(fft_in_rhs["forward"], rhs_calls)
    out["spectral.fft.ms"] = 1e3 * _ratio(total.get(FFT_SPAN, 0.0), calls.get(FFT_SPAN, 0))
    out["spectral.fft.total_ms"] = 1e3 * total.get(FFT_SPAN, 0.0)
    out["spectral.fft.bytes_computed"] = float(nbytes.get(FFT_SPAN, 0))
    out["solver.run.self_ms_per_step"] = 1e3 * _ratio(solver_self, len(step_calls))
    for metric, name in PEAK_MB.items():
        out[metric] = peak.get(name, 0) / MB
    for name in ("snapshot.write_snapshot", "snapshot.read_snapshot"):
        out[f"{name}.mb_per_s"] = _ratio(nbytes.get(name, 0) / MB, total.get(name, 0.0))
    return out
