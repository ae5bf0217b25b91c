"""Output checks, run in the child after its command has been timed.

Tolerances are the repository's own (``cli.IDENTITY_TOL``,
``cli.ENERGY_TOL``).  The monitor CSV is parsed here with the ``csv`` module
and the energy law re-derived, so these checks do not reuse the code paths
they check; the calibration record is read back through
``CalibrationRecord.from_text`` on purpose, to check the round trip.
"""

from __future__ import annotations

import csv
import json
import math
import os

from regcrit import cli
from regcrit.criteria import CalibrationRecord

from workloads import CALIB_DIR, FIXTURE, FIXTURE_DIR, PHYSICS, RUN_DIR, Shape, Workload

CALIBRATED = {"p5", "p6"}


def _calibrate(w: Workload, workdir: str) -> list[str]:
    path = os.path.join(workdir, CALIB_DIR, cli.CALIBRATION_NAME)
    with open(path, encoding="utf-8") as fh:
        record = CalibrationRecord.from_text(fh.read())
    problems = []
    if set(record.entries) != CALIBRATED:
        problems.append(f"calibration entries {sorted(record.entries)} != {sorted(CALIBRATED)}")
    for lab, e in record.entries.items():
        if not (math.isfinite(e.c_gn) and math.isfinite(e.c_cal)):
            problems.append(f"calibration {lab}: non-finite constant")
    if record.mu != float(PHYSICS["fluid.mu"]):
        problems.append(f"calibration mu {record.mu} != {PHYSICS['fluid.mu']}")
    if f"count={w.fields}" not in record.corpus:
        problems.append(f"calibration corpus {record.corpus!r} lacks count={w.fields}")
    return problems


def _read_csv(path: str) -> dict[str, list[float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {c: [float(r[i]) for r in body] for i, c in enumerate(header)}


def energy_law_worst(cols: dict[str, list[float]], mu: float) -> float:
    """Largest |dE + 2 mu int ||grad u||^2 dt| over sample gaps and overall."""
    t, e, s1 = cols["t"], cols["energy"], cols["sobolev1"]
    seg = [0.5 * (s1[i + 1] ** 2 + s1[i] ** 2) * (t[i + 1] - t[i]) for i in range(len(t) - 1)]
    gaps = [abs(e[i + 1] - e[i] + 2.0 * mu * seg[i]) for i in range(len(seg))]
    total = abs(e[-1] - e[0] + 2.0 * mu * sum(seg))
    return max(gaps + [total])


def _simulate(shape: Shape, rundir: str) -> list[str]:
    with open(os.path.join(rundir, cli.MANIFEST_NAME), encoding="utf-8") as fh:
        manifest = json.load(fh)
    problems = []
    if manifest["exit_status"] != cli.EXIT_OK:
        problems.append(f"manifest exit_status {manifest['exit_status']}")
    if len(manifest["snapshots"]) != shape.snapshots:
        problems.append(f"{len(manifest['snapshots'])} snapshots, expected {shape.snapshots}")
    cols = _read_csv(os.path.join(rundir, cli.CSV_NAME))
    if len(cols["t"]) != shape.samples:
        problems.append(f"{len(cols['t'])} monitor samples, expected {shape.samples}")
    ident = [v for v in cols["identity_residual"] if not math.isnan(v)]
    if len(ident) != shape.identity_samples:
        problems.append(f"{len(ident)} identity samples, expected {shape.identity_samples}")
    bad = [v for v in ident if not v <= cli.IDENTITY_TOL]
    if bad:
        problems.append(f"identity residual {max(bad):.3g} > {cli.IDENTITY_TOL}")
    if not all(v >= 1.0 for v in cols["gronwall_bound"]):  # inf is the overflow sentinel
        problems.append("gronwall_bound column not filled")
    if shape.dense:
        e0 = cols["energy"][0]
        worst = energy_law_worst(cols, float(PHYSICS["fluid.mu"]))
        if not worst <= cli.ENERGY_TOL * e0:
            problems.append(f"energy law residual {worst:.3g} > {cli.ENERGY_TOL} * E0")
    return problems


def _verify(w: Workload, workdir: str) -> list[str]:
    path = os.path.join(workdir, w.verified[0], "verify_report.txt")
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line]
    names = {line.split(":", 1)[0] for line in lines}
    problems = [f"verify: {line}" for line in lines if ": PASS " not in line]
    for needed in ("energy_law", "identity_snapshots", "holder_snapshots"):
        if needed not in names:
            problems.append(f"verify report lacks {needed}")
    return problems


CHECKS = {
    "calibrate": _calibrate,
    "simulate": lambda w, workdir: _simulate(w.shape, os.path.join(workdir, RUN_DIR)),
    "fixture": lambda w, workdir: _simulate(FIXTURE, os.path.join(workdir, FIXTURE_DIR)),
    "verify": _verify,
}


def check(command: str, w: Workload, workdir: str) -> list[str]:
    """Problems found in the outputs of ``command``; empty when all hold."""
    return CHECKS[command](w, workdir)
