"""Command-line front end.

Subcommands:

    simulate  <config>   run a simulation, write monitor CSV + snapshots
    calibrate <config>   pin the interpolation/growth constants on a corpus
    verify    <rundir>   re-evaluate every check on a finished run
    report    <rundir>   emit plot-ready per-monitor series and a summary

Exit codes are a contract: 0 success, 1 usage or config error or a
damaged run directory, 2 numerical blowup (partial outputs preserved),
3 verification failure.  A command line that the parser rejects ends in one
``usage error:`` line, exit 1; ``--help`` prints the help, exit 0.  A
timestep that breaks a stability bound is a config error, also when only
the initial field shows it; such a run creates no run directory.  A
calibration record with no entry for a monitored canonical pair is a config
error in ``simulate`` and a failed ``growth_inequality_<pair>`` check in
``verify``.  An output that cannot be written, such as an
``output.dir`` or a run's ``report`` entry that names an existing file, is an
``output error:`` naming the path, exit 1.  A grid too large for memory
(``grid.n = 4096`` asks for hundreds of GiB) ends in ``out of memory:`` with
numpy's message, exit 1.  Errors are reported in one line on stderr.  A
velocity snapshot holds the state (``snapshot``); one of grid samples, as
written before snapshots held the state, makes its run directory damaged,
exit 1.

``verify`` reduces each check's per-item values with a NaN-propagating max
or min: a NaN or infinite residual, and a NaN margin, fails its check and
prints as its ``worst``, and floating-point overflow, on a snapshot or in a
CSV value whose square leaves the floating range, ends so, not in a warning
or a traceback.  A CSV value that a check reads and that is NaN or outside
its domain (a negative ``linf`` or ``identity_residual``, say) fails that
check, exit 3.  The ``monitor_domain`` check reads every norm column
(``energy``, ``lp_*``, ``linf``, ``sobolev1..3``, ``bkm``, ``chan_vasseur``):
a NaN or negative value fails it, its ``worst`` is the smallest value and
its note names that value's column; +inf is overflow and passes.  The
``derived_columns`` check re-derives the running integrals and
``gronwall_bound`` from their integrands, with the functions ``simulate``
ran, and fails on any difference (NaN matches NaN); its ``worst`` is the
largest relative difference, and the Gronwall check reads the re-derived
integrals.  ``gronwall_dominance_<pair>`` checks every sample, but its
margin is the smallest from sample 1 on (inf for a one-sample run): at t = 0
the bound equals the measured value by construction.

The monitor CSV is the monitor table as is: its header is exactly
``criteria.monitor_columns(pairs)`` for the manifest's pairs, in that order
(t, energy, then per configured pair lp, serrin, serrin_int, log_serrin,
log_serrin_int, then linf, sobolev1, sobolev2, sobolev3, bkm, bkm_int,
chan_vasseur, chan_vasseur_int, identity_residual, gronwall_bound,
ddt_sobolev2_sq, embed_ratio), and ``verify``/``report`` treat any other
header as a damaged run directory.  Values carry 17 significant digits, so a
re-read reproduces every double bit for bit.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import criteria as crit
from . import norms
from . import snapshot as snap
from . import solver as solv
from .config import (
    ConfigError,
    _parse_float,
    build_calibration_config,
    build_criterion_config,
    build_solver_config,
    output_dir,
    parse_config,
)
from .criteria import (
    CalibrationRecord,
    MonitorSeries,
    SerrinPair,
    monitor_columns,
)
from .spectral import Grid, NonFiniteSamples, to_physical

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BLOWUP = 2
EXIT_VERIFY = 3

CSV_NAME = "monitors.csv"
MANIFEST_NAME = "manifest.json"
CALIBRATION_NAME = "calibration.txt"
REPORT_DIR = "report"

ENERGY_TOL = 1e-5
IDENTITY_TOL = 1e-8

#: what reading or parsing a damaged run-directory file raises
_READ_ERRORS = (OSError, ValueError, KeyError, TypeError)


class DamagedArtifact(Exception):
    """A run-directory file is missing, unreadable or malformed."""


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a usage error raises ``argparse.ArgumentError``
    for :func:`main` to report in one line with exit 1, where argparse
    prints the usage too and exits with 2, the code of a numerical blowup.
    Subcommand parsers are of the same class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def write_series_csv(path: str, series: MonitorSeries) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(series.table) + "\n")
        for row in zip(*series.table.values()):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_series_csv(path: str) -> tuple[list[str], dict[str, np.ndarray]]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    data = np.array(
        [[float(v) for v in row] for row in rows], dtype=np.float64
    ).reshape(len(rows), len(cols))
    return cols, {c: data[:, i] for i, c in enumerate(cols)}


@dataclass
class RunManifest:
    """Self-contained description of one run directory."""

    config: str
    output_dir: str
    csv: str
    snapshots: list[str]
    grid_n: int
    grid_length: float
    mu: float
    dt: float
    t_end: float
    monitor_stride: int
    snapshot_stride: int
    pairs: list[list[str]]
    calibration: str | None  # CalibrationRecord.to_text()
    exit_status: int

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls(**json.loads(text))

    def serrin_pairs(self) -> tuple[SerrinPair, ...]:
        return tuple(SerrinPair(_parse_float(p), _parse_float(s)) for p, s in self.pairs)


class DirectorySink(solv.RunSink):
    """Writes snapshots into ``outdir``, created at the first write, so a run
    rejected before its first snapshot leaves no directory behind."""

    def __init__(self, outdir: str):
        self.outdir = outdir
        self.snapshots: list[str] = []

    def snapshot(self, step_index: int, t: float, field) -> None:
        os.makedirs(self.outdir, exist_ok=True)
        name = f"snap_{step_index:08d}.bin"
        snap.write_snapshot(os.path.join(self.outdir, name), field, t)
        self.snapshots.append(name)


def cmd_simulate(config_path: str) -> int:
    raw = parse_config(config_path)
    solver_cfg = build_solver_config(raw)
    criterion_cfg = build_criterion_config(raw)
    record = criterion_cfg.calibration
    outdir = output_dir(raw)
    sink = DirectorySink(outdir)

    status = EXIT_OK
    try:
        series = solv.run(solver_cfg, criterion_cfg, sink)
    except solv.NumericalBlowup as exc:
        print(f"numerical blowup: {exc}", file=sys.stderr)
        series = exc.series if exc.series is not None else MonitorSeries(
            pairs=criterion_cfg.pairs
        )
        status = EXIT_BLOWUP

    os.makedirs(outdir, exist_ok=True)
    write_series_csv(os.path.join(outdir, CSV_NAME), series)
    manifest = RunManifest(
        config=os.path.abspath(config_path),
        output_dir=outdir,
        csv=CSV_NAME,
        snapshots=sink.snapshots,
        grid_n=solver_cfg.grid.n,
        grid_length=solver_cfg.grid.length,
        mu=solver_cfg.mu,
        dt=solver_cfg.dt,
        t_end=solver_cfg.t_end,
        monitor_stride=solver_cfg.monitor_stride,
        snapshot_stride=solver_cfg.snapshot_stride,
        pairs=[[crit._fmt_num(p.p), crit._fmt_num(p.s)] for p in criterion_cfg.pairs],
        calibration=None if record is None else record.to_text(),
        exit_status=status,
    )
    with open(os.path.join(outdir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        fh.write(manifest.to_json() + "\n")
    print(f"run written to {outdir} ({len(series)} samples)")
    return status


def cmd_calibrate(config_path: str) -> int:
    raw = parse_config(config_path)
    cfg = build_calibration_config(raw)
    outdir = output_dir(raw)

    # one field at a time: only its ratios outlive it, so memory does not
    # grow with the corpus
    ratios: dict[float, list[float]] = {p: [] for p in cfg.exponents}
    for seed in cfg.seeds:
        U = solv.init_random_divfree(cfg.grid, seed, cfg.spectrum_slope, cfg.amplitude)
        hessian = crit.hessian_magnitude(U)
        power = np.abs(U.kept) ** 2
        sob2 = norms.sobolev_seminorm(cfg.grid, power, 2)
        sob3 = norms.sobolev_seminorm(cfg.grid, power, 3)
        for p, values in ratios.items():
            values.append(norms.gn_ratio(cfg.grid, p, hessian, sob2, sob3))
        del U, hessian, power
    entries = {
        crit.calibration_key(p): crit.calibrate_constants(ratios[p], p, cfg.mu)
        for p in cfg.exponents
    }
    seeds = cfg.seeds
    record = CalibrationRecord(
        mu=cfg.mu,
        entries=entries,
        corpus=(
            f"random_divfree n={cfg.grid.n} slope={cfg.spectrum_slope!r} "
            f"amplitude={cfg.amplitude!r} seeds={seeds[0]}..{seeds[-1]} count={len(seeds)}"
        ),
    )
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, CALIBRATION_NAME)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(record.to_text())
    print(f"calibration written to {path}")
    for lab in sorted(entries):
        e = entries[lab]
        print(f"  {lab}: C_GN={e.c_gn:.12g} C_cal={e.c_cal:.12g}")
    return EXIT_OK


@dataclass
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" [{self.note}]" if self.note else ""
        return f"{self.name}: {status} (worst={self.worst:.6g}, tol={self.tol:.6g}){extra}"


@dataclass
class _Run:
    """The parsed manifest and monitor CSV of one run directory."""

    record: CalibrationRecord | None
    mu: float
    grid: Grid
    snap_paths: list[str]
    series: MonitorSeries


def _load_run(rundir: str) -> _Run:
    """Read and validate the manifest and monitor CSV of a run directory.

    Raises DamagedArtifact when either is missing or cannot be parsed (a
    calibration that is not a record's text included), when the CSV header
    is not exactly ``monitor_columns`` of the manifest's pairs, when the CSV
    has no sample rows or its times do not increase, or when a listed
    snapshot is missing.  ``grid`` is the manifest's grid, the one every
    snapshot of the run must be on.
    """
    manifest_path = os.path.join(rundir, MANIFEST_NAME)
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = RunManifest.from_json(fh.read())
        pairs = manifest.serrin_pairs()
        if manifest.calibration is None:
            record = None
        elif isinstance(manifest.calibration, str):
            record = CalibrationRecord.from_text(manifest.calibration)
        else:
            raise TypeError("calibration is not a calibration record's text")
        mu = float(manifest.mu)
        grid = Grid(manifest.grid_n, float(manifest.grid_length))
        if record is not None and record.mu != mu:
            raise ValueError(
                f"calibration record is for mu = {record.mu!r}, not the run's mu = {mu!r}"
            )
        csv_path = os.path.join(rundir, manifest.csv)
        snap_paths = [os.path.join(rundir, name) for name in manifest.snapshots]
    except _READ_ERRORS as exc:
        raise DamagedArtifact(f"manifest {manifest_path}: {exc!r}") from exc
    for p in snap_paths:
        if not os.path.exists(p):
            raise DamagedArtifact(f"missing snapshot: {p}")
    try:
        header, cols = read_series_csv(csv_path)
        if header != monitor_columns(pairs):
            raise ValueError("header is not the monitor columns of the manifest's pairs")
        series = MonitorSeries.from_columns(pairs, cols)
        if not len(series):
            raise ValueError("no sample rows")
    except _READ_ERRORS as exc:
        raise DamagedArtifact(f"monitor CSV {csv_path}: {exc!r}") from exc
    return _Run(record, mu, grid, snap_paths, series)


def _largest_residual(name: str, residuals, tol: float, note: str = "") -> CheckResult:
    """Passes when every residual is at most ``tol``; worst is the largest."""
    worst = float(np.max(residuals))
    return CheckResult(name, worst <= tol, worst, tol, note)


def _smallest_margin(name: str, holds, margins, margin: str) -> CheckResult:
    """Passes when every item holds; worst is the smallest of the margins
    (inf if none), each the difference that ``margin`` names."""
    worst = float(np.min(margins, initial=math.inf))
    passed = bool(np.all(holds)) and not math.isnan(worst)
    return CheckResult(name, passed, worst, 0.0, note=f"margin = min({margin})")


def _snapshot_checks(path: str, grid: Grid, mu: float, p_values):
    """The H^2 identity residual of the snapshot at ``path``, and per p of
    ``p_values`` whether its Hoelder bound holds and by what margin; None
    when the samples of its state are not finite.

    The snapshot is the state ``simulate`` stepped, so the residual is the
    monitor CSV's of that step bit for bit.  Its samples live only until
    |u| is taken from them, and nothing of the snapshot outlives the call,
    so beside the quadrature only |u|, the state and its right-hand side
    are live at its peak.  Raises DamagedArtifact when the snapshot cannot
    be read or is not on ``grid``.
    """
    try:
        u_hat, _ = snap.read_snapshot(path, grid)
    except _READ_ERRORS as exc:
        raise DamagedArtifact(f"snapshot {path}: {exc!r}") from exc
    try:
        mag = to_physical(u_hat).magnitude()
    except NonFiniteSamples:
        return None
    rhs_hat = solv.nonlinear_rhs(u_hat)
    quad = crit.hessian_quadrature(u_hat)
    sob3 = norms.sobolev_seminorm(grid, np.abs(u_hat.kept) ** 2, 3)
    residual = crit.h2_identity_residual(u_hat, mu, rhs_hat, quad, sob3)["residual"]
    holds, margins = [], []
    for p in p_values:
        hc = crit.holder_check(grid, p, quad, mag, sob3)
        holds.append(hc["satisfied"])
        margins.append(hc["bound"] - hc["actual"])
    return residual, holds, margins


@np.errstate(all="ignore")
def run_checks(rundir: str) -> tuple[list[CheckResult], bool]:
    """Every check of ``verify`` on one run directory.

    A NaN or infinite residual, and a NaN margin, fails its check and prints
    as its ``worst``; floating-point overflow ends so, not in a warning.

    Raises DamagedArtifact when the manifest, the CSV or a snapshot is
    missing or cannot be parsed, or when a snapshot's grid is not the
    manifest's.  A state with non-finite samples is not damaged but an
    infinite residual of the ``identity_snapshots`` check.
    """
    run = _load_run(rundir)
    record, mu, snap_paths, series = run.record, run.mu, run.snap_paths, run.series
    pairs = series.pairs
    results: list[CheckResult] = []

    # the primary norm columns: a NaN or a negative value is no norm, while
    # +inf is overflow and legal; worst is the smallest value, of the column
    # the note names (a NaN column first)
    lows = {
        name: float(np.min(series.column(name)))
        for name in ("energy", *(f"lp_{pr.label}" for pr in pairs), "linf",
                     "sobolev1", "sobolev2", "sobolev3", "bkm", "chan_vasseur")
    }
    low = next((name for name, v in lows.items() if math.isnan(v)), min(lows, key=lows.get))
    results.append(
        _smallest_margin("monitor_domain", [v >= 0.0 for v in lows.values()], [lows[low]], low)
    )

    # the Serrin integrands and embed_ratio, re-derived row by row from the
    # norm columns, then the running integrals and the Gronwall bound from
    # the integrands, by the functions simulate ran; the CSV's 17 digits
    # round-trip, so they must match bit for bit (NaN matching NaN)
    derived = MonitorSeries.from_columns(pairs, {c: series.column(c) for c in series.table})
    table = derived.table
    table["gronwall_bound"] = [math.nan] * len(derived)
    for r, (linf, sob2) in enumerate(zip(table["linf"], table["sobolev2"])):
        for pr in pairs:
            for name, value in crit.pair_columns(pr, table[f"lp_{pr.label}"][r], linf).items():
                table[name][r] = value
        table["embed_ratio"][r] = crit.embed_ratio(sob2, linf)
    crit.accumulate(derived)
    crit.attach_gronwall(derived, record)
    names = ["bkm_int", "chan_vasseur_int", "gronwall_bound", "embed_ratio"]
    names += [f"{c}_{pr.label}" for pr in pairs
              for c in ("serrin", "serrin_int", "log_serrin", "log_serrin_int")]
    stored = np.array([series.column(c) for c in names])
    fresh = np.array([derived.column(c) for c in names])
    same = (stored == fresh) | (np.isnan(stored) & np.isnan(fresh))
    diffs = np.where(same, 0.0, np.abs(stored - fresh) / np.abs(fresh))
    results.append(_largest_residual("derived_columns", diffs, 0.0))

    # energy budget: dE + 2 mu int ||grad u||^2 dt == 0, per gap and overall
    t = series.column("t")
    energy = series.column("energy")
    enstrophy = series.column("sobolev1") ** 2
    seg = 0.5 * (enstrophy[1:] + enstrophy[:-1]) * np.diff(t)
    gap_residual = np.abs(np.diff(energy) + 2.0 * mu * seg)
    total_residual = abs(energy[-1] - energy[0] + 2.0 * mu * np.sum(seg))
    tol = ENERGY_TOL * max(energy[0], 1e-300)
    results.append(_largest_residual("energy_law", np.append(gap_residual, total_residual), tol))

    # identity residual column (already normalized by 1 + |lhs|; NaN = not
    # computed); a residual is never negative, so a negative one fails by size
    ident = series.column("identity_residual")
    computed = ident[~np.isnan(ident)]
    if computed.size:
        results.append(_largest_residual("identity_series", np.abs(computed), IDENTITY_TOL))

    # recompute identity and the Hoelder bound on every snapshot
    residuals, holder_holds, holder_margins = [], [], []
    p_values = sorted({pair.p for pair in pairs})
    nonfinite = []
    for path in snap_paths:
        checked = _snapshot_checks(path, run.grid, mu, p_values)
        if checked is None:
            nonfinite.append(os.path.basename(path))
            residuals.append(math.inf)
            continue
        residual, holds, margins = checked
        residuals.append(residual)
        holder_holds += holds
        holder_margins += margins
    if snap_paths:
        note = f"non-finite samples in {', '.join(nonfinite)}" if nonfinite else ""
        results.append(_largest_residual("identity_snapshots", residuals, IDENTITY_TOL, note))
        results.append(
            _smallest_margin("holder_snapshots", holder_holds, holder_margins, "bound - actual")
        )

    # growth inequality and Gronwall dominance per canonical calibrated pair
    if record is not None:
        for pair in pairs:
            if not pair.is_canonical:
                continue
            entry = record.for_p(pair.p)
            if entry is None:
                results.append(
                    CheckResult(
                        f"growth_inequality_{pair.label}", False, math.nan, 0.0,
                        note=f"no calibration entry for p = {crit._fmt_num(pair.p)}",
                    )
                )
                continue
            growth = crit.differential_inequality_check(series, pair, entry.c_cal, mu)
            results.append(
                _smallest_margin(
                    f"growth_inequality_{pair.label}", growth["satisfied"],
                    growth["rhs"] - growth["lhs"], "rhs - lhs",
                )
            )
            # in log units, so the bound never overflows; it equals the
            # measured value at t = 0 by construction, so the margin and the
            # budget used are taken from sample 1 on
            gron = crit.gronwall_log_check(derived, pair, entry.c_cal)
            check = _smallest_margin(
                f"gronwall_dominance_{pair.label}", gron["satisfied"],
                (gron["rhs"] - gron["lhs"])[1:], "ln bound - ln measured, t > 0",
            )
            used = gron["used"][1:]
            used = used[~np.isnan(used)]
            check.note += f"; budget used = {used.max() if used.size else math.nan:.6g}"
            results.append(check)

    # pointwise-log domination, exact inequality, needs the (5, 5) pair
    five = next((pr for pr in pairs if pr.p == 5.0 and pr.s == 5.0), None)
    if five is not None:
        log5 = series.column(f"log_serrin_{five.label}")
        cv = series.column("chan_vasseur")
        results.append(
            _smallest_margin(
                "pointwise_log_domination", log5 <= cv, cv - log5, "chan_vasseur - log_serrin"
            )
        )

    all_pass = all(r.passed for r in results)
    return results, all_pass


def cmd_verify(rundir: str) -> int:
    results, all_pass = run_checks(rundir)
    report_path = os.path.join(rundir, "verify_report.txt")
    lines = [r.line() for r in results]
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    if not all_pass:
        failed = ", ".join(r.name for r in results if not r.passed)
        print(f"verification failed: {failed}", file=sys.stderr)
    return EXIT_OK if all_pass else EXIT_VERIFY


def cmd_report(rundir: str, pressure: bool = False) -> int:
    run = _load_run(rundir)
    series = run.series
    t = series.table["t"]
    outdir = os.path.join(rundir, REPORT_DIR)
    os.makedirs(outdir, exist_ok=True)

    def emit(name: str, values: np.ndarray) -> None:
        if np.isnan(values).all():
            return
        with open(
            os.path.join(outdir, f"{name}.dat"), "w", encoding="utf-8", newline="\n"
        ) as fh:
            for tv, vv in zip(t, values):
                fh.write(f"{tv:.17g} {vv:.17g}\n")

    names = ["energy", "linf", "bkm", "chan_vasseur", "identity_residual", "gronwall_bound"]
    names += [f"{c}_{pair.label}" for pair in series.pairs for c in ("serrin", "log_serrin")]
    for name in names:
        emit(name, series.column(name))

    lines = ["pair  classical_integral  log_improved_integral  ratio"]
    for pair in series.pairs:
        lab = pair.label
        classical = series.table[f"serrin_int_{lab}"][-1]
        logged = series.table[f"log_serrin_int_{lab}"][-1]
        ratio = logged / classical if classical > 0 else math.nan
        lines.append(f"{lab}  {classical:.17g}  {logged:.17g}  {ratio:.6g}")
    with open(
        os.path.join(outdir, "summary.txt"), "w", encoding="utf-8", newline="\n"
    ) as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)

    if pressure:
        for path in run.snap_paths:
            try:
                u_hat, t_snap = snap.read_snapshot(path, run.grid)
            except _READ_ERRORS as exc:
                raise DamagedArtifact(f"snapshot {path}: {exc!r}") from exc
            try:
                with np.errstate(all="ignore"):  # an overflowing pressure is non-finite
                    q = solv.pressure_field(u_hat)
            except NonFiniteSamples as exc:
                raise DamagedArtifact(f"snapshot {path}: non-finite pressure ({exc})") from exc
            name = os.path.basename(path).replace("snap_", "pressure_")
            snap.write_scalar_snapshot(os.path.join(outdir, name), q, t_snap)
    return EXIT_OK


#: glibc's ``mallopt`` parameter numbers (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    By default glibc raises both thresholds when a large mapped block is
    freed, so whether the right-hand side's per-call arrays (about 1 MB
    each at n = 32) come from a heap that is reused, or are mapped and
    faulted in afresh on every call, depends on which larger arrays the
    process freed before.  With the derivative stream's 1.1 MB x-pass
    table in place of the old 3.2 MB one, a monitor-n32 ``simulate`` took
    209k minor faults under the default thresholds, and 7.0k with these.
    Fixed thresholds keep every array under 32 MiB on the heap and leave up
    to 64 MiB of freed heap in place, whatever ran before.  The value
    matters: with a 4 MiB mmap threshold a step-n64 ``simulate`` took 92k
    minor faults, against 11k.  A no-op where the C library has no
    ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="regcrit",
        description="periodic-box Navier-Stokes solver with regularity-criterion monitors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", help="run a simulation from a config file").add_argument("config")
    sub.add_parser("calibrate", help="calibrate inequality constants").add_argument("config")
    sub.add_parser("verify", help="re-check every inequality on a run").add_argument("rundir")
    p_rep = sub.add_parser("report", help="emit plot-ready series and a summary")
    p_rep.add_argument("rundir")
    p_rep.add_argument(
        "--pressure", action="store_true", help="also reconstruct pressure snapshots"
    )
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"usage error: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_USAGE
    _fix_malloc_thresholds()

    try:
        if args.command == "simulate":
            return cmd_simulate(args.config)
        if args.command == "calibrate":
            return cmd_calibrate(args.config)
        if args.command == "verify":
            return cmd_verify(args.rundir)
        return cmd_report(args.rundir, pressure=args.pressure)
    except (
        ConfigError,
        solv.UnstableTimestep,
        solv.InitialFieldOutOfRange,
        crit.ConstantOutOfRange,
    ) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DamagedArtifact as exc:
        # parser messages may span lines; the contract is one line
        print(f"damaged run directory: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # reads map to the errors above, so what is left is a failed write
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"out of memory: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
