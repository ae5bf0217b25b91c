"""Command-line front end.

Subcommands:

    simulate  <config>   run a simulation, write monitor CSV + snapshots
    calibrate <config>   pin the interpolation/growth constants on a corpus
    verify    <rundir>   re-evaluate every check on a finished run
    report    <rundir>   emit plot-ready per-monitor series and a summary

Exit codes are a contract: 0 success, 1 usage or config error or a
damaged run directory, 2 numerical blowup (partial outputs preserved),
3 verification failure.  Errors are reported in one line on stderr.

The monitor CSV columns are, in order: t, energy, then per configured pair
(lp, serrin, serrin_int, log_serrin, log_serrin_int), then linf, sobolev1,
sobolev2, sobolev3, bkm, bkm_int, chan_vasseur, chan_vasseur_int,
identity_residual, gronwall_bound, and two trailing diagnostics
(ddt_sobolev2_sq, embed_ratio).  Values carry 17 significant digits, so a
re-read reproduces every double bit for bit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import criteria as crit
from . import snapshot as snap
from . import solver as solv
from .config import (
    ConfigError,
    build_criterion_config,
    build_solver_config,
    parse_config,
    parse_seed_list,
)
from .criteria import (
    PAIR_COLUMNS,
    SAMPLE_COLUMNS,
    CalibrationEntry,
    CalibrationRecord,
    MonitorSample,
    MonitorSeries,
    PairSample,
    SerrinPair,
)
from .spectral import Grid, NonFiniteSamples, fft_forward

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


def csv_columns(pairs: tuple[SerrinPair, ...]) -> list[str]:
    """t and energy, then one block of PAIR_COLUMNS per pair, then the rest."""
    pair_cols = [f"{c}_{pair.label}" for pair in pairs for c in PAIR_COLUMNS]
    return [*SAMPLE_COLUMNS[:2], *pair_cols, *SAMPLE_COLUMNS[2:]]


def _row_values(s: MonitorSample) -> dict[str, float]:
    """Every CSV value of one sample, keyed by column name."""
    row = {c: getattr(s, c) for c in SAMPLE_COLUMNS}
    for lab, ps in s.pairs.items():
        row.update({f"{c}_{lab}": getattr(ps, c) for c in PAIR_COLUMNS})
    return row


def write_series_csv(path: str, series: MonitorSeries) -> None:
    cols = csv_columns(series.pairs)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for s in series.samples:
            row = _row_values(s)
            fh.write(",".join(f"{row[c]:.17g}" for c in cols) + "\n")


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
    calibration: dict | None
    exit_status: int

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls(**json.loads(text))

    def serrin_pairs(self) -> tuple[SerrinPair, ...]:
        return tuple(SerrinPair(_parse_pf(p), _parse_pf(s)) for p, s in self.pairs)

    def calibration_record(self) -> CalibrationRecord | None:
        if self.calibration is None:
            return None
        entries = {
            lab: CalibrationEntry(p=_parse_pf(e["p"]), c_gn=e["c_gn"], c_cal=e["c_cal"])
            for lab, e in self.calibration["entries"].items()
        }
        return CalibrationRecord(
            mu=self.calibration["mu"],
            entries=entries,
            corpus=self.calibration.get("corpus", ""),
        )


def _parse_pf(raw: str) -> float:
    return math.inf if str(raw) == "inf" else float(raw)


def _calibration_json(rec: CalibrationRecord | None) -> dict | None:
    if rec is None:
        return None
    return {
        "mu": rec.mu,
        "corpus": rec.corpus,
        "entries": {
            lab: {"p": crit._fmt_num(e.p), "c_gn": e.c_gn, "c_cal": e.c_cal}
            for lab, e in rec.entries.items()
        },
    }


class DirectorySink(solv.RunSink):
    def __init__(self, outdir: str):
        self.outdir = outdir
        self.snapshots: list[str] = []

    def snapshot(self, step_index: int, t: float, field) -> None:
        name = f"snap_{step_index:08d}.bin"
        snap.write_snapshot(os.path.join(self.outdir, name), field, t)
        if name not in self.snapshots:
            self.snapshots.append(name)


def cmd_simulate(config_path: str) -> int:
    raw = parse_config(config_path)
    solver_cfg = build_solver_config(raw)
    criterion_cfg = build_criterion_config(raw)
    outdir = raw.require("output.dir")
    if not os.path.isabs(outdir):
        outdir = os.path.join(os.path.dirname(os.path.abspath(config_path)), outdir)
    os.makedirs(outdir, exist_ok=True)
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
        calibration=_calibration_json(criterion_cfg.calibration),
        exit_status=status,
    )
    with open(os.path.join(outdir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        fh.write(manifest.to_json() + "\n")
    print(f"run written to {outdir} ({len(series.samples)} samples)")
    return status


def cmd_calibrate(config_path: str) -> int:
    raw = parse_config(config_path)
    n = raw.get_int("grid.n")
    length = raw.get_float("grid.length", 2.0 * math.pi)
    mu = raw.get_float("fluid.mu")
    amplitude = raw.get_float("init.amplitude", 1.0)
    slope = raw.get_float("init.spectrum_slope", -2.0)
    seeds = parse_seed_list(raw.require("calibration.seeds"))
    if not seeds:
        raise ConfigError("empty corpus", key="calibration.seeds")
    p_list = [
        _parse_pf(tok.strip())
        for tok in raw.require("calibration.p").split(",")
        if tok.strip()
    ]
    if not p_list:
        raise ConfigError("no exponents given", key="calibration.p")
    outdir = raw.require("output.dir")
    if not os.path.isabs(outdir):
        outdir = os.path.join(os.path.dirname(os.path.abspath(config_path)), outdir)
    os.makedirs(outdir, exist_ok=True)

    grid = Grid(n, length)
    corpus = [
        solv.init_random_divfree(grid, seed, slope, amplitude) for seed in seeds
    ]
    entries: dict[str, CalibrationEntry] = {}
    for p in p_list:
        consts = crit.calibrate_constants(corpus, p, mu)
        entries[f"p{crit._fmt_num(p)}"] = CalibrationEntry(
            p=p, c_gn=consts["C_GN"], c_cal=consts["C_cal"]
        )
    record = CalibrationRecord(
        mu=mu,
        entries=entries,
        corpus=(
            f"random_divfree n={n} slope={slope!r} amplitude={amplitude!r} "
            f"seeds={seeds[0]}..{seeds[-1]} count={len(seeds)}"
        ),
    )
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


def _samples_from_columns(
    cols: dict[str, np.ndarray], pairs: tuple[SerrinPair, ...]
) -> list[MonitorSample]:
    """Monitor samples of a read CSV; KeyError names a missing column."""
    return [
        MonitorSample(
            pairs={
                pair.label: PairSample(
                    **{c: cols[f"{c}_{pair.label}"][i] for c in PAIR_COLUMNS}
                )
                for pair in pairs
            },
            **{c: cols[c][i] for c in SAMPLE_COLUMNS},
        )
        for i in range(len(cols["t"]))
    ]


def run_checks(rundir: str) -> tuple[list[CheckResult], bool]:
    """Every check of ``verify`` on one run directory.

    Raises DamagedArtifact when the manifest, the CSV or a snapshot is
    missing or cannot be parsed.  A snapshot with non-finite samples is not
    damaged but a failed ``identity_snapshots`` check.
    """
    manifest_path = os.path.join(rundir, MANIFEST_NAME)
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = RunManifest.from_json(fh.read())
        pairs = manifest.serrin_pairs()
        record = manifest.calibration_record()
        mu = float(manifest.mu)
        csv_path = os.path.join(rundir, manifest.csv)
        snap_paths = [os.path.join(rundir, name) for name in manifest.snapshots]
    except _READ_ERRORS as exc:
        raise DamagedArtifact(f"manifest {manifest_path}: {exc!r}") from exc
    for p in snap_paths:
        if not os.path.exists(p):
            raise DamagedArtifact(f"missing snapshot: {p}")
    try:
        _, cols = read_series_csv(csv_path)
        samples = _samples_from_columns(cols, pairs)
        if not samples:
            raise ValueError("no sample rows")
    except _READ_ERRORS as exc:
        raise DamagedArtifact(f"monitor CSV {csv_path}: {exc!r}") from exc
    results: list[CheckResult] = []

    # energy budget: dE + 2 mu int ||grad u||^2 dt == 0, per gap and overall
    t = cols["t"]
    energy = cols["energy"]
    enstrophy = cols["sobolev1"] ** 2
    e0 = energy[0] if len(energy) else 0.0
    tol = ENERGY_TOL * max(e0, 1e-300)
    if len(t) > 1:
        seg = 0.5 * (enstrophy[1:] + enstrophy[:-1]) * np.diff(t)
        gap_residual = np.abs(np.diff(energy) + 2.0 * mu * seg)
        total_residual = abs(energy[-1] - energy[0] + 2.0 * mu * np.sum(seg))
        worst = float(max(gap_residual.max(), total_residual))
    else:
        worst = 0.0
    results.append(CheckResult("energy_law", worst <= tol, worst, tol))

    # identity residual column (already normalized by 1 + |lhs|)
    ident = cols["identity_residual"]
    finite = ident[~np.isnan(ident)]
    if finite.size:
        worst = float(finite.max())
        results.append(
            CheckResult("identity_series", worst <= IDENTITY_TOL, worst, IDENTITY_TOL)
        )

    # recompute identity and the Hoelder bound on every snapshot
    worst_ident = 0.0
    worst_holder = math.inf
    holder_ok = True
    cfg_duck = type("Cfg", (), {"mu": mu})()
    p_values = sorted({pair.p for pair in pairs})
    nonfinite = []
    for path in snap_paths:
        try:
            field_, t_snap = snap.read_snapshot(path)
        except NonFiniteSamples:
            nonfinite.append(os.path.basename(path))
            continue
        except _READ_ERRORS as exc:
            raise DamagedArtifact(f"snapshot {path}: {exc!r}") from exc
        state = solv.SolverState(t_snap, fft_forward(field_))
        res = crit.h2_identity_residual(state, cfg_duck)
        worst_ident = max(
            worst_ident, res["residual"] / (1.0 + abs(res["lhs"]))
        )
        for p in p_values:
            hc = crit.holder_check(state, p)
            holder_ok &= hc["satisfied"]
            worst_holder = min(worst_holder, hc["bound"] - hc["actual"])
    if nonfinite:
        worst_ident = math.inf
    if snap_paths:
        results.append(
            CheckResult(
                "identity_snapshots",
                worst_ident <= IDENTITY_TOL,
                worst_ident,
                IDENTITY_TOL,
                note=f"non-finite samples in {', '.join(nonfinite)}" if nonfinite else "",
            )
        )
        results.append(
            CheckResult(
                "holder_snapshots",
                bool(holder_ok),
                worst_holder,
                0.0,
                note="margin = min(bound - actual)",
            )
        )

    # growth inequality and Gronwall dominance per canonical calibrated pair
    if record is not None:
        for pair in pairs:
            entry = record.for_p(pair.p)
            if entry is None or not pair.is_canonical:
                continue
            ok = True
            margin = math.inf
            for s in samples:
                chk = crit.differential_inequality_check(s, pair, entry.c_cal, mu)
                ok &= chk["satisfied"]
                if not math.isinf(chk["rhs"]):
                    margin = min(margin, chk["rhs"] - chk["lhs"])
            results.append(
                CheckResult(
                    f"growth_inequality_{pair.label}", bool(ok), margin, 0.0,
                    note="margin = min(rhs - lhs)",
                )
            )
            series = MonitorSeries(pairs=pairs, samples=samples)
            bounds = crit.gronwall_bound(series, pair, entry.c_cal)
            # same expression as the bound's t = 0 value, so equality there is exact
            measured = np.array(
                [1.0 + math.log(math.e + v**2) for v in cols["sobolev2"]]
            )
            dom_margin = bounds - measured
            results.append(
                CheckResult(
                    f"gronwall_dominance_{pair.label}",
                    bool(np.all(bounds >= measured)),
                    float(np.min(dom_margin)),
                    0.0,
                    note="margin = min(bound - measured)",
                )
            )

    # pointwise-log domination, exact inequality, needs the (5, 5) pair
    five = next(
        (pr for pr in pairs if pr.p == 5.0 and pr.s == 5.0), None
    )
    if five is not None and not np.isnan(cols["chan_vasseur"]).all():
        log5 = cols[f"log_serrin_{five.label}"]
        cv = cols["chan_vasseur"]
        ok = bool(np.all(log5 <= cv))
        results.append(
            CheckResult(
                "pointwise_log_domination", ok, float(np.min(cv - log5)), 0.0,
                note="margin = min(chan_vasseur - log_serrin)",
            )
        )

    all_pass = all(r.passed for r in results)
    return results, all_pass


def cmd_verify(rundir: str) -> int:
    try:
        results, all_pass = run_checks(rundir)
    except DamagedArtifact as exc:
        # parser messages may span lines; the contract is one line
        print(f"damaged run directory: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_USAGE
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
    manifest_path = os.path.join(rundir, MANIFEST_NAME)
    csv_path = os.path.join(rundir, CSV_NAME)
    if not (os.path.exists(manifest_path) and os.path.exists(csv_path)):
        print(f"missing artifacts in {rundir}", file=sys.stderr)
        return EXIT_USAGE
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = RunManifest.from_json(fh.read())
    pairs = manifest.serrin_pairs()
    _, cols = read_series_csv(csv_path)
    outdir = os.path.join(rundir, REPORT_DIR)
    os.makedirs(outdir, exist_ok=True)

    def emit(name: str, values: np.ndarray) -> None:
        if np.isnan(values).all():
            return
        with open(
            os.path.join(outdir, f"{name}.dat"), "w", encoding="utf-8", newline="\n"
        ) as fh:
            for tv, vv in zip(cols["t"], values):
                fh.write(f"{tv:.17g} {vv:.17g}\n")

    emit("energy", cols["energy"])
    emit("linf", cols["linf"])
    emit("bkm", cols["bkm"])
    emit("chan_vasseur", cols["chan_vasseur"])
    emit("identity_residual", cols["identity_residual"])
    emit("gronwall_bound", cols["gronwall_bound"])
    for pair in pairs:
        lab = pair.label
        emit(f"serrin_{lab}", cols[f"serrin_{lab}"])
        emit(f"log_serrin_{lab}", cols[f"log_serrin_{lab}"])

    lines = ["pair  classical_integral  log_improved_integral  ratio"]
    for pair in pairs:
        lab = pair.label
        classical = cols[f"serrin_int_{lab}"][-1]
        logged = cols[f"log_serrin_int_{lab}"][-1]
        ratio = logged / classical if classical > 0 else math.nan
        lines.append(f"{lab}  {classical:.17g}  {logged:.17g}  {ratio:.6g}")
    with open(
        os.path.join(outdir, "summary.txt"), "w", encoding="utf-8", newline="\n"
    ) as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)

    if pressure:
        for name in manifest.snapshots:
            field_, t = snap.read_snapshot(os.path.join(rundir, name))
            q = solv.pressure_field(fft_forward(field_))
            out = os.path.join(outdir, name.replace("snap_", "pressure_"))
            snap.write_scalar_snapshot(out, q, t)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="regcrit",
        description="periodic-box Navier-Stokes solver with regularity-criterion monitors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sim = sub.add_parser("simulate", help="run a simulation from a config file")
    p_sim.add_argument("config")
    p_cal = sub.add_parser("calibrate", help="calibrate inequality constants")
    p_cal.add_argument("config")
    p_ver = sub.add_parser("verify", help="re-check every inequality on a run")
    p_ver.add_argument("rundir")
    p_rep = sub.add_parser("report", help="emit plot-ready series and a summary")
    p_rep.add_argument("rundir")
    p_rep.add_argument(
        "--pressure", action="store_true", help="also reconstruct pressure snapshots"
    )
    args = parser.parse_args(argv)

    try:
        if args.command == "simulate":
            return cmd_simulate(args.config)
        if args.command == "calibrate":
            return cmd_calibrate(args.config)
        if args.command == "verify":
            return cmd_verify(args.rundir)
        return cmd_report(args.rundir, pressure=args.pressure)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except crit.EmptyCorpus as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
