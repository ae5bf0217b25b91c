"""Regularity-criterion functionals and the energy-estimate verification
chain.

A run's monitors form one table, :class:`MonitorSeries`, whose only schema
is :func:`monitor_columns`: one float column per name, one row per sample,
with the running integrals and the Gronwall bound filled as whole columns
after the run.  The monitor CSV is this table as is.  A row is built in two
parts: :func:`grid_columns` reads the state's grid samples of u and curl u,
and :func:`evaluate_sample` takes those columns and the state's identity
quadrature and reads the rest from the spectrum, so the caller decides when
the samples and the quadrature exist (``solver.run`` takes the quadrature
before the samples on every step, and frees the samples before it calls
:func:`evaluate_sample`).

Monitored quantities per sample:

* classical Serrin integrand   ||u||_p^s          (pairs with 3/p + 2/s <= 1)
* log-improved Serrin integrand  ||u||_p^s / (1 + ln(e + ||u||_inf))
* Beale-Kato-Majda integrand   ||curl u||_inf
* Chan-Vasseur integrand       integral of |u|^5 / ln(e + |u|)
* the H^2 energy identity
    <grad^2 u, grad^2 du/dt> + mu ||grad^3 u||^2
      = -2 I[(d_i d_j u_l)(d_i u_m)(d_m d_j u_l)]
        -  I[(d_i d_j u_l)(d_i d_j u_m)(d_m u_l)]
  whose right side is Hoelder-bounded by 5 ||u||_p ||grad^2 u||_q ||grad^3 u||_2
  with q = 2p/(p-2)
* the differential inequality
    d/dt ||grad^2 u||^2 + mu ||grad^3 u||^2
      <= 2 C ||u||_p^{2p/(p-3)} / (1 + ln(e + ||u||_inf))
           * [1 + ln(e + ||grad^2 u||^2)] * ||grad^2 u||^2
  with C calibrated empirically, and its Gronwall consequence
    1 + ln(e + ||grad^2 u(t)||^2)
      <= [1 + ln(e + ||grad^2 u(0)||^2)] * exp(2 C int_0^t log-Serrin integrand)

The identity's right side, the Hoelder step and the interpolation ratio read
one quadrature per state: :func:`hessian_quadrature` streams the state's
derivatives once, one x-slab at a time (``spectral.derivative_slabs``), and
returns the right side and the pointwise |grad^2 u| that every L^q norm of
the Hessian needs.  There is one |grad^2 u|: ``calibrate``, which needs it
alone, takes :func:`hessian_magnitude`, which sums the same diagonal Gram
entries S[i, i] with the same helper in the same order, so the interpolation
ratio that ``calibrate`` pins and the one a run's quadrature gives are one
formula, bit for bit.

One floating-point policy holds throughout, numpy's: a power or product
that leaves the floating range is +inf, and a NaN stays NaN, so it fails the
check that reads it.  Neither aborts a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import norms as _norms
from .spectral import (
    Grid,
    SpectralVelocityField,
    VelocityField,
    derivative_slabs,
    parseval_sum,
)

E = math.e

#: literal constant of the Hoelder step bounding the identity right side
HOLDER_FACTOR = 5.0

#: multiplier applied to empirical maxima when pinning constants
CALIBRATION_SAFETY = 2.0

REL_SLACK = 1e-10


class NonMonotoneTime(ValueError):
    """Sample times must be strictly increasing."""


class ConstantOutOfRange(ValueError):
    """A calibrated constant leaves the floating range."""


def _fmt_num(x: float) -> str:
    if math.isinf(x):
        return "inf"
    if float(x) == int(x):
        return str(int(x))
    return repr(float(x))


@dataclass(frozen=True)
class SerrinPair:
    """Exponent pair (p, s) with 3/p + 2/s <= 1 and 3 < p <= inf."""

    p: float
    s: float

    def __post_init__(self):
        if not self.p > 3.0:
            raise ValueError(f"pair needs 3 < p <= inf, got p={self.p}")
        if not self.s > 0.0:
            raise ValueError(f"pair needs s > 0, got s={self.s}")
        three_over_p = 0.0 if math.isinf(self.p) else 3.0 / self.p
        if three_over_p + 2.0 / self.s > 1.0 + 1e-12:
            raise ValueError(
                f"(p={self.p}, s={self.s}) violates 3/p + 2/s <= 1"
            )

    @staticmethod
    def canonical_s(p: float) -> float:
        """Equality-case exponent 2p/(p-3) (2 for p = inf)."""
        return 2.0 if math.isinf(p) else 2.0 * p / (p - 3.0)

    @classmethod
    def canonical(cls, p: float) -> "SerrinPair":
        return cls(p, cls.canonical_s(p))

    @property
    def is_canonical(self) -> bool:
        return abs(self.s - self.canonical_s(self.p)) <= 1e-9 * max(1.0, self.s)

    @property
    def label(self) -> str:
        return f"p{_fmt_num(self.p)}_s{_fmt_num(self.s)}"


@dataclass(frozen=True)
class CalibrationEntry:
    p: float
    c_gn: float
    c_cal: float

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "c_gn", float(self.c_gn))
        object.__setattr__(self, "c_cal", float(self.c_cal))
        if not all(0.0 < c < math.inf for c in (self.c_gn, self.c_cal)):
            raise ValueError(
                f"calibrated constants must be finite and positive, got "
                f"c_gn={self.c_gn!r}, c_cal={self.c_cal!r}"
            )


def calibration_key(p: float) -> str:
    """A calibration record's key for exponent p, e.g. "p6", "p4.5", "pinf"."""
    return f"p{_fmt_num(p)}"


@dataclass
class CalibrationRecord:
    """Calibrated constants per exponent p, with corpus provenance."""

    mu: float
    entries: dict[str, CalibrationEntry]
    corpus: str = ""

    def for_p(self, p: float) -> CalibrationEntry | None:
        return self.entries.get(calibration_key(p))

    def to_text(self) -> str:
        lines = [f"mu = {self.mu!r}", f"corpus = {self.corpus}"]
        for key in sorted(self.entries):
            e = self.entries[key]
            lines.append(f"{key}.c_gn = {e.c_gn!r}")
            lines.append(f"{key}.c_cal = {e.c_cal!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CalibrationRecord":
        """The record that :meth:`to_text` wrote.

        A repeated key, a label other than ``calibration_key(p)`` of some
        3 < p <= inf, a field other than ``c_gn`` and ``c_cal``, and a record
        without entries are ValueErrors; a missing ``mu`` or constant is a
        KeyError.
        """
        kv: dict[str, str] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            if key in kv:
                raise ValueError(f"calibration record repeats the key {key!r}")
            kv[key] = val.strip()
        mu = float(kv.pop("mu"))
        corpus = kv.pop("corpus", "")
        entries: dict[str, CalibrationEntry] = {}
        for lab in sorted({k.rpartition(".")[0] for k in kv}):
            p = float(lab[1:]) if lab.startswith("p") else math.nan
            if not (p > 3.0 and calibration_key(p) == lab):
                raise ValueError(f"calibration label {lab!r} is not p<p> with 3 < p <= inf")
            entries[lab] = CalibrationEntry(
                p=p, c_gn=float(kv.pop(f"{lab}.c_gn")), c_cal=float(kv.pop(f"{lab}.c_cal"))
            )
        if kv:
            raise ValueError(f"calibration record has unknown fields {sorted(kv)}")
        if not entries:
            raise ValueError("calibration record has no entries")
        return cls(mu=mu, entries=entries, corpus=corpus)


@dataclass
class CriterionConfig:
    """Which Serrin pairs to monitor, with which calibrated constants.  The
    viscosity is the solver's alone (``SolverConfig.mu``), which
    :func:`evaluate_sample` takes as an argument."""

    pairs: tuple[SerrinPair, ...]
    calibration: CalibrationRecord | None = None
    #: not a setting: every run checks the identity; only the benchmark's
    #: tracer reads this
    identity: ClassVar[bool] = True
    identity_stride: int = 1  # steps between the (expensive) identity quadratures

    def __post_init__(self):
        self.pairs = tuple(self.pairs)
        if not self.pairs:
            raise ValueError("serrin monitors need at least one (p, s) pair")
        if self.identity_stride < 1:
            raise ValueError("identity_stride must be >= 1")


#: per-pair column stems, suffixed with the pair label in the table
SERRIN_COLUMNS = ("lp", "serrin", "serrin_int", "log_serrin", "log_serrin_int")


def monitor_columns(pairs: tuple[SerrinPair, ...]) -> list[str]:
    """The monitor table's schema, in monitor-CSV column order: t and energy,
    one block of SERRIN_COLUMNS per pair, then the pair-free functionals."""
    return [
        "t",
        "energy",
        *(f"{c}_{pair.label}" for pair in pairs for c in SERRIN_COLUMNS),
        "linf",
        "sobolev1",
        "sobolev2",
        "sobolev3",
        "bkm",
        "bkm_int",
        "chan_vasseur",
        "chan_vasseur_int",
        "identity_residual",
        "gronwall_bound",
        "ddt_sobolev2_sq",
        "embed_ratio",
    ]


class MonitorSeries:
    """Append-only, time-ordered table of every monitored functional.

    ``table`` holds one float list per name of :func:`monitor_columns`, in
    that order.  One writer appends rows; running integrals are filled by
    :func:`accumulate` (trapezoid rule, so they are exact on constant
    integrands and recomputable, hence idempotent).
    """

    def __init__(self, pairs: tuple[SerrinPair, ...]):
        self.pairs = tuple(pairs)
        self.table: dict[str, list[float]] = {
            c: [] for c in monitor_columns(self.pairs)
        }

    @classmethod
    def from_columns(
        cls, pairs: tuple[SerrinPair, ...], columns: dict[str, np.ndarray]
    ) -> "MonitorSeries":
        """A series holding the given whole columns (e.g. a read CSV)."""
        series = cls(pairs)
        series._check_keys(columns)
        if not np.all(np.diff(columns["t"]) > 0.0):
            raise NonMonotoneTime("sample times are not strictly increasing")
        series.table = {c: [float(v) for v in columns[c]] for c in series.table}
        return series

    def _check_keys(self, row) -> None:
        if set(row) != set(self.table):
            raise ValueError(
                "keys differ from the monitor columns: "
                f"{sorted(set(row) ^ set(self.table))}"
            )

    def __len__(self) -> int:
        return len(self.table["t"])

    def append(self, row: dict[str, float]) -> None:
        self._check_keys(row)
        times = self.table["t"]
        if times and not row["t"] > times[-1]:
            raise NonMonotoneTime(f"sample time {row['t']} not after {times[-1]}")
        for c, values in self.table.items():
            values.append(float(row[c]))

    def column(self, name: str) -> np.ndarray:
        return np.array(self.table[name])


def log_factor(x):
    """The paper's log factor 1 + ln(e + x), of a float or a column."""
    return 1.0 + np.log(E + x)


def _chan_vasseur(mag: np.ndarray, cell_volume: float) -> float:
    """Pointwise-log integrand: dx^3 * sum |u|^5 / ln(e + |u|); overflow is
    +inf.  The log and the quotient are taken in place: two grid fields."""
    with np.errstate(over="ignore"):
        num = mag**5
        den = np.add(E, mag)
        np.log(den, out=den)
        return float(np.sum(np.divide(num, den, out=num)) * cell_volume)


def accumulate(series: MonitorSeries) -> MonitorSeries:
    """Fill running trapezoid integrals of every integrand column in place.

    Recomputes from the integrand samples, so repeated calls are idempotent.
    Raises NonMonotoneTime when sample times fail to increase strictly.
    """
    t = series.column("t")
    if len(t) > 1 and not np.all(np.diff(t) > 0.0):
        raise NonMonotoneTime("sample times are not strictly increasing")

    def running(values: np.ndarray) -> np.ndarray:
        out = np.zeros_like(values)
        if len(values) > 1:
            seg = 0.5 * (values[1:] + values[:-1]) * np.diff(t)
            out[1:] = np.cumsum(seg)
        return out

    integrals = [("bkm", "bkm_int"), ("chan_vasseur", "chan_vasseur_int")]
    for pair in series.pairs:
        lab = pair.label
        integrals.append((f"serrin_{lab}", f"serrin_int_{lab}"))
        integrals.append((f"log_serrin_{lab}", f"log_serrin_int_{lab}"))
    for name, target in integrals:
        series.table[target] = running(series.column(name)).tolist()
    return series


def _h2_rate(
    u_hat: SpectralVelocityField, mu: float, rhs_hat: SpectralVelocityField
) -> float:
    """<grad^2 u, grad^2 du/dt>, half of d/dt ||grad^2 u||^2, with du/dt the
    instantaneous spectral right-hand side (projected convection plus exact
    viscous term); no time differencing."""
    g = u_hat.grid
    u = u_hat.kept
    dudt = rhs_hat.kept - mu * g.k_squared * u
    return parseval_sum(g, g.sobolev_weights[2] * np.real(np.conj(u) * dudt))


def _identity_lhs(
    u_hat: SpectralVelocityField, mu: float, rhs_hat: SpectralVelocityField, sob3: float
) -> float:
    """Spectral side of the H^2 identity: <grad^2 u, grad^2 du/dt> + mu ||grad^3 u||^2,
    with ``sob3`` the state's ||grad^3 u||_2 (``norms.sobolev_seminorm``)."""
    return _h2_rate(u_hat, mu, rhs_hat) + mu * sob3**2


@dataclass(frozen=True)
class HessianQuadrature:
    """What the identity, the Hoelder step and the interpolation ratio read
    of one state's derivative table."""

    rhs: float  # quadrature side of the H^2 identity
    # pointwise Frobenius magnitude |grad^2 u|, shape (n, n, n); None when
    # not asked for
    hessian: np.ndarray | None


def _gram(x_rows, y_rows, acc: np.ndarray, tmp: np.ndarray) -> None:
    """acc <- sum_k x_rows[k] * y_rows[k] pointwise, summed in k order: the
    first product is written into ``acc``, each further one is formed in
    ``tmp`` and added.  That is the sum started from zero, bit for bit but
    for the sign of a zero, and bit for bit when ``x_rows is y_rows``, since
    a square is never -0.0."""
    np.multiply(x_rows[0], y_rows[0], out=acc)
    for x, y in zip(x_rows[1:], y_rows[1:]):
        np.multiply(x, y, out=tmp)
        acc += tmp


def _contract(rows, grads: np.ndarray, acc: np.ndarray, tmp: np.ndarray,
              trace: np.ndarray | None) -> float:
    """sum_{a,b} <grads[a, b], G[a, b]>, where G[a, b] = sum_k rows[a][k] *
    rows[b][k] pointwise, formed in ``acc`` by :func:`_gram`.  G is
    symmetric, so only its 6 upper entries are formed, in row-major order;
    ``trace``, unless None, gains the 3 diagonal ones.

    Each inner product is numpy's own sum of a product formed in ``tmp``,
    not ``@``: that is a BLAS dot, which splits its sum across the BLAS
    threads, so its last bits depend on the thread count."""

    def dot(x: np.ndarray) -> float:
        np.multiply(x, acc, out=tmp)
        return tmp.sum()

    total = 0.0
    for a in range(3):
        for b in range(a, 3):
            _gram(rows[a], rows[b], acc, tmp)
            if a == b:
                total += dot(grads[a, a])
                if trace is not None:
                    trace += acc
            else:
                total += dot(grads[a, b]) + dot(grads[b, a])
    return float(total)


def _s_rows(hess) -> list[list[np.ndarray]]:
    """Per i, the 9 rows d_i d_j u_l of one slab of
    :func:`spectral.derivative_slabs`, (j, l) in row-major order: the rows
    whose Gram entries are S[i, m] = sum_{j,l} d_i d_j u_l d_m d_j u_l."""
    return [[hess[i][j][l] for j in range(3) for l in range(3)] for i in range(3)]


def hessian_quadrature(u_hat: SpectralVelocityField, magnitude: bool = True) -> HessianQuadrature:
    """Stream the state's first and second derivatives once and contract
    them.

    With S[i, m] = sum_{j,l} d_i d_j u_l d_m d_j u_l and
    T[l, m] = sum_{i,j} d_i d_j u_l d_i d_j u_m, pointwise, the identity's
    right side is -dx^3 (2 sum <d_i u_m, S[i, m]> + sum <d_m u_l, T[l, m]>),
    and |grad^2 u|^2 is the trace of S, summed from zero in i order, as
    :func:`hessian_magnitude` sums it.  Each entry of S and T is summed in
    place, (j, l) and (i, j) in row-major order (:func:`_gram`), and
    contracted before the next is formed.

    The derivatives come from one :func:`spectral.derivative_slabs` stream
    and are contracted one x-slab at a time, while the slab is in cache;
    each inner product is the sum of its per-slab sums in x order, and
    |grad^2 u| is written slab by slab.  The whole tables never exist:
    besides the x-passed spectra (the 9 fields (i k_x)^alpha u_c of ``n
    (2m+1) (m+1)`` complex lines, about 4 grid fields, since ``(2m+1) (m+1)`` is
    about ``2 n^2 / 9``) only one slab and |grad^2 u| are live.  Only the
    right side and |grad^2 u| outlive the call.

    With ``magnitude=False`` the trace is not summed and |grad^2 u| is None,
    so no grid field is allocated.  ``solver.run`` reads only the right
    side and holds the result across a stage-1 term; a grid field held
    there split the heap so that glibc trimmed it and the stage-1 term
    faulted its pages in again every few steps (a monitor-n32 ``simulate``
    took 39.5k minor faults, against 9.3k without the field, measured with
    getrusage).  The right side is the same bit for bit.
    """
    g = u_hat.grid
    hessian_sq = np.zeros(g.shape) if magnitude else None
    acc = tmp = None
    t1 = t2 = 0.0
    for x0, x1, grads, hess in derivative_slabs(u_hat):
        points = (x1 - x0) * g.n * g.n
        trace = hessian_sq[x0:x1].reshape(-1) if magnitude else None
        if acc is None:
            acc, tmp = np.empty(points), np.empty(points)
        t_rows = [[hess[i][j][l] for i in range(3) for j in range(3)] for l in range(3)]
        t1 += _contract(_s_rows(hess), grads, acc[:points], tmp[:points], trace)
        t2 += _contract(t_rows, grads, acc[:points], tmp[:points], None)
    w = g.cell_volume
    return HessianQuadrature(
        rhs=-2.0 * (w * t1) - w * t2,
        hessian=np.sqrt(hessian_sq, out=hessian_sq) if magnitude else None,
    )


def hessian_magnitude(U: SpectralVelocityField) -> np.ndarray:
    """Pointwise Frobenius magnitude |grad^2 u| of the second-derivative
    tensor, alone: the trace of S summed as :func:`hessian_quadrature` sums
    it, from zero in i order, each S[i, i] by :func:`_gram` in (j, l)
    order, so the two are equal bit for bit.

    The second derivatives come from one :func:`spectral.derivative_slabs`
    stream without the gradients and are contracted one x-slab at a time,
    into the output; the whole table never exists."""
    out = np.zeros(U.grid.shape)
    acc = tmp = None
    for x0, x1, _, hess in derivative_slabs(U, gradients=False):
        trace = out[x0:x1].reshape(-1)
        points = trace.size
        if acc is None:
            acc, tmp = np.empty(points), np.empty(points)
        for rows in _s_rows(hess):
            _gram(rows, rows, acc[:points], tmp[:points])
            trace += acc[:points]
    return np.sqrt(out, out=out)


def h2_identity_residual(
    u_hat: SpectralVelocityField,
    mu: float,
    rhs_hat: SpectralVelocityField,
    quad: HessianQuadrature,
    sob3: float,
) -> dict:
    """Residual of the H^2 energy identity on one state.

    ``rhs_hat`` is the state's projected convective term -P(omega x u)
    (``solver.nonlinear_rhs``), ``quad`` its :func:`hessian_quadrature` and
    ``sob3`` its ||grad^3 u||_2.  Returns {'lhs', 'rhs', 'residual'}, the
    residual being |lhs - rhs| / (1 + |lhs|).
    """
    lhs = _identity_lhs(u_hat, mu, rhs_hat, sob3)
    return {
        "lhs": lhs,
        "rhs": quad.rhs,
        "residual": abs(lhs - quad.rhs) / (1.0 + abs(lhs)),
    }


def holder_check(
    grid: Grid,
    p: float,
    quad: HessianQuadrature,
    magnitude: np.ndarray,
    sob3: float,
) -> dict:
    """Hoelder bound on the identity right side with the literal factor 5:
    |rhs| <= 5 ||u||_p ||grad^2 u||_{2p/(p-2)} ||grad^3 u||_2.

    ``quad`` is the state's :func:`hessian_quadrature`, ``magnitude`` the
    pointwise |u| of its grid samples and ``sob3`` its ||grad^3 u||_2
    (``norms.sobolev_seminorm``); all three serve every p checked on the
    state."""
    p = float(p)
    if not p > 3.0:
        raise ValueError(f"Hoelder step needs 3 < p <= inf, got {p}")
    q = 2.0 if math.isinf(p) else 2.0 * p / (p - 2.0)
    bound = (
        HOLDER_FACTOR
        * _norms.lp_norm(grid, magnitude, p)
        * _norms.hessian_lq_norm(grid, quad.hessian, q)
        * sob3
    )
    actual = abs(quad.rhs)
    return {
        "bound": bound,
        "actual": actual,
        "satisfied": bool(actual <= bound * (1.0 + REL_SLACK)),
    }


def differential_inequality_check(
    series: MonitorSeries, pair: SerrinPair, c_cal: float, mu: float
) -> dict:
    """Growth inequality for ||grad^2 u||^2 with the calibrated constant, on
    every sample of the series.

    lhs = d/dt ||grad^2 u||^2 + mu ||grad^3 u||^2, taken from the spectrally
    evaluated time derivative; rhs is the calibrated product with the
    log-improved integrand restored.  Returns the columns 'lhs', 'rhs' and
    'satisfied'.  A +inf rhs is a vacuous bound and holds; a NaN on either
    side does not.
    """
    lhs = series.column("ddt_sobolev2_sq") + mu * series.column("sobolev3") ** 2
    grow = series.column(f"lp_{pair.label}") ** SerrinPair.canonical_s(pair.p)
    h2 = series.column("sobolev2") ** 2
    rhs = 2.0 * c_cal * (grow / log_factor(series.column("linf"))) * log_factor(h2) * h2
    return {"lhs": lhs, "rhs": rhs, "satisfied": lhs <= rhs * (1.0 + REL_SLACK)}


def gronwall_bound(
    series: MonitorSeries, pair: SerrinPair, c_cal: float
) -> np.ndarray:
    """A priori bound series for 1 + ln(e + ||grad^2 u(t)||^2).

    bound(t) = [1 + ln(e + ||grad^2 u(0)||^2)]
               * exp(2 c_cal * running log-Serrin integral).
    Requires the canonical equality pair s = 2p/(p-3); monotone in the
    integrand.  Overflowing exponentials saturate to +inf.
    """
    if not pair.is_canonical:
        raise ValueError(
            f"Gronwall bound needs the canonical pair s = 2p/(p-3), got {pair}"
        )
    if not len(series):
        return np.empty(0)
    integral = series.column(f"log_serrin_int_{pair.label}")
    with np.errstate(over="ignore"):
        z0 = log_factor(np.float64(series.table["sobolev2"][0]) ** 2)
        bounds = z0 * np.exp(2.0 * c_cal * integral)
    return bounds


def gronwall_log_check(
    series: MonitorSeries, pair: SerrinPair, c_cal: float
) -> dict:
    """The Gronwall consequence in log space, on every sample:
    ln z(t) <= ln z(0) + 2 c_cal * running log-Serrin integral, with
    z = 1 + ln(e + ||grad^2 u||^2).

    It is the logarithm of :func:`gronwall_bound` >= z, so it holds exactly
    when that does, but its right side overflows only when the integral
    does.  Returns the columns 'lhs' (ln z), 'rhs', 'satisfied' and 'used',
    the fraction (ln z(t) - ln z(0)) / (2 c_cal * integral) of the exponent
    budget that the run used (NaN at t = 0).  Requires the canonical pair.
    """
    if not pair.is_canonical:
        raise ValueError(
            f"Gronwall bound needs the canonical pair s = 2p/(p-3), got {pair}"
        )
    budget = 2.0 * c_cal * series.column(f"log_serrin_int_{pair.label}")
    ln_z = np.log(log_factor(series.column("sobolev2") ** 2))
    ln_z0 = ln_z[:1]
    rhs = ln_z0 + budget
    with np.errstate(invalid="ignore", divide="ignore"):
        used = (ln_z - ln_z0) / budget
    return {"lhs": ln_z, "rhs": rhs, "satisfied": ln_z <= rhs, "used": used}


def attach_gronwall(series: MonitorSeries, calibration: CalibrationRecord | None) -> None:
    """Fill the gronwall_bound column for the first canonical pair that
    ``calibration`` has an entry for."""
    if not (calibration and len(series)):
        return
    for pair in series.pairs:
        entry = calibration.for_p(pair.p)
        if pair.is_canonical and entry is not None:
            bounds = gronwall_bound(series, pair, entry.c_cal)
            series.table["gronwall_bound"] = bounds.tolist()
            return


def grid_columns(
    pairs: tuple[SerrinPair, ...], u: VelocityField, omega: VelocityField
) -> dict[str, float]:
    """The monitor columns that read the grid samples of u and omega = curl u;
    |u| and |omega| are each formed once, whatever the pairs."""
    g = u.grid
    mag = u.magnitude()
    linf = float(mag.max(initial=0.0))
    cols = {
        "linf": linf,
        "bkm": _norms.lp_norm(g, omega.magnitude(), math.inf),
        "chan_vasseur": _chan_vasseur(mag, g.cell_volume),
    }
    for pair in pairs:
        cols.update(pair_columns(pair, _norms.lp_norm(g, mag, pair.p), linf))
    return cols


def pair_columns(pair: SerrinPair, lp: float, linf: float) -> dict[str, float]:
    """The columns of one pair in one row, from the row's ||u||_p and
    ||u||_inf as floats: lp, the Serrin integrand lp**s (+inf on overflow)
    and its log-improved quotient.  ``verify`` re-derives a CSV row's
    integrands with it, so both take the same scalar operations."""
    lab = pair.label
    with np.errstate(over="ignore"):
        powered = np.float64(lp) ** pair.s
    return {
        f"lp_{lab}": lp,
        f"serrin_{lab}": powered,
        f"log_serrin_{lab}": powered / log_factor(linf),
    }


def embed_ratio(sob2: float, linf: float) -> float:
    """The log trade of one row, (1 + ln(e + ||grad^2 u||^2)) /
    (1 + ln(e + ||u||_inf)), from the row's floats; ``verify`` re-derives a
    CSV row's with it.  The square is numpy's, +inf on overflow."""
    with np.errstate(over="ignore"):
        return log_factor(np.float64(sob2) ** 2) / log_factor(linf)


def evaluate_sample(
    u_hat: SpectralVelocityField,
    t: float,
    cfg: CriterionConfig,
    mu: float,
    rhs_hat: SpectralVelocityField,
    columns: dict[str, float],
    with_identity: HessianQuadrature | None,
) -> dict[str, float]:
    """One row of the monitor table: every functional on one state, keyed by
    :func:`monitor_columns`.

    ``columns`` is :func:`grid_columns` of the state, which the caller takes
    from the grid samples of u and curl u and may free before this call;
    everything else is read from the spectrum, with ``mu`` the run's
    viscosity.  ``rhs_hat`` is the projected convective term of the same
    state, from the stepper's stage-1 evaluation; it feeds the spectral time
    derivative of the H^2 seminorm and the identity check.

    ``with_identity`` is the state's :func:`hessian_quadrature`, or None to
    skip the identity check, whose residual is then NaN.  This function
    takes no quadrature itself: ``solver.run`` alone schedules it, where in
    a step it costs least memory.  The parameter keeps its name, and a
    quadrature is truthy, because the benchmark's tracer binds it by name
    and reads its truth value to tell the samples that check the identity.
    The running integrals and ``gronwall_bound`` are NaN until
    :func:`accumulate` and :func:`attach_gronwall` fill them.
    """
    g = u_hat.grid
    row = dict.fromkeys(monitor_columns(cfg.pairs), math.nan)
    row.update(columns)

    power = np.abs(u_hat.kept) ** 2
    energy = parseval_sum(g, power)
    sob = {m: _norms.sobolev_seminorm(g, power, m) for m in (1, 2, 3)}
    if with_identity is None:
        residual = math.nan
    else:
        residual = h2_identity_residual(u_hat, mu, rhs_hat, with_identity, sob[3])["residual"]

    row.update(
        t=t,
        energy=energy,
        sobolev1=sob[1],
        sobolev2=sob[2],
        sobolev3=sob[3],
        identity_residual=residual,
        ddt_sobolev2_sq=2.0 * _h2_rate(u_hat, mu, rhs_hat),
        embed_ratio=embed_ratio(sob[2], row["linf"]),
    )
    return row


def young_split_constant(c_gn: float, p: float, mu: float) -> float:
    """Tight constant C with
    5*c_gn*X*A^a*B^(2-a) <= (mu/2)*B^2 + C*X^(2/a)*A^2,  a = 1 - 3/p,
    from the weighted two-term Young inequality with exponents
    (2/(2-a), 2/a); optimizing over B shows this C is sharp.
    """
    a = 1.0 - (0.0 if math.isinf(p) else 3.0 / p)
    base = (2.0 - a) * HOLDER_FACTOR * c_gn / mu
    return (a * mu / (2.0 * (2.0 - a))) * base ** (2.0 / a)


def calibrate_constants(ratios: list[float], p: float, mu: float) -> CalibrationEntry:
    """Pin the interpolation constant and the growth-inequality constant of
    exponent p.

    ``ratios`` holds one :func:`norms.gn_ratio` at p per corpus field, so
    only floats outlive a field.  c_gn is their maximum times a safety
    factor of 2; c_cal is the sharp Young-split constant derived from it,
    times the same safety factor.  Raises ConstantOutOfRange when c_cal
    leaves the floating range, as it does for p close to 3.
    """
    c_gn = CALIBRATION_SAFETY * max(ratios)
    try:
        c_cal = CALIBRATION_SAFETY * young_split_constant(c_gn, p, mu)
    except OverflowError:
        c_cal = math.inf
    # c_cal grows with c_gn, so a non-finite c_gn makes it non-finite too
    if not math.isfinite(c_cal):
        raise ConstantOutOfRange(
            f"C_cal for p = {_fmt_num(p)} leaves the floating range (C_GN = {c_gn!r})"
        )
    return CalibrationEntry(p=p, c_gn=c_gn, c_cal=c_cal)
