"""Regularity-criterion functionals and the energy-estimate verification
chain.

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

Powers that leave the floating range become +inf sentinels: they poison the
downstream running integrals but never abort a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import norms as _norms
from .spectral import (
    SpectralVelocityField,
    VelocityField,
    convective,
    curl,
    first_derivatives,
    leray_project,
    parseval_sum,
    second_derivatives,
    to_physical,
)

E = math.e

#: literal constant of the Hoelder step bounding the identity right side
HOLDER_FACTOR = 5.0

#: multiplier applied to empirical maxima when pinning constants
CALIBRATION_SAFETY = 2.0

REL_SLACK = 1e-10


class NonMonotoneTime(ValueError):
    """Sample times must be strictly increasing."""


class EmptyCorpus(ValueError):
    """Calibration needs at least one field."""


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
        if not (self.c_gn > 0.0 and self.c_cal > 0.0):
            raise ValueError("calibrated constants must be positive")


@dataclass
class CalibrationRecord:
    """Calibrated constants per exponent p, with corpus provenance."""

    mu: float
    entries: dict[str, CalibrationEntry]
    corpus: str = ""

    def for_p(self, p: float) -> CalibrationEntry | None:
        return self.entries.get(f"p{_fmt_num(p)}")

    def to_text(self) -> str:
        lines = [f"mu = {self.mu!r}", f"corpus = {self.corpus}"]
        for key in sorted(self.entries):
            e = self.entries[key]
            lines.append(f"{key}.c_gn = {e.c_gn!r}")
            lines.append(f"{key}.c_cal = {e.c_cal!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CalibrationRecord":
        kv: dict[str, str] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            kv[key.strip()] = val.strip()
        mu = float(kv.pop("mu"))
        corpus = kv.pop("corpus", "")
        entries: dict[str, CalibrationEntry] = {}
        labels = {k.rpartition(".")[0] for k in kv}
        for lab in labels:
            p = math.inf if lab == "pinf" else float(lab[1:])
            entries[lab] = CalibrationEntry(
                p=p, c_gn=float(kv[f"{lab}.c_gn"]), c_cal=float(kv[f"{lab}.c_cal"])
            )
        return cls(mu=mu, entries=entries, corpus=corpus)


@dataclass
class CriterionConfig:
    """Which functionals to monitor, for which Serrin pairs, with which
    calibrated constants."""

    pairs: tuple[SerrinPair, ...]
    mu: float
    calibration: CalibrationRecord | None = None
    serrin: bool = True
    log_serrin: bool = True
    bkm: bool = True
    chan_vasseur: bool = True
    identity: bool = True
    gronwall: bool = True
    oversample_linf: bool = False
    identity_stride: int = 1  # steps between the (expensive) identity quadratures

    def __post_init__(self):
        self.pairs = tuple(self.pairs)
        if (self.serrin or self.log_serrin) and not self.pairs:
            raise ValueError("serrin monitors enabled but no (p, s) pairs given")
        if not self.mu > 0.0:
            raise ValueError("viscosity must be positive")
        if self.identity_stride < 1:
            raise ValueError("identity_stride must be >= 1")


#: monitor-sample schema: the float fields of PairSample and MonitorSample,
#: in monitor-CSV column order (the CSV layout itself is cli.csv_columns)
PAIR_COLUMNS = ("lp", "serrin", "serrin_int", "log_serrin", "log_serrin_int")
SAMPLE_COLUMNS = (
    "t",
    "energy",
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
)


@dataclass
class PairSample:
    lp: float
    serrin: float
    log_serrin: float
    serrin_int: float = math.nan
    log_serrin_int: float = math.nan


@dataclass
class MonitorSample:
    t: float
    energy: float
    linf: float
    sobolev1: float
    sobolev2: float
    sobolev3: float
    bkm: float
    chan_vasseur: float
    identity_residual: float
    ddt_sobolev2_sq: float
    embed_ratio: float
    pairs: dict[str, PairSample]
    bkm_int: float = math.nan
    chan_vasseur_int: float = math.nan
    gronwall_bound: float = math.nan


@dataclass
class MonitorSeries:
    """Append-only, time-ordered record of all monitored functionals.

    One writer appends; running integrals are filled by :func:`accumulate`
    (trapezoid rule, so they are exact on constant integrands and
    recomputable, hence idempotent).
    """

    pairs: tuple[SerrinPair, ...]
    samples: list[MonitorSample] = field(default_factory=list)

    def append(self, sample: MonitorSample) -> None:
        if self.samples and sample.t <= self.samples[-1].t:
            raise NonMonotoneTime(
                f"sample time {sample.t} not after {self.samples[-1].t}"
            )
        self.samples.append(sample)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in self.samples])

    def pair_column(self, label: str, name: str) -> np.ndarray:
        return np.array([getattr(s.pairs[label], name) for s in self.samples])


def _pow_sentinel(base: float, exponent: float) -> float:
    """base**exponent with overflow reported as +inf instead of raised."""
    if base == 0.0:
        return 0.0
    with np.errstate(over="ignore"):
        out = float(np.float64(base) ** np.float64(exponent))
    return math.inf if math.isinf(out) or math.isnan(out) else out


def serrin_integrand(U: VelocityField, pair: SerrinPair) -> float:
    """Classical Serrin integrand ||u||_{L^p}^s."""
    return _pow_sentinel(_norms.lp_norm(U, pair.p), pair.s)


def log_denominator(linf: float) -> float:
    return 1.0 + math.log(E + linf)


def log_serrin_integrand(U: VelocityField, pair: SerrinPair) -> float:
    """Log-improved integrand ||u||_{L^p}^s / (1 + ln(e + ||u||_inf))."""
    num = serrin_integrand(U, pair)
    return num / log_denominator(_norms.lp_norm(U, math.inf))


def bkm_integrand(U: SpectralVelocityField) -> float:
    """Vorticity sup norm ||curl u||_inf."""
    return _norms.lp_norm(to_physical(curl(U)), math.inf)


def _chan_vasseur(mag: np.ndarray, cell_volume: float) -> float:
    return float(np.sum(mag**5 / np.log(E + mag)) * cell_volume)


def chan_vasseur_integrand(U: VelocityField) -> float:
    """Pointwise-log integrand: dx^3 * sum |u|^5 / ln(e + |u|)."""
    return _chan_vasseur(U.magnitude(), U.grid.cell_volume)


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

    for name, target in (("bkm", "bkm_int"), ("chan_vasseur", "chan_vasseur_int")):
        vals = running(series.column(name))
        for s, v in zip(series.samples, vals):
            setattr(s, target, float(v))
    for pair in series.pairs:
        lab = pair.label
        for name, target in (
            ("serrin", "serrin_int"),
            ("log_serrin", "log_serrin_int"),
        ):
            vals = running(series.pair_column(lab, name))
            for s, v in zip(series.samples, vals):
                setattr(s.pairs[lab], target, float(v))
    return series


def _h2_rate(
    u_hat: SpectralVelocityField, mu: float, rhs_hat: SpectralVelocityField
) -> float:
    """<grad^2 u, grad^2 du/dt>, half of d/dt ||grad^2 u||^2, with du/dt the
    instantaneous spectral right-hand side (projected convection plus exact
    viscous term); no time differencing."""
    k2 = u_hat.grid.k_squared_half
    u = u_hat.half
    dudt = rhs_hat.half - mu * k2 * u
    return parseval_sum(u_hat.grid, k2 * k2 * np.real(np.conj(u) * dudt))


def _identity_sides(
    u_hat: SpectralVelocityField, mu: float, rhs_hat: SpectralVelocityField
) -> tuple[float, float]:
    """Both sides of the H^2 identity, evaluated independently.

    Left: <grad^2 u, grad^2 du/dt> + mu ||grad^3 u||^2.  Right: the two
    contraction integrals by dealiased quadrature.
    """
    k2 = u_hat.grid.k_squared_half
    sob3_sq = parseval_sum(u_hat.grid, k2 * k2 * k2 * (np.abs(u_hat.half) ** 2))
    lhs = _h2_rate(u_hat, mu, rhs_hat) + mu * sob3_sq
    return lhs, _identity_rhs(u_hat)


def _identity_rhs(u_hat: SpectralVelocityField) -> float:
    """Quadrature side of the identity: the two nonlinear contraction integrals."""
    g = u_hat.grid
    grads = first_derivatives(u_hat)
    d2 = second_derivatives(u_hat)
    w = g.cell_volume
    t1 = w * float(np.einsum("ijlabc,imabc,mjlabc->", d2, grads, d2, optimize=True))
    t2 = w * float(np.einsum("ijlabc,ijmabc,mlabc->", d2, d2, grads, optimize=True))
    return -2.0 * t1 - t2


def h2_identity_residual(state, config, rhs_hat: SpectralVelocityField | None = None) -> dict:
    """Residual of the H^2 energy identity on the current state.

    ``state`` needs ``.u_hat``; ``config`` needs ``.mu`` (duck-typed so the
    check also runs on snapshot data).  Returns {'lhs', 'rhs', 'residual'}.
    """
    u_hat = state.u_hat
    if rhs_hat is None:
        rhs_hat = SpectralVelocityField(
            u_hat.grid, -leray_project(convective(u_hat)).half
        )
    lhs, rhs = _identity_sides(u_hat, config.mu, rhs_hat)
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs)}


def holder_check(state, p: float) -> dict:
    """Hoelder bound on the identity right side with the literal factor 5:
    |rhs| <= 5 ||u||_p ||grad^2 u||_{2p/(p-2)} ||grad^3 u||_2."""
    p = float(p)
    if not p > 3.0:
        raise ValueError(f"Hoelder step needs 3 < p <= inf, got {p}")
    u_hat = state.u_hat
    rhs = _identity_rhs(u_hat)
    q = 2.0 if math.isinf(p) else 2.0 * p / (p - 2.0)
    u_phys = to_physical(u_hat)
    bound = (
        HOLDER_FACTOR
        * _norms.lp_norm(u_phys, p)
        * _norms.hessian_lq_norm(u_hat, q)
        * _norms.sobolev_seminorm(u_hat, 3)
    )
    actual = abs(rhs)
    return {
        "bound": bound,
        "actual": actual,
        "satisfied": bool(actual <= bound * (1.0 + REL_SLACK)),
    }


def differential_inequality_check(
    sample: MonitorSample, pair: SerrinPair, c_cal: float, mu: float
) -> dict:
    """Growth inequality for ||grad^2 u||^2 with the calibrated constant.

    lhs = d/dt ||grad^2 u||^2 + mu ||grad^3 u||^2, taken from the sample's
    spectrally evaluated time derivative; rhs is the calibrated product with
    the log-improved integrand restored.
    """
    lhs = sample.ddt_sobolev2_sq + mu * sample.sobolev3**2
    x = sample.pairs[pair.label].lp
    s = SerrinPair.canonical_s(pair.p)
    grow = _pow_sentinel(x, s)
    h2 = sample.sobolev2**2
    rhs = (
        2.0
        * c_cal
        * (grow / log_denominator(sample.linf))
        * (1.0 + math.log(E + h2))
        * h2
    )
    satisfied = bool(lhs <= rhs * (1.0 + REL_SLACK)) or math.isinf(rhs)
    return {"lhs": lhs, "rhs": rhs, "satisfied": satisfied}


def gronwall_bound(
    series: MonitorSeries, pair: SerrinPair, c_cal: float
) -> np.ndarray:
    """A priori bound series for 1 + ln(e + ||grad^2 u(t)||^2).

    bound(t) = [1 + ln(e + ||grad^2 u(0)||^2)]
               * exp(2 c_cal * running log-Serrin integral).
    Requires the canonical equality pair s = 2p/(p-3); monotone in the
    integrand.  Overflowing exponentials saturate to +inf (sentinel policy).
    """
    if not pair.is_canonical:
        raise ValueError(
            f"Gronwall bound needs the canonical pair s = 2p/(p-3), got {pair}"
        )
    if not series.samples:
        return np.empty(0)
    z0 = 1.0 + math.log(E + series.samples[0].sobolev2 ** 2)
    integral = series.pair_column(pair.label, "log_serrin_int")
    with np.errstate(over="ignore"):
        bounds = z0 * np.exp(2.0 * c_cal * integral)
    return bounds


def attach_gronwall(series: MonitorSeries, cfg: CriterionConfig) -> None:
    """Fill the gronwall_bound column for the first canonical calibrated pair."""
    if not (cfg.gronwall and cfg.calibration and series.samples):
        return
    for pair in series.pairs:
        entry = cfg.calibration.for_p(pair.p)
        if pair.is_canonical and entry is not None:
            bounds = gronwall_bound(series, pair, entry.c_cal)
            for s, b in zip(series.samples, bounds):
                s.gronwall_bound = float(b)
            return


def evaluate_sample(
    u_hat: SpectralVelocityField,
    t: float,
    cfg: CriterionConfig,
    rhs_hat: SpectralVelocityField,
    with_identity: bool = True,
) -> MonitorSample:
    """Compute every configured functional on one state.

    ``rhs_hat`` is the projected convective term of the same state (the
    caller usually has it at hand from stepping); it feeds the spectral time
    derivative of the H^2 seminorm and the identity check.  Disabled monitors
    yield NaN so the sample layout never changes; ``with_identity=False``
    skips only the identity quadrature (its residual becomes NaN).
    """
    g = u_hat.grid
    u_phys = to_physical(u_hat)
    mag = u_phys.magnitude()
    energy = parseval_sum(g, np.abs(u_hat.half) ** 2)
    sob = {m: _norms.sobolev_seminorm(u_hat, m) for m in (1, 2, 3)}
    if cfg.oversample_linf:
        linf = _norms.linf_oversampled(u_hat)
    else:
        linf = float(mag.max(initial=0.0))

    pair_samples: dict[str, PairSample] = {}
    for pair in cfg.pairs:
        lp = _norms.lp_norm(u_phys, pair.p)
        powered = _pow_sentinel(lp, pair.s)
        pair_samples[pair.label] = PairSample(
            lp=lp,
            serrin=powered if cfg.serrin else math.nan,
            log_serrin=powered / log_denominator(linf) if cfg.log_serrin else math.nan,
        )

    bkm = bkm_integrand(u_hat) if cfg.bkm else math.nan
    chan = _chan_vasseur(mag, g.cell_volume) if cfg.chan_vasseur else math.nan
    ddt = 2.0 * _h2_rate(u_hat, cfg.mu, rhs_hat)

    if cfg.identity and with_identity:
        lhs, rhs = _identity_sides(u_hat, cfg.mu, rhs_hat)
        residual = abs(lhs - rhs) / (1.0 + abs(lhs))
    else:
        residual = math.nan

    embed = (1.0 + math.log(E + sob[2] ** 2)) / log_denominator(linf)

    return MonitorSample(
        t=t,
        energy=energy,
        linf=linf,
        sobolev1=sob[1],
        sobolev2=sob[2],
        sobolev3=sob[3],
        bkm=bkm,
        chan_vasseur=chan,
        identity_residual=residual,
        ddt_sobolev2_sq=ddt,
        embed_ratio=embed,
        pairs=pair_samples,
    )


def young_split_constant(c_gn: float, p: float, mu: float) -> float:
    """Tight constant C with
    5*c_gn*X*A^a*B^(2-a) <= (mu/2)*B^2 + C*X^(2/a)*A^2,  a = 1 - 3/p,
    from the weighted two-term Young inequality with exponents
    (2/(2-a), 2/a); optimizing over B shows this C is sharp.
    """
    a = 1.0 - (0.0 if math.isinf(p) else 3.0 / p)
    base = (2.0 - a) * HOLDER_FACTOR * c_gn / mu
    return (a * mu / (2.0 * (2.0 - a))) * base ** (2.0 / a)


def calibrate_constants(
    corpus: list[SpectralVelocityField], p: float, mu: float
) -> dict:
    """Pin the interpolation constant and the growth-inequality constant.

    c_gn is the corpus maximum of the multiplicative ratio times a safety
    factor of 2; c_cal is the sharp Young-split constant derived from it,
    times the same safety factor.
    """
    if not corpus:
        raise EmptyCorpus("calibration corpus is empty")
    worst = max(_norms.gn_ratio(U, p) for U in corpus)
    c_gn = CALIBRATION_SAFETY * worst
    c_cal = CALIBRATION_SAFETY * young_split_constant(c_gn, p, mu)
    return {"C_GN": c_gn, "C_cal": c_cal}
