"""Pseudo-spectral time integration of incompressible Navier-Stokes on the
periodic box, plus the exact-solution initializers used as oracles.

The convective term is the literal (u . grad) u form, dealiased and Leray
projected, so the pressure gradient never appears.  Time stepping is classical
four-stage Runge-Kutta on the full spectral right-hand side
``du/dt = -P(u . grad u) - mu |k|^2 u``.  Treating the viscous term inside the
stage derivatives (instead of an exact exponential factor) leaves a clean
fourth-order error signature on the exact-decay oracles; the price is a
viscous stability bound, validated at construction alongside the advective
CFL bound.  States stay band-limited (modes with integer max-norm <= n/3)
because the initializers band-limit and every right-hand side is dealiased.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import criteria as _criteria
from .spectral import (
    Grid,
    RealScalarField,
    SpectralVelocityField,
    VelocityField,
    convective,
    convective_core_half,
    divergence,
    fft_forward,
    irfftn_real,
    leray_project,
    parseval_sum,
    to_physical,
)

#: explicit RK4 is stable for mu*|k|^2*dt below ~2.785 on the real axis
RK4_VISCOUS_LIMIT = 2.5

#: hard timestep ceiling, in time units
DT_CEILING = 0.5

INIT_KINDS = ("taylor_green", "beltrami", "random_divfree")


class NumericalBlowup(RuntimeError):
    """Non-finite state or a violated CFL bound during stepping.

    Carries the partially accumulated monitor series (``.series``) when
    raised out of :func:`run`.
    """

    def __init__(self, message, series=None):
        super().__init__(message)
        self.series = series


@dataclass(frozen=True)
class InitSpec:
    kind: str
    amplitude: float = 1.0
    seed: int = 0
    spectrum_slope: float = -2.0

    def __post_init__(self):
        if self.kind not in INIT_KINDS:
            raise ValueError(f"unknown init kind {self.kind!r}; choose from {INIT_KINDS}")


@dataclass(frozen=True)
class SolverConfig:
    grid: Grid
    mu: float
    dt: float
    t_end: float
    init: InitSpec
    monitor_stride: int = 1
    snapshot_stride: int = 100
    dt_max: float = field(init=False)

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError(f"viscosity must be positive, got {self.mu}")
        if not self.dt > 0.0:
            raise ValueError(f"timestep must be positive, got {self.dt}")
        if self.t_end < 0.0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.monitor_stride < 1 or self.snapshot_stride < 1:
            raise ValueError("strides must be >= 1")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(
                f"t_end={self.t_end} is not an integer multiple of dt={self.dt}"
            )
        u0 = make_initial(self)
        u_max = float(to_physical(u0).magnitude().max(initial=0.0))
        advective = self.grid.spacing / u_max if u_max > 0.0 else math.inf
        viscous = RK4_VISCOUS_LIMIT / (self.mu * self.grid.k_squared_max_retained)
        object.__setattr__(self, "dt_max", min(advective, viscous, DT_CEILING))
        if self.dt > self.dt_max:
            raise ValueError(
                f"dt={self.dt} exceeds the stability bound dt_max={self.dt_max:.6g} "
                f"(advective {advective:.6g}, viscous {viscous:.6g}, ceiling {DT_CEILING})"
            )


@dataclass
class SolverState:
    t: float
    u_hat: SpectralVelocityField
    step_index: int = 0


def init_taylor_green(grid: Grid, amplitude: float) -> SpectralVelocityField:
    """z-independent Taylor-Green vortex, an exact solution decaying as
    exp(-2 mu kappa^2 t) with kappa = 2 pi / L."""
    kap = 2.0 * np.pi / grid.length
    X, Y, _ = grid.meshes()
    u = np.stack(
        [
            amplitude * np.cos(kap * X) * np.sin(kap * Y),
            -amplitude * np.sin(kap * X) * np.cos(kap * Y),
            np.zeros(grid.shape),
        ]
    )
    return fft_forward(VelocityField(grid, u))


def init_beltrami(grid: Grid, amplitude: float) -> SpectralVelocityField:
    """ABC flow with A = B = C = 1: curl u = kappa u, so the Navier-Stokes
    evolution is the pure decay exp(-mu kappa^2 t) (kappa = 2 pi / L)."""
    kap = 2.0 * np.pi / grid.length
    X, Y, Z = grid.meshes()
    u = amplitude * np.stack(
        [
            np.sin(kap * Z) + np.cos(kap * Y),
            np.sin(kap * X) + np.cos(kap * Z),
            np.sin(kap * Y) + np.cos(kap * X),
        ]
    )
    return fft_forward(VelocityField(grid, u))


def init_random_divfree(
    grid: Grid, seed: int, spectrum_slope: float, amplitude: float
) -> SpectralVelocityField:
    """Seeded random divergence-free field.

    Moduli follow |k|^slope on 0 < |k| <= n/3 (Euclidean), phases are uniform,
    conjugate symmetry is enforced exactly, the result is Leray projected and
    rescaled so the L^2 norm equals ``amplitude``.  Bit-reproducible for a
    fixed seed.
    """
    n = grid.n
    rng = np.random.default_rng(seed)
    ints = grid.integer_modes
    kx = ints.reshape(n, 1, 1)
    ky = ints.reshape(1, n, 1)
    kz = ints.reshape(1, 1, n)
    k2 = (kx**2 + ky**2 + kz**2).astype(np.float64)
    band = (k2 > 0) & (np.sqrt(k2) <= n / 3.0)
    with np.errstate(divide="ignore"):
        moduli = np.where(band, np.sqrt(k2) ** spectrum_slope, 0.0)
    # canonical half-space: kx > 0, or kx = 0 and ky > 0, or kx = ky = 0, kz > 0
    half = (kx > 0) | ((kx == 0) & (ky > 0)) | ((kx == 0) & (ky == 0) & (kz > 0))
    sel = band & half
    ix, iy, iz = np.nonzero(sel)
    mx, my, mz = (-ix) % n, (-iy) % n, (-iz) % n
    coeffs = np.zeros((3, n, n, n), dtype=np.complex128)
    for c in range(3):
        phases = rng.uniform(0.0, 2.0 * np.pi, size=ix.shape)
        vals = moduli[ix, iy, iz] * np.exp(1j * phases)
        coeffs[c][ix, iy, iz] = vals
        coeffs[c][mx, my, mz] = np.conj(vals)
    U = leray_project(SpectralVelocityField(grid, coeffs))
    if amplitude == 0.0:
        return SpectralVelocityField(grid, np.zeros_like(U.half))
    current = math.sqrt(parseval_sum(grid, np.abs(U.half) ** 2))
    if current == 0.0:
        raise ValueError("random field degenerated to zero before rescaling")
    return SpectralVelocityField(grid, U.half * (amplitude / current))


def make_initial(config: SolverConfig) -> SpectralVelocityField:
    spec = config.init
    if spec.kind == "taylor_green":
        return init_taylor_green(config.grid, spec.amplitude)
    if spec.kind == "beltrami":
        return init_beltrami(config.grid, spec.amplitude)
    return init_random_divfree(
        config.grid, spec.seed, spec.spectrum_slope, spec.amplitude
    )


def _nonlinear_half(grid: Grid, half: np.ndarray) -> tuple[np.ndarray, float]:
    """Half-spectrum coefficients of -P((u . grad) u) plus the grid max of |u|."""
    w_hat, u_max = convective_core_half(grid, half)
    return -leray_project(SpectralVelocityField(grid, w_hat)).half, u_max


def nonlinear_rhs(u_hat: SpectralVelocityField) -> SpectralVelocityField:
    """Projected convective term -P((u . grad) u); the viscous term is handled
    separately by the time stepper."""
    g = u_hat.grid
    return SpectralVelocityField(g, _nonlinear_half(g, u_hat.half)[0])


def _advance(
    state: SolverState,
    config: SolverConfig,
    u_half: np.ndarray,
    nl1: np.ndarray,
    u_max: float,
) -> SolverState:
    """RK4 update in the half spectrum, given the stage-1 nonlinear term."""
    g = config.grid
    if u_max > 0.0 and config.dt > g.spacing / u_max:
        raise NumericalBlowup(
            f"CFL violated at t={state.t:.6g}: dt={config.dt} > "
            f"dx/u_max={g.spacing / u_max:.6g}"
        )
    dt, mu = config.dt, config.mu
    k2_visc = mu * g.k_squared_half

    def rhs(coeffs: np.ndarray, nl: np.ndarray | None = None) -> np.ndarray:
        if nl is None:
            nl = _nonlinear_half(g, coeffs)[0]
        return nl - k2_visc * coeffs

    # overflow policy: let non-finite values flow to the finite check below
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = rhs(u_half, nl1)
        k2 = rhs(u_half + 0.5 * dt * k1)
        k3 = rhs(u_half + 0.5 * dt * k2)
        k4 = rhs(u_half + dt * k3)
        new = u_half + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(new).all():
        raise NumericalBlowup(f"non-finite coefficients after step to t={state.t + dt:.6g}")
    return SolverState(
        t=(state.step_index + 1) * dt,
        u_hat=SpectralVelocityField(g, new),
        step_index=state.step_index + 1,
    )


def step(state: SolverState, config: SolverConfig) -> SolverState:
    """Advance one timestep with classical RK4 on the full right-hand side.

    Re-checks the advective CFL bound against the current field and raises
    NumericalBlowup on violation or on non-finite output.
    """
    u_half = state.u_hat.half
    with np.errstate(over="ignore", invalid="ignore"):
        nl1, u_max = _nonlinear_half(config.grid, u_half)
    return _advance(state, config, u_half, nl1, u_max)


def pressure_field(u_hat: SpectralVelocityField):
    """Diagnostic pressure from Delta q = -div((u . grad) u), mean zero."""
    g = u_hat.grid
    q_hat = divergence(convective(u_hat)).half * g.inv_k_squared_half
    return RealScalarField(g, irfftn_real(q_hat, g.n))


class RunSink:
    """Receiver for run artifacts; the CLI supplies a file-writing version."""

    def snapshot(self, step_index: int, t: float, field: VelocityField) -> None:  # pragma: no cover
        pass


def run(
    config: SolverConfig,
    monitors: "_criteria.CriterionConfig",
    sink: RunSink | None = None,
) -> "_criteria.MonitorSeries":
    """Integrate from t = 0 to t_end, evaluating monitors every monitor_stride
    steps and emitting snapshots every snapshot_stride steps (plus step 0 and
    the final step).  Returns the accumulated monitor series; on blowup the
    partial series is attached to the raised NumericalBlowup.
    """
    state = SolverState(t=0.0, u_hat=make_initial(config))
    series = _criteria.MonitorSeries(pairs=monitors.pairs)
    n_steps = int(round(config.t_end / config.dt))

    try:
        for i in range(n_steps + 1):
            final = i == n_steps
            g = config.grid
            u_half = state.u_hat.half
            # stage-1 nonlinear term doubles as the monitors' time derivative
            nl, u_max = _nonlinear_half(g, u_half)
            if state.step_index % config.monitor_stride == 0 or final:
                with_identity = monitors.identity and (
                    state.step_index % monitors.identity_stride == 0 or final
                )
                series.append(
                    _criteria.evaluate_sample(
                        state.u_hat,
                        state.t,
                        monitors,
                        rhs_hat=SpectralVelocityField(g, nl),
                        with_identity=with_identity,
                    )
                )
            if sink is not None and (
                state.step_index % config.snapshot_stride == 0 or final
            ):
                sink.snapshot(state.step_index, state.t, to_physical(state.u_hat))
            if final:
                break
            state = _advance(state, config, u_half, nl, u_max)
    except NumericalBlowup as exc:
        _criteria.accumulate(series)
        _criteria.attach_gronwall(series, monitors)
        exc.series = series
        raise
    _criteria.accumulate(series)
    _criteria.attach_gronwall(series, monitors)
    return series
