"""Pseudo-spectral time integration of incompressible Navier-Stokes on the
periodic box, plus the exact-solution initializers used as oracles.

The nonlinear term is taken in rotational form: omega x u, dealiased and
Leray projected.  It differs from (u . grad) u by grad |u|^2/2, which the
projection removes, so the pressure gradient never appears and the
right-hand side is ``du/dt = -P(omega x u) - mu |k|^2 u``.  One evaluation
costs 9 three-dimensional FFTs: 6 inverse (u and omega) and 3 forward (the
product), each pruned to the modes the 2/3 rule keeps.  A state holds only
those modes, as the compact cube of :mod:`regcrit.spectral`, and time
stepping is classical four-stage Runge-Kutta on that cube, in place in three
stage buffers per step.
Treating the viscous term inside the stage derivatives (instead of an exact
exponential factor) leaves a clean fourth-order error signature on the
exact-decay oracles; the price is a viscous stability bound.
:class:`SolverConfig` checks it and the timestep ceiling at construction,
since neither needs a field; :func:`run` checks the advective CFL bound on
the initial field before it writes anything, and every step re-checks it on
the current field.  Only the stage-1 term of a step takes grid samples: its
max of |u| feeds that check, and its field |u|^2 and its max of |omega| feed
only that step's monitor sample, since a snapshot holds the state itself;
no table of u or omega samples leaves the term.  Stages 2-4 take none, and
so hold no whole grid field.  A sample that checks the H^2
identity also needs the state's Hessian quadrature, whose x-pass table is
the largest array of a run: :func:`run` takes it on every step before the
stage-1 term, so the table is never allocated on top of what that term and
its samples leave on the heap, and it asks for the right side alone, so no
grid field of the quadrature outlives it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random on first use: imported here, it is set-up work,
# not part of the first command that draws
from numpy.random import default_rng

from . import criteria as _criteria
from .spectral import (
    Grid,
    RealScalarField,
    SpectralVelocityField,
    VelocityField,
    convective_core_half,
    divergence,
    fft_forward,
    inverse_kept,
    leray_project,
    parseval_sum,
    project_kept,
)

#: explicit RK4 is stable for mu*|k|^2*dt below ~2.785 on the real axis
RK4_VISCOUS_LIMIT = 2.5

#: hard timestep ceiling, in time units
DT_CEILING = 0.5

INIT_KINDS = ("taylor_green", "beltrami", "random_divfree")


class UnstableTimestep(ValueError):
    """The configured dt exceeds a stability bound before any step is taken."""


class InitialFieldOutOfRange(ValueError):
    """The initial field leaves the floating range: the random draw's L^2
    norm is not in (0, inf) or its rescaled energy is not finite, or the
    grid max of |u| of any initial field is not finite."""


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.spectrum_slope)):
            raise ValueError(
                f"amplitude and spectrum slope must be finite, got "
                f"{self.amplitude!r} and {self.spectrum_slope!r}"
            )


@dataclass(frozen=True)
class SolverConfig:
    grid: Grid
    mu: float
    dt: float
    t_end: float
    init: InitSpec
    monitor_stride: int = 1
    snapshot_stride: int = 100

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError(f"viscosity must be positive, got {self.mu}")
        if not self.dt > 0.0:
            raise ValueError(f"timestep must be positive, got {self.dt}")
        if not 0.0 <= self.t_end < math.inf:
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end}")
        if self.monitor_stride < 1 or self.snapshot_stride < 1:
            raise ValueError("strides must be >= 1")
        steps = self.t_end / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError(
                f"t_end={self.t_end} is not an integer multiple of dt={self.dt}"
            )
        viscous = RK4_VISCOUS_LIMIT / (self.mu * self.grid.k_squared_max_retained)
        if self.dt > min(viscous, DT_CEILING):
            raise UnstableTimestep(
                f"dt={self.dt} exceeds the stability bound "
                f"(viscous {viscous:.6g}, ceiling {DT_CEILING})"
            )


def init_taylor_green(grid: Grid, amplitude: float) -> SpectralVelocityField:
    """z-independent Taylor-Green vortex, an exact solution decaying as
    exp(-2 mu kappa^2 t) with kappa = 2 pi / L; the forward transform keeps
    only the modes the 2/3 rule keeps, like every state."""
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

    Moduli follow |k|^slope on 0 < 3|k| < n (Euclidean, inside the dealias
    mask), phases are uniform, conjugate symmetry is enforced exactly, the
    result is Leray projected and rescaled so the L^2 norm equals
    ``amplitude``.  Bit-reproducible for a fixed seed.  Phases are drawn on
    the closed ball 3|k| <= n and the moduli vanish on its boundary shell
    3|k| = n (present when 3 divides n), so no mode's phase depends on
    whether that shell is kept.

    A slope or amplitude that takes the field out of the floating range
    raises :class:`InitialFieldOutOfRange`, without a floating-point warning.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        U = _drawn_field(grid, seed, spectrum_slope)
        if amplitude == 0.0:
            return SpectralVelocityField(grid, np.zeros_like(U.kept))
        current = math.sqrt(parseval_sum(grid, np.abs(U.kept) ** 2))
        if not 0.0 < current < math.inf:
            raise InitialFieldOutOfRange(
                f"random_divfree: the drawn field's L2 norm is {current!r} "
                f"at init.spectrum_slope = {spectrum_slope!r} (n = {grid.n})"
            )
        scaled = U.kept * (amplitude / current)
        energy = parseval_sum(grid, np.abs(scaled) ** 2)
    if not math.isfinite(energy):
        raise InitialFieldOutOfRange(
            f"random_divfree: the field's L2 energy at init.amplitude = {amplitude!r} "
            "leaves the floating range"
        )
    return SpectralVelocityField(grid, scaled)


def _drawn_field(grid: Grid, seed: int, spectrum_slope: float) -> SpectralVelocityField:
    """The Leray-projected draw of :func:`init_random_divfree`, before its
    rescaling.  The drawn coefficients are freed on return, before the
    rescaled field is allocated: kept to the end, they raised the n=96
    calibrate peak RSS by 55 MB (measured with getrusage).

    Every drawn mode has |k_i| <= n/3 on each axis, so the draw runs on the
    index cube of those modes, in FFT storage order: its C order is the full
    cube's, and so are the phases each mode gets.  Of each drawn mode k and
    its partner -k, the compact cube stores the one with kz >= 0: k itself
    when kz >= 0, conj at -k when kz <= 0.  Only the shell 3|k| = n (present
    when 3 divides n) lies outside the kept modes, and its moduli vanish."""
    n, m = grid.n, grid.n // 3
    rng = default_rng(seed)
    index = np.r_[0 : m + 1, n - m : n]  # storage indices of |k_i| <= n // 3
    ints = grid.integer_modes[index]
    kx = ints.reshape(-1, 1, 1)
    ky = ints.reshape(1, -1, 1)
    kz = ints.reshape(1, 1, -1)
    k2 = (kx**2 + ky**2 + kz**2).astype(np.float64)
    drawn = (k2 > 0) & (9.0 * k2 <= n * n)
    band = drawn & (9.0 * k2 < n * n)
    moduli = np.where(band, np.sqrt(k2) ** spectrum_slope, 0.0)
    # canonical half-space: kx > 0, or kx = 0 and ky > 0, or kx = ky = 0, kz > 0
    half = (kx > 0) | ((kx == 0) & (ky > 0)) | ((kx == 0) & (ky == 0) & (kz > 0))
    cx, cy, cz = np.nonzero(drawn & half)
    # compact-cube index of each storage index along x or y; -1 if not kept
    pos = np.full(n, -1)
    pos[grid.kept_index] = np.arange(grid.kept_index.size)

    def stored(ix, iy, iz):
        keep = (iz <= grid.kept_max) & (pos[ix] >= 0) & (pos[iy] >= 0)
        return keep, (pos[ix[keep]], pos[iy[keep]], iz[keep])

    ix, iy, iz = index[cx], index[cy], index[cz]
    own, at_own = stored(ix, iy, iz)
    mirror, at_mirror = stored((-ix) % n, (-iy) % n, (-iz) % n)
    coeffs = np.zeros((3,) + grid.kept_shape, dtype=np.complex128)
    for c in range(3):
        phases = rng.uniform(0.0, 2.0 * np.pi, size=ix.shape)
        vals = moduli[cx, cy, cz] * np.exp(1j * phases)
        coeffs[c][at_own] = vals[own]
        coeffs[c][at_mirror] = np.conj(vals[mirror])
    return leray_project(SpectralVelocityField(grid, coeffs))


def make_initial(config: SolverConfig) -> SpectralVelocityField:
    spec = config.init
    if spec.kind == "taylor_green":
        return init_taylor_green(config.grid, spec.amplitude)
    if spec.kind == "beltrami":
        return init_beltrami(config.grid, spec.amplitude)
    return init_random_divfree(
        config.grid, spec.seed, spec.spectrum_slope, spec.amplitude
    )


def _nonlinear_half(
    grid: Grid, kept: np.ndarray, samples: bool = True
) -> tuple[np.ndarray, float, np.ndarray | None, float]:
    """Compact-cube coefficients of -P(omega x u), the grid max of |u|, the
    field |u|^2 and the grid max of |omega| (see
    :func:`convective_core_half`)."""
    w_hat, u_max, u_sq, omega_max = convective_core_half(grid, kept, samples)
    project_kept(grid, w_hat, negate=True)
    return w_hat, u_max, u_sq, omega_max


def nonlinear_rhs(u_hat: SpectralVelocityField) -> SpectralVelocityField:
    """Projected convective term -P((u . grad) u) = -P(omega x u) of one
    state, the right side ``verify`` hands to the identity check; the viscous
    term is handled separately by the time stepper."""
    g = u_hat.grid
    return SpectralVelocityField(g, _nonlinear_half(g, u_hat.kept, samples=False)[0])


def _advance(
    config: SolverConfig,
    u_kept: np.ndarray,
    nl1: np.ndarray,
    u_max: float,
    t: float,
) -> np.ndarray:
    """RK4 update of the compact cube ``u_kept`` at time ``t``, given the
    stage-1 nonlinear term and the stage-1 grid max of |u|, the one the CFL
    check reads; stages 2-4 take no grid samples.  Returns the next compact
    cube.

    Three stage buffers are allocated once per step and every combination
    runs in place, in the operation order of
    ``u + dt/6 * (((k1 + 2 k2) + 2 k3) + k4)`` with stage inputs
    ``u + (c dt) k``; the sum accumulates as the stages run.
    """
    g = config.grid
    if u_max > 0.0 and config.dt > g.spacing / u_max:
        raise NumericalBlowup(
            f"CFL violated at t={t:.6g}: dt={config.dt} > "
            f"dx/u_max={g.spacing / u_max:.6g}"
        )
    dt, mu = config.dt, config.mu
    k2_visc = mu * g.k_squared
    k = np.empty_like(u_kept)  # the current stage derivative
    acc = np.empty_like(u_kept)  # the weighted sum of the stage derivatives
    tmp = np.empty_like(u_kept)  # the stage input, then the weighted derivative

    def rhs(coeffs: np.ndarray, nl: np.ndarray) -> None:
        np.multiply(k2_visc, coeffs, out=k)
        np.subtract(nl, k, out=k)

    # overflow policy: let non-finite values flow to the finite check below
    with np.errstate(over="ignore", invalid="ignore"):
        rhs(u_kept, nl1)
        acc[...] = k
        for c, weight in ((0.5 * dt, 2.0), (0.5 * dt, 2.0), (dt, 1.0)):
            np.multiply(k, c, out=tmp)
            np.add(u_kept, tmp, out=tmp)
            rhs(tmp, _nonlinear_half(g, tmp, samples=False)[0])
            if weight == 1.0:
                acc += k
            else:
                np.multiply(k, weight, out=tmp)
                acc += tmp
        acc *= dt / 6.0
        new = np.add(u_kept, acc, out=acc)
    if not np.isfinite(new).all():
        raise NumericalBlowup(f"non-finite coefficients after step to t={t + dt:.6g}")
    return new


def pressure_field(u_hat: SpectralVelocityField):
    """Diagnostic pressure q, mean zero, from Delta q = -div((u . grad) u).

    With (u . grad) u = omega x u + grad |u|^2/2, q = -Delta^-1 div(omega x u)
    - |u|^2/2.  |u|^2 is the kernel's, from the same dealiased samples as
    omega x u, and is dealiased like it, so q_hat lies on the kept modes and
    one :func:`inverse_kept` gives its samples.
    """
    g = u_hat.grid
    w_hat, _, u_sq, _ = convective_core_half(g, u_hat.kept)
    q_hat = divergence(SpectralVelocityField(g, w_hat)).kept * g.inv_k_squared
    q_hat -= fft_forward(RealScalarField(g, 0.5 * u_sq)).kept
    q_hat[0, 0, 0] = 0.0
    return RealScalarField(g, inverse_kept(g, q_hat))


class RunSink:
    """Receiver for run artifacts; the CLI supplies a file-writing version."""

    def snapshot(self, step_index: int, t: float, field: SpectralVelocityField) -> None:
        pass  # pragma: no cover


def run(
    config: SolverConfig,
    monitors: "_criteria.CriterionConfig",
    sink: RunSink | None = None,
) -> "_criteria.MonitorSeries":
    """Integrate from t = 0 to t_end, evaluating monitors every monitor_stride
    steps and emitting snapshots every snapshot_stride steps (plus step 0 and
    the final step).  Returns the accumulated monitor series; on blowup the
    partial series is attached to the raised NumericalBlowup.  Raises
    UnstableTimestep, before any sample or snapshot, when dt breaks the
    advective CFL bound on the initial field, and InitialFieldOutOfRange
    when that field's grid max of |u| is not finite.

    Every step runs, in order: the identity quadrature of a sample that
    checks the identity, the stage-1 term with its |u|^2 and max |omega|,
    step 0's checks of the initial field, the snapshot of the state, the
    grid columns, then, |u|^2 freed, the monitor row and the RK stages.
    |u|^2 and max |omega| feed only the grid columns.  The grid columns and
    the monitor row run under the stage-1 term's floating-point policy, so
    a finite state whose samples overflow gives +inf or NaN columns, not a
    warning.  This function is the only caller of the quadrature in a run,
    and :func:`criteria.evaluate_sample` takes its result.
    """
    u_hat = make_initial(config)
    series = _criteria.MonitorSeries(pairs=monitors.pairs)
    n_steps = int(round(config.t_end / config.dt))

    g = config.grid
    try:
        for i in range(n_steps + 1):
            final = i == n_steps
            t = i * config.dt
            sample_due = i % config.monitor_stride == 0 or final
            identity_due = sample_due and (i % monitors.identity_stride == 0 or final)
            # the quadrature runs while the stage-1 term, its |u|^2 and its
            # right-hand side do not exist, so its table reuses the heap the
            # previous step freed instead of growing it (module docstring);
            # the stage-1 term doubles as the monitors' time derivative, and
            # its |u|^2 and max |omega| serve the monitor sample; an initial
            # field that overflows in either reaches step 0's checks below
            # without a warning
            quad = None
            with np.errstate(over="ignore", invalid="ignore"):
                if identity_due:
                    quad = _criteria.hessian_quadrature(u_hat, magnitude=False)
                nl, u_max, u_sq, omega_max = _nonlinear_half(g, u_hat.kept)
            if i == 0 and not math.isfinite(u_max):
                raise InitialFieldOutOfRange(
                    f"{config.init.kind}: the initial field's grid max |u| is {u_max!r} "
                    f"at init.amplitude = {config.init.amplitude!r}; it leaves the "
                    "floating range"
                )
            if i == 0 and u_max > 0.0 and config.dt > g.spacing / u_max:
                raise UnstableTimestep(
                    f"dt={config.dt} exceeds the stability bound "
                    f"(advective dx/u_max={g.spacing / u_max:.6g} on the initial field)"
                )
            if sink is not None and (i % config.snapshot_stride == 0 or final):
                sink.snapshot(i, t, u_hat)
            # the same policy: a finite state whose samples or spectrum
            # overflow gives +inf or NaN columns that fail verify's checks
            with np.errstate(over="ignore", invalid="ignore"):
                if sample_due:
                    columns = _criteria.grid_columns(monitors.pairs, g, u_sq, omega_max)
                # |u|^2 is freed here, before the RK stages
                del u_sq
                if sample_due:
                    series.append(
                        _criteria.evaluate_sample(
                            u_hat,
                            t,
                            monitors,
                            mu=config.mu,
                            rhs_hat=SpectralVelocityField(g, nl),
                            columns=columns,
                            with_identity=quad,
                        )
                    )
            if final:
                break
            u_hat = SpectralVelocityField(g, _advance(config, u_hat.kept, nl, u_max, t))
    except NumericalBlowup as exc:
        exc.series = series
        raise
    finally:
        _criteria.accumulate(series)
        _criteria.attach_gronwall(series, monitors.calibration)
    return series
