"""Periodic-box fields and spectral operators.

Conventions, fixed once for the whole package:

* cubic grid with ``n`` samples per axis on the box ``[0, length]^3``
  (default side 2*pi); sample ``(i, j, k)`` sits at ``(i, j, k) * length/n``
  and arrays are indexed ``[x, y, z]``
* the forward transform divides by ``n**3``, so the ``k = 0`` coefficient
  equals the field mean and Parseval reads
  ``sum(samples**2) * dx**3 == sum(|coeffs|**2) * length**3``, the sum
  running over every wavevector of the cube
* integer wavevectors run over ``{-n/2, ..., n/2 - 1}`` per axis, scaled by
  ``2*pi/length``
* quadratic products are dealiased by the 2/3 rule: a mode is kept when
  ``3 * max(|kx|, |ky|, |kz|) < n`` (integer wavevector max-norm) and zeroed
  otherwise.  The bound is strict: a product of kept modes reaches at most
  ``2 max|k|``, which aliases to ``2 max|k| - n``; that stays outside the
  kept band only when ``3 max|k| < n``.  (With ``3 | n`` and ``max|k| = n/3``
  kept, mode ``2n/3`` would alias onto the kept mode ``-n/3``.)
* spectral fields store only the modes the 2/3 rule keeps, as the compact
  cube of shape ``(..., 2m+1, 2m+1, m+1)``, ``m = (n - 1) // 3``
  (:attr:`Grid.kept_shape`), and their constructors accept no other shape.
  Along x and y its index ``i`` holds the integer mode ``i`` for
  ``i <= m`` and ``i - (2m + 1)`` above, FFT storage order with the
  dropped middle cut out (:attr:`Grid.kept_index`); along z it holds the
  modes ``0 .. m``, whose kz < 0 partners are their conjugate mirror.
  Since ``m < n/2``, no kept mode is a Nyquist mode.  A sum over every
  wavevector of a quantity even in k is a compact-cube sum with Parseval
  weights: 1 on the kz = 0 plane, 2 on every other plane, each standing for
  itself and its mirror (:func:`parseval_sum`)
* the transforms are two pruned routes that mirror each other, each in
  pocketfft's own pass order and with its scaling point, each skipping
  only lines a full ``rfftn``/``irfftn`` reads as zeros or writes only to
  be cut, so each equals the full transform bit for bit (the inverse but
  for the sign of a zero).  The half spectrum ``(..., n, n, n/2 + 1)``
  exists only in their workspaces.  The forward (:func:`fft_forward`, the
  nonlinear term and the pressure alike) is an unscaled real pass along z,
  the ``1/n**3`` scale on the kept kz planes, x on those planes, y on the
  two kept x-slabs, then a gather of the compact cube, which for a product
  is its dealiasing.  The inverse is one stream, :func:`inverse_slabs`: an
  x pass over the compact lines ``(..., n, 2m+1, m+1)``, every dropped kx
  row zero, then, one x-slab of ``b`` planes at a time, the y pass on the
  kept kz planes and the real z pass, in one ``(..., b, n, n/2 + 1)``
  workspace allocated per call.  :func:`inverse_kept` drains the stream
  into a whole table.  A state's derivatives stream through
  :func:`derivative_slabs`, the only code that knows their layout (9
  gradient fields, then 18 Hessian fields, one per pair of
  :data:`HESSIAN_PAIRS` and component); it hands out per-slab views indexed
  ``grads[a][c]`` and ``hess[i][j][c]``, so the Hessian quadrature and
  ``|grad^2 u|`` contract each slab while it is in cache and never hold
  the whole derivative tables.  A slab is ``b = max(1, 2048 // n**2)``
  planes (at most n): about 2048 grid points, or one plane once ``n**2``
  is larger.  The 27 fields of a quadrature's slab then fit in L2 at small
  n, and the stream's buffers have one size per grid, which glibc's malloc
  reuses instead of handing pages back to the kernel to be faulted in
  again; slabs of 8192 points more than doubled the minor page faults of
  an n = 32 calibrate over whole tables
* the nonlinear term is the rotational product ``omega x u``
  (:func:`convective_core_half`): an inverse transform of the 6 fields
  [u, omega] and a forward transform of the 3 product components, 9
  three-dimensional FFTs per right-hand side, each pruned to the kept
  modes and bitwise equal to the full transform

All operations are pure functions, but for :func:`project_kept`, which
works in place on an array its caller owns.  Reductions are numpy's own
C-order sums, never a BLAS call, so results are reproducible run to run and
do not depend on the BLAS thread count.  The environment variable
``REGCRIT_THREADS`` caps the FFT worker pool (default: every CPU); the
worker count does not change any result.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as _fft

TWO_PI = 2.0 * np.pi

class NonFiniteSamples(ValueError):
    """Field samples hold NaN or infinity."""


#: the CPU count, read once; ``REGCRIT_THREADS`` is read per transform call
_CPUS = os.cpu_count() or 1

#: grid points per x-slab of :func:`inverse_slabs` (module docstring)
_SLAB_POINTS = 2048


def _workers() -> int:
    raw = os.environ.get("REGCRIT_THREADS", "")
    try:
        cap = int(raw) if raw else _CPUS
    except ValueError:
        cap = _CPUS
    return max(1, min(_CPUS, cap))


def _slab_planes(n: int) -> int:
    """x-planes per slab of :func:`inverse_slabs`: about ``_SLAB_POINTS``
    grid points, at least one plane and at most n."""
    return min(n, max(1, _SLAB_POINTS // (n * n)))


@dataclass(frozen=True)
class Grid:
    """Cubic periodic grid: ``n`` points per axis on a box of side ``length``."""

    n: int
    length: float = TWO_PI

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or isinstance(self.n, bool):
            raise ValueError(f"grid size n is not an integer: {self.n!r}")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"grid needs n >= 4 and even, got n={self.n}")
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise ValueError(f"box length must be positive and finite, got {self.length}")

    @property
    def spacing(self) -> float:
        return self.length / self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**3

    @property
    def volume(self) -> float:
        return self.length**3

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @cached_property
    def coordinates(self) -> np.ndarray:
        """1D sample coordinates along one axis."""
        return np.arange(self.n) * self.spacing

    @cached_property
    def integer_modes(self) -> np.ndarray:
        """Signed integer wavevector along one axis, FFT storage order."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)

    @property
    def half(self) -> int:
        """Number of kz planes of a real-input half spectrum, kz = 0 .. n/2."""
        return self.n // 2 + 1

    @property
    def kept_max(self) -> int:
        """m = (n - 1) // 3, the largest |k_i| the 2/3 rule keeps."""
        return (self.n - 1) // 3

    @property
    def kept_shape(self) -> tuple[int, int, int]:
        """Shape of the compact cube, the storage layout of spectral fields."""
        m = self.kept_max
        return (2 * m + 1, 2 * m + 1, m + 1)

    @cached_property
    def kept_slabs(self) -> tuple[slice, slice]:
        """The storage index ranges ``[0, m]`` and ``[n - m, n - 1]`` of the
        modes the 2/3 rule keeps along x or y; along kz the half spectrum
        holds only the first."""
        m = self.kept_max
        return (slice(0, m + 1), slice(self.n - m, self.n))

    @cached_property
    def kept_index(self) -> np.ndarray:
        """The FFT storage index of each compact-cube index along x or y."""
        m = self.kept_max
        return np.r_[0 : m + 1, self.n - m : self.n]

    @cached_property
    def wavevector(self) -> np.ndarray:
        """Physical wavevector (kx, ky, kz) on the compact cube, shape
        ``(3,) + kept_shape``."""
        k = self.integer_modes[self.kept_index].astype(np.float64) * (TWO_PI / self.length)
        m = self.kept_max
        return np.stack(np.broadcast_arrays(k[:, None, None], k[None, :, None], k[: m + 1]))

    @cached_property
    def k_squared(self) -> np.ndarray:
        kx, ky, kz = self.wavevector
        return kx**2 + ky**2 + kz**2

    @cached_property
    def inv_k_squared(self) -> np.ndarray:
        """1/|k|^2 with the k = 0 entry set to zero."""
        k2 = self.k_squared
        out = np.zeros_like(k2)
        np.divide(1.0, k2, out=out, where=k2 > 0)
        return out

    @cached_property
    def sobolev_weights(self) -> tuple[np.ndarray, ...]:
        """|k|^(2m) on the compact cube for m = 0 .. 3."""
        k2 = self.k_squared
        return tuple(k2**m for m in range(4))

    @cached_property
    def parseval_weights(self) -> np.ndarray:
        """Per kz plane of the compact cube: 1 on kz = 0, 2 on the others."""
        weights = np.full(self.kept_max + 1, 2.0)
        weights[0] = 1.0
        return weights

    @cached_property
    def k_squared_max_retained(self) -> float:
        """Largest |k|^2 the 2/3 rule keeps; sets the viscous CFL."""
        return float(self.k_squared.max())

    def meshes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = self.coordinates
        return np.meshgrid(x, x, x, indexing="ij")


def _check_values(grid: Grid, values: np.ndarray, nc: int, kind: str) -> np.ndarray:
    want = (nc,) + grid.shape if nc > 1 else grid.shape
    arr = np.asarray(values)
    if arr.shape != want:
        raise ValueError(f"{kind}: expected shape {want}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteSamples(f"{kind}: non-finite samples")
    return arr


@dataclass
class RealScalarField:
    grid: Grid
    values: np.ndarray  # (n, n, n) float64, axes (x, y, z)

    def __post_init__(self):
        self.values = _check_values(
            self.grid, np.asarray(self.values, dtype=np.float64), 1, "RealScalarField"
        )


@dataclass
class _SpectralField:
    """Fourier coefficients held as the compact cube ``kept``, contiguous;
    any other shape is a ValueError."""

    grid: Grid
    kept: np.ndarray

    _components = 1

    def __post_init__(self):
        want = ((self._components,) if self._components > 1 else ()) + self.grid.kept_shape
        self.kept = np.ascontiguousarray(self.kept, dtype=np.complex128)
        if self.kept.shape != want:
            raise ValueError(
                f"{type(self).__name__}: expected the kept modes, shape {want}, "
                f"got {self.kept.shape}"
            )


@dataclass
class SpectralScalarField(_SpectralField):
    """Fourier coefficients of a real scalar field, shape (2m+1, 2m+1, m+1)."""


@dataclass
class VelocityField:
    """Three real components stacked as a (3, n, n, n) array."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = _check_values(
            self.grid, np.asarray(self.values, dtype=np.float64), 3, "VelocityField"
        )

    def magnitude(self) -> np.ndarray:
        """Pointwise Euclidean magnitude of the 3-vector."""
        return np.sqrt(np.einsum("cxyz,cxyz->xyz", self.values, self.values))


@dataclass
class SpectralVelocityField(_SpectralField):
    """Fourier coefficients of a real 3-vector field, shape
    (3, 2m+1, 2m+1, m+1); also used for the convective term."""

    _components = 3


# used only by the tests' full-cube route; kept here because the benchmark traces it
def full_from_half(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Rebuild full-cube coefficients from a half spectrum by conjugate mirror."""
    out = np.empty(half.shape[:-3] + grid.shape, dtype=np.complex128)
    out[..., : grid.half] = half
    out[..., grid.half :] = _mirror_tail(grid, half)
    return out


def _mirror_tail(grid: Grid, half: np.ndarray) -> np.ndarray:
    """The kz > n/2 planes of the full cube: conj(F(-k)) taken from the
    interior kept planes kz = 1 .. n/2 - 1, in full-cube storage order."""
    m = (-np.arange(grid.n)) % grid.n
    interior = half[..., 1 : grid.half - 1]
    return np.conj(interior[..., m, :, :][..., :, m, :][..., ::-1])


def parseval_sum(grid: Grid, density: np.ndarray) -> float:
    """Box volume times the full-cube sum of a density even in k, given on
    the compact cube; e.g. ``|u_hat|^2`` gives ``||u||_2^2``.  Each kz > 0
    plane stands for itself and its mirror plane, so it counts twice; kz = 0
    is its own mirror and counts once.  The kz = n/2 plane, also its own
    mirror, is never kept."""
    return float(grid.volume * np.sum(grid.parseval_weights * density))


def fft_forward(f):
    """Transform a real field to spectral space (k = 0 coefficient = mean),
    keeping the modes the 2/3 rule keeps: the real pass along z, then
    :func:`_forward_kept`.  ``f`` is not modified."""
    if isinstance(f, RealScalarField):
        kind = SpectralScalarField
    elif isinstance(f, VelocityField):
        kind = SpectralVelocityField
    else:
        raise TypeError(f"cannot transform {type(f).__name__}")
    workers = _workers()
    half = _fft.rfft(f.values, axis=-1, workers=workers)
    return kind(f.grid, _forward_kept(f.grid, half, workers))


def divergence(U: SpectralVelocityField) -> SpectralScalarField:
    kx, ky, kz = U.grid.wavevector
    u, v, w = U.kept
    return SpectralScalarField(U.grid, 1j * (kx * u + ky * v + kz * w))


def project_kept(grid: Grid, kept: np.ndarray, negate: bool = False) -> None:
    """In place on the 3-component compact cube ``kept``:
    u <- (I - k k^T/|k|^2) u, or its negative when ``negate``.  With
    s = (k . u)/|k|^2, that is u - k s (k s - u when negated)."""
    k = grid.wavevector
    u, v, w = kept
    s = (k[0] * u + k[1] * v + k[2] * w) * grid.inv_k_squared
    if negate:
        np.subtract(k * s, kept, out=kept)
    else:
        np.subtract(kept, k * s, out=kept)


def leray_project(U: SpectralVelocityField) -> SpectralVelocityField:
    """Project onto divergence-free fields: u <- (I - k k^T/|k|^2) u.

    The k = 0 mode (mean flow) passes through unchanged; idempotent and
    self-adjoint for the spectral inner product (:func:`project_kept`).
    """
    out = U.kept.copy()
    project_kept(U.grid, out)
    return SpectralVelocityField(U.grid, out)


def _complex_pass(lines: np.ndarray, axis: int, inverse: bool, workers: int) -> None:
    """One unscaled 1-D complex FFT pass along ``axis`` over the view
    ``lines``, in place.  scipy writes into the view's memory when it can
    and returns a new array object over it, so the result is copied back
    only when it does not share that memory."""
    transform, norm = (_fft.ifft, "forward") if inverse else (_fft.fft, "backward")
    out = transform(lines, axis=axis, norm=norm, overwrite_x=True, workers=workers)
    if not np.may_share_memory(out, lines):
        lines[...] = out


def _forward_kept(grid: Grid, half: np.ndarray, workers: int) -> np.ndarray:
    """The compact cube of the grid samples whose unscaled real pass along
    z, ``rfft(samples, axis=-1)`` of shape ``(..., n, n, n/2 + 1)``, is
    ``half``: the forward transform cut to the kept modes, by pruned 1-D
    passes in place on the workspace ``half``, in pocketfft's own order and
    with its scaling point.  The ``1/n**3`` scale on the kept kz planes
    (``rfftn`` scales right after its z pass), x on those planes and y on
    the two kept x-slabs, then a gather of the 4 blocks of kept modes, one
    per pair of kept x and y slabs; the lines skipped are those a full
    ``rfftn`` writes only to be cut, so the result equals its kept modes bit
    for bit, signs of zeros included."""
    n, m = grid.n, grid.kept_max
    lo, hi = grid.kept_slabs
    kept_planes = half[..., lo].view(np.float64)
    kept_planes *= 1.0 / (n * n * n)
    _complex_pass(half[..., lo], axis=-3, inverse=False, workers=workers)
    for sx in (lo, hi):
        _complex_pass(half[..., sx, :, lo], axis=-2, inverse=False, workers=workers)
    out = np.empty(half.shape[:-3] + grid.kept_shape, dtype=np.complex128)
    pairs = ((lo, slice(0, m + 1)), (hi, slice(m + 1, 2 * m + 1)))
    for sx, cx in pairs:
        for sy, cy in pairs:
            out[..., cx, cy, :] = half[..., sx, sy, lo]
    return out


def _x_pass(grid: Grid, parts, fields: int, workers: int) -> np.ndarray:
    """The x pass of the inverse transform: the compact cubes that ``parts``
    yields, each ``(k, 2m+1, 2m+1, m+1)`` and ``fields`` in all, written one
    after another onto the kept kx rows of one ``(fields, n, 2m+1, m+1)``
    array whose other rows are zero, and transformed along x in place."""
    n, m = grid.n, grid.kept_max
    lines = np.empty((fields, n, 2 * m + 1, m + 1), dtype=np.complex128)
    lines[:, m + 1 : n - m] = 0.0
    f = 0
    for part in parts:
        k = len(part)
        lines[f : f + k, : m + 1] = part[:, : m + 1]
        lines[f : f + k, n - m :] = part[:, m + 1 :]
        f += k
        del part  # freed before the next part is formed
    if f != fields:
        raise ValueError(f"inverse transform of {fields} fields was given {f}")
    _complex_pass(lines, axis=-3, inverse=True, workers=workers)
    return lines


def _slabs(grid: Grid, lines: np.ndarray, workers: int):
    """Yield ``(x0, x1, samples)``: the grid samples of the x-passed
    ``lines`` on the planes ``x0 <= x < x1``, shape ``(fields, x1 - x0, n,
    n)``, one slab at a time in x order.  Each slab is scattered onto the
    kept kz planes of one workspace, whose other planes stay zero (the real
    pass does not write its input), and run through the y pass there and
    the real z pass."""
    n, m = grid.n, grid.kept_max
    b = _slab_planes(n)
    work = np.zeros((len(lines), b, n, grid.half), dtype=np.complex128)
    for x0 in range(0, n, b):
        x1 = min(x0 + b, n)
        slab = work[:, : x1 - x0]
        planes = slab[..., : m + 1]
        planes[:, :, : m + 1] = lines[:, x0:x1, : m + 1]
        planes[:, :, m + 1 : n - m] = 0.0
        planes[:, :, n - m :] = lines[:, x0:x1, m + 1 :]
        _complex_pass(planes, axis=-2, inverse=True, workers=workers)
        yield x0, x1, _fft.irfft(slab, n=n, axis=-1, norm="forward", workers=workers)


def inverse_slabs(grid: Grid, parts, fields: int):
    """The grid samples of ``fields`` fields, one x-slab at a time: an
    iterator of ``(x0, x1, samples)`` in x order, ``samples`` of shape
    ``(fields, x1 - x0, n, n)`` and new per slab.

    ``parts`` yields the fields' compact cubes, each ``(k, 2m+1, 2m+1,
    m+1)``, so a caller can form them one at a time; the x pass over all of
    them runs in this call.  The passes run in pocketfft's own order and with
    its scaling point: x on the kept (ky, kz) lines, y on the kept kz planes
    of each slab, then a real pass along z.  The lines skipped are those a
    full ``irfftn`` reads only as zeros, so the samples equal its samples bit
    for bit, but for the sign of a zero.  The worker count is read once.
    """
    workers = _workers()
    return _slabs(grid, _x_pass(grid, parts, fields, workers), workers)


def _drain(grid: Grid, lines: np.ndarray, workers: int) -> np.ndarray:
    """The whole ``(fields, n, n, n)`` table of the slab stream of the
    x-passed ``lines``."""
    out = np.empty((len(lines),) + grid.shape)
    for x0, x1, samples in _slabs(grid, lines, workers):
        out[:, x0:x1] = samples
    return out


def inverse_kept(grid: Grid, kept: np.ndarray) -> np.ndarray:
    """Grid samples of the fields whose compact cubes are ``kept``, shape
    ``(..., 2m+1, 2m+1, m+1)``: the slab stream of :func:`inverse_slabs`
    drained into one table.  ``kept`` is not modified."""
    lead = kept.shape[:-3]
    flat = kept.reshape((-1,) + grid.kept_shape)
    workers = _workers()
    out = _drain(grid, _x_pass(grid, (flat,), len(flat), workers), workers)
    return out.reshape(lead + grid.shape)


#: the 6 index pairs (i, j), i <= j, of the symmetric Hessian, in table order
HESSIAN_PAIRS = tuple((i, j) for i in range(3) for j in range(i, 3))

#: PAIR[i][j]: the row of the pair table holding d_i d_j, for either order of i, j
PAIR = tuple(
    tuple(HESSIAN_PAIRS.index((min(i, j), max(i, j))) for j in range(3)) for i in range(3)
)


def _derivative_spectra(U: SpectralVelocityField, gradients: bool = True):
    """The compact spectra of the state's derivative fields, 3 components at
    a time, for :func:`inverse_slabs`: when ``gradients``, first the 9
    fields i k_a u_c of d u_c / d x_a, a = 0, 1, 2; then the 18 fields
    -k_i k_j u_c of d^2 u_c / dx_i dx_j, one pair of :data:`HESSIAN_PAIRS`
    at a time.  The Hessian is symmetric in (i, j), so the 6 pairs hold all
    27 entries; :data:`PAIR` maps either order to its pair."""
    k = U.grid.wavevector
    if gradients:
        for a in range(3):
            yield (1j * k[a]) * U.kept
    for i, j in HESSIAN_PAIRS:
        yield (-k[i] * k[j]) * U.kept


def derivative_slabs(U: SpectralVelocityField, gradients: bool = True):
    """The state's first and second derivatives on the grid, one x-slab at a
    time: an iterator of ``(x0, x1, grads, hess)`` in x order, on the
    ``points = (x1 - x0) n**2`` grid points of the planes ``x0 <= x < x1``.

    ``grads[a][c]`` holds the samples of d u_c / dx_a there, a ``(3, 3,
    points)`` array, or is None when ``gradients`` is false;
    ``hess[i][j]`` is the ``(3, points)`` array of d^2 u_c / dx_i dx_j,
    c = 0, 1, 2, and ``hess[i][j] is hess[j][i]``.  Both are views of one
    slab of :func:`inverse_slabs`, new per slab; the stream holds 9 + 18
    fields (18 without the gradients), one per Hessian pair and component,
    and only this function knows that layout."""
    g = U.grid
    pairs = len(HESSIAN_PAIRS)
    fields = (9 if gradients else 0) + 3 * pairs
    for x0, x1, samples in inverse_slabs(g, _derivative_spectra(U, gradients), fields):
        rows = samples.reshape(fields, -1)
        grads = rows[:9].reshape(3, 3, -1) if gradients else None
        d2 = tuple(rows[fields - 3 * pairs :].reshape(pairs, 3, -1))
        hess = tuple(tuple(d2[PAIR[i][j]] for j in range(3)) for i in range(3))
        yield x0, x1, grads, hess


# no command calls these two: the quadratures stream the fields instead; they
# are kept because the benchmark traces them by name
def first_derivatives(U: SpectralVelocityField) -> np.ndarray:
    """The whole table d[a, c] = d u_c / dx_a, shape (3, 3, n, n, n)."""
    ik = 1j * U.grid.wavevector
    return inverse_kept(U.grid, ik[:, None] * U.kept)


def second_derivatives(U: SpectralVelocityField) -> np.ndarray:
    """The whole pair table d2[PAIR[i][j], c] = d^2 u_c / dx_i dx_j, shape
    (6, 3, n, n, n)."""
    spectra = np.stack(list(_derivative_spectra(U, gradients=False)))
    return inverse_kept(U.grid, spectra)


def convective_core_half(
    grid: Grid, kept: np.ndarray, samples: bool = True
) -> tuple[np.ndarray, float, np.ndarray | None, np.ndarray | None]:
    """Dealiased rotational nonlinear term omega x u on the compact cube,
    the grid max of |u|, and the grid samples of u and omega = curl u.

    omega x u differs from (u . grad) u by grad |u|^2/2, which the Leray
    projection removes, so both give the same projected right-hand side.
    Both factors are dealiased before the pointwise product and the product
    is dealiased again, so retained modes of band-limited inputs are exact.
    The max feeds the advective CFL check, and the samples (views of one
    (6, n, n, n) array, of the dealiased u) feed the monitors and snapshots
    of the same state, without another transform.  With ``samples=False``
    the max is NaN, the samples are None and are freed before the forward
    transform.

    The transforms are the package's two routes: the drained slab stream of
    [u, omega] (:func:`inverse_slabs`), with no concatenated spectrum, and
    the forward of omega x u, the real pass along z and
    :func:`_forward_kept`, as in :func:`fft_forward`.  The worker count is
    read once.  The name is kept from when the kernel worked on the half
    spectrum, because the benchmark traces the nonlinear term by it.
    """
    workers = _workers()
    kx, ky, kz = grid.wavevector
    u, v, w = kept
    omega_hat = 1j * np.stack((ky * w - kz * v, kz * u - kx * w, kx * v - ky * u))
    lines = _x_pass(grid, (kept, omega_hat), 6, workers)
    del omega_hat
    phys = _drain(grid, lines, workers)
    del lines
    u_phys, omega = phys[:3], phys[3:]
    cross = np.empty((3,) + grid.shape)
    tmp = np.empty(grid.shape)
    for c in range(3):
        a, b = (c + 1) % 3, (c + 2) % 3
        np.multiply(omega[a], u_phys[b], out=cross[c])
        np.multiply(omega[b], u_phys[a], out=tmp)
        cross[c] -= tmp
    if samples:
        np.einsum("cxyz,cxyz->xyz", u_phys, u_phys, out=tmp)
        u_max = math.sqrt(float(tmp.max(initial=0.0)))
    else:
        u_max, u_phys, omega = math.nan, None, None
    del phys, tmp
    # the product is freed before the passes: held through them, it took
    # the minor page faults of an n = 96 call from about 1k to 3-4k
    half = _fft.rfft(cross, axis=-1, workers=workers)
    del cross
    return _forward_kept(grid, half, workers), u_max, u_phys, omega


def to_physical(U: SpectralVelocityField) -> VelocityField:
    """The grid samples of a spectral velocity field: :func:`inverse_kept`
    of its compact cube.  No command calls it: the commands take their
    samples from :func:`convective_core_half` and :func:`inverse_slabs`.
    It stays because the benchmark traces it by name."""
    return VelocityField(U.grid, inverse_kept(U.grid, U.kept))
