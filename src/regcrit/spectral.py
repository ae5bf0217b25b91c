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
  is its dealiasing; :func:`fft_forward` takes a velocity field one
  component at a time, so its workspace is one field's half spectrum.
  The pressure's |u|^2/2 is the only command caller of
  :func:`fft_forward` (``report --pressure``): every state is set, stepped
  and stored on the compact cube.
  The inverse is one stream, :func:`inverse_slabs`: an x pass over the
  compact lines ``(..., n, 2m+1, m+1)``, every dropped kx row zero, then,
  one x-slab of ``b`` planes at a time, the y pass on the
  kept kz planes and the real z pass, in one ``(..., b, n, n/2 + 1)``
  workspace allocated per call.  :func:`inverse_kept` drains the stream
  into a whole table.  A state's derivatives stream through
  :func:`derivative_slabs`, the only code, with its helper
  :func:`_derivative_blocks`, that knows their layout (9 gradient fields,
  then 18 Hessian fields, one per pair of :data:`HESSIAN_PAIRS` and
  component); it hands out per-slab views indexed
  ``grads[a][c]`` and ``hess[i][j][c]``, so the Hessian quadrature and
  ``|grad^2 u|`` contract each slab while it is in cache and never hold
  the whole derivative tables.  Since k_y and k_z are constant along x,
  its x pass runs over only the 9 spectra (i k_x)^alpha u_c, alpha = 0,
  1, 2, and each derivative field is one spectrum's x-passed lines times
  its i k_y and i k_z factors, formed one x-slab at a time in a compact
  buffer that is then scattered into the workspace; so the x-passed table
  holds 9 fields, not 27 (28 MB, not 84, at n = 96), and the fields equal
  those of the whole factors applied before the x pass to roundoff, not
  bit for bit.  A slab is
  ``b = max(1, P // n**2)`` planes (at most n): about P grid points, or
  one plane once ``n**2`` is larger (:func:`_slab_planes`).  There are two
  rules for P:

  - the derivative streams take P = 2048.  The 27 fields of a
    quadrature's slab then fit in L2 at small n, and the stream's buffers
    have one size per grid; slabs of 8192 points more than doubled the
    minor page faults of an n = 32 calibrate over whole tables.  Whether
    freed buffers are reused or handed back to the kernel, to be faulted
    in again, is glibc's choice, which ``cli.main`` fixes
    (``cli._fix_malloc_thresholds``)
  - the nonlinear term takes P = 16384: 16 planes at n = 32, 4 at n = 64,
    1 at n = 96.  Its slab holds 6 fields, not 27, and each slab pays a
    fixed cost in Python calls for its product and its two passes, which
    narrow slabs pay often where the grid is small: with 2048-point slabs
    an n = 32 kernel call was no faster than whole tables.  With 16384
    points a monitored n = 32 step ran about 7 % faster than with whole
    tables and an n = 64 step 7 to 11 % faster
    (``BENCH_2026-10-19-kernel-stream.json``)
* the nonlinear term is the rotational product ``omega x u``
  (:func:`convective_core_half`): an inverse transform of the 6 fields
  [u, omega] and a forward transform of the 3 product components, 9
  three-dimensional FFTs per right-hand side, each pruned to the kept
  modes and bitwise equal to the full transform.  It is one slab loop:
  each x-slab of [u, omega] is multiplied out and taken through the real
  z pass while it is in cache, so only the x-passed lines and the kept kz
  planes of the product are whole-grid arrays.  A caller that asks for
  samples gets what the monitors read: one field, |u|^2, formed slab by
  slab, and the number max |omega|; no table of u or omega samples leaves
  the kernel

All operations are pure functions, but for :func:`project_kept`, which
works in place on an array its caller owns.  Reductions are numpy's own
C-order sums, never a BLAS call, so results are reproducible run to run and
do not depend on the BLAS thread count.  The 1-D passes are
``numpy.fft``'s pocketfft, which runs on one thread, so no worker count or
thread setting can change a result.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy import fft as _fft

TWO_PI = 2.0 * np.pi

class NonFiniteSamples(ValueError):
    """Field samples hold NaN or infinity."""


#: grid points per x-slab of :func:`inverse_slabs` (module docstring)
_SLAB_POINTS = 2048

#: grid points per x-slab of :func:`convective_core_half` (module docstring)
_KERNEL_POINTS = 16384


def _slab_planes(n: int, points: int = _SLAB_POINTS) -> int:
    """x-planes per slab of a slab stream: about ``points`` grid points, at
    least one plane and at most n."""
    return min(n, max(1, points // (n * n)))


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
        """Pointwise Euclidean magnitude of the 3-vector, its square root
        taken in place: one grid field."""
        mag = np.einsum("cxyz,cxyz->xyz", self.values, self.values)
        return np.sqrt(mag, out=mag)


@dataclass
class SpectralVelocityField(_SpectralField):
    """Fourier coefficients of a real 3-vector field, shape
    (3, 2m+1, 2m+1, m+1); also used for the convective term."""

    _components = 3


# used only by the tests' full-cube route; kept here because the benchmark's
# MEAN_MS names it, and tests/test_bench_contract.py pins every MEAN_MS name
# to a regcrit function (the tracer's patching alone would not need it)
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
    :func:`_forward_kept`.  A velocity field is transformed one component
    at a time through one ``(n, n, n/2 + 1)`` workspace, so beside the
    samples and the result the call holds one field's half spectrum, not
    three; every line sees the same passes, so the result is bit for bit
    that of the three at once.  ``f`` is not modified."""
    if isinstance(f, RealScalarField):
        kind = SpectralScalarField
    elif isinstance(f, VelocityField):
        kind = SpectralVelocityField
    else:
        raise TypeError(f"cannot transform {type(f).__name__}")
    g = f.grid
    fields = f.values.reshape((-1,) + g.shape)
    out = np.empty((len(fields),) + g.kept_shape, dtype=np.complex128)
    # numpy's rfft lays its output out as its input, whatever its memory
    # order; _forward_kept views the kz planes as C-ordered doubles
    half = np.empty(g.shape[:-1] + (g.half,), dtype=np.complex128)
    for c, values in enumerate(fields):
        _fft.rfft(values, axis=-1, out=half)
        _forward_kept(g, half, out[c])
    return kind(g, out.reshape(f.values.shape[:-3] + g.kept_shape))


def divergence(U: SpectralVelocityField) -> SpectralScalarField:
    kx, ky, kz = U.grid.wavevector
    u, v, w = U.kept
    return SpectralScalarField(U.grid, 1j * (kx * u + ky * v + kz * w))


def project_kept(grid: Grid, kept: np.ndarray, negate: bool = False) -> None:
    """In place on the 3-component compact cube ``kept``:
    u <- (I - k k^T/|k|^2) u, or its negative when ``negate``.  With
    s = (k . u)/|k|^2, that is u - k s (k s - u when negated).  ``s`` and
    each product ``k_c s`` are formed in two scalar compact cubes of
    scratch, with no 3-component temporary."""
    k = grid.wavevector
    s, ks = np.empty((2,) + grid.kept_shape, dtype=np.complex128)
    # s = (k0 u + k1 v + k2 w) / |k|^2, summed left to right
    np.multiply(k[0], kept[0], out=s)
    for c in (1, 2):
        np.multiply(k[c], kept[c], out=ks)
        s += ks
    s *= grid.inv_k_squared
    for c in range(3):
        np.multiply(k[c], s, out=ks)
        if negate:
            np.subtract(ks, kept[c], out=kept[c])
        else:
            np.subtract(kept[c], ks, out=kept[c])


def leray_project(U: SpectralVelocityField) -> SpectralVelocityField:
    """Project onto divergence-free fields: u <- (I - k k^T/|k|^2) u.

    The k = 0 mode (mean flow) passes through unchanged; idempotent and
    self-adjoint for the spectral inner product (:func:`project_kept`).
    """
    out = U.kept.copy()
    project_kept(U.grid, out)
    return SpectralVelocityField(U.grid, out)


def _complex_pass(lines: np.ndarray, axis: int, inverse: bool) -> None:
    """One unscaled 1-D complex FFT pass along ``axis`` over the view
    ``lines``, in place: numpy transforms each line in a buffer of its own
    and writes it back through ``out``."""
    transform, norm = (_fft.ifft, "forward") if inverse else (_fft.fft, "backward")
    transform(lines, axis=axis, norm=norm, out=lines)


def _forward_kept(grid: Grid, half: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The compact cube of the grid samples whose unscaled real pass along
    z, ``rfft(samples, axis=-1)`` of shape ``(..., n, n, n/2 + 1)``, is
    ``half``: the forward transform cut to the kept modes, by pruned 1-D
    passes in place on the workspace ``half``, in pocketfft's own order and
    with its scaling point.  The ``1/n**3`` scale on the kept kz planes
    (``rfftn`` scales right after its z pass), x on those planes and y on
    the two kept x-slabs, then a gather of the 4 blocks of kept modes, one
    per pair of kept x and y slabs, into ``out`` when given; the lines
    skipped are those a full ``rfftn`` writes only to be cut, so the result
    equals its kept modes bit for bit, signs of zeros included."""
    n, m = grid.n, grid.kept_max
    lo, hi = grid.kept_slabs
    kept_planes = half[..., lo].view(np.float64)
    kept_planes *= 1.0 / (n * n * n)
    _complex_pass(half[..., lo], axis=-3, inverse=False)
    for sx in (lo, hi):
        _complex_pass(half[..., sx, :, lo], axis=-2, inverse=False)
    if out is None:
        out = np.empty(half.shape[:-3] + grid.kept_shape, dtype=np.complex128)
    pairs = ((lo, slice(0, m + 1)), (hi, slice(m + 1, 2 * m + 1)))
    for sx, cx in pairs:
        for sy, cy in pairs:
            out[..., cx, cy, :] = half[..., sx, sy, lo]
    return out


def _x_pass(grid: Grid, parts, fields: int) -> np.ndarray:
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
    _complex_pass(lines, axis=-3, inverse=True)
    return lines


def _slabs(grid: Grid, lines: np.ndarray, b: int, blocks=None):
    """Yield ``(x0, x1, samples)``: the grid samples of the x-passed
    ``lines`` on the planes ``x0 <= x < x1``, shape ``(fields, x1 - x0, n,
    n)``, one slab of at most ``b`` planes at a time in x order.  Each slab
    is scattered onto the kept kz planes of one workspace, whose other
    planes stay zero (the real pass does not write its input), and run
    through the y pass there and the real z pass.

    Without ``blocks`` the fields are the lines themselves.  Otherwise each
    block ``(out, src, factor)`` makes the fields ``out`` from the lines
    ``src``, the blocks' ``out`` ranges following one another from field 0,
    in a compact slab buffer before the scatter: a copy when
    ``factor`` is None, else, for ``factor`` of shape ``(K, 2m+1, m+1)`` on
    the kept (ky, kz) lines, constant along x, the fields ``factor[d] *
    lines[src][c]`` in (d, c) order, by one broadcast multiply."""
    n, m = grid.n, grid.kept_max
    fields = len(lines) if blocks is None else blocks[-1][0].stop
    if blocks is not None:
        formed = np.empty((fields, b) + lines.shape[2:], dtype=np.complex128)
    work = np.zeros((fields, b, n, grid.half), dtype=np.complex128)
    for x0 in range(0, n, b):
        x1 = min(x0 + b, n)
        if blocks is None:
            kept = lines[:, x0:x1]
        else:
            kept = formed[:, : x1 - x0]
            for out, src, factor in blocks:
                if factor is None:
                    kept[out] = lines[src, x0:x1]
                else:
                    part = lines[src, x0:x1]
                    np.multiply(factor[:, None, None], part,
                                out=kept[out].reshape((len(factor),) + part.shape))
        slab = work[:, : x1 - x0]
        planes = slab[..., : m + 1]
        planes[:, :, : m + 1] = kept[:, :, : m + 1]
        planes[:, :, m + 1 : n - m] = 0.0
        planes[:, :, n - m :] = kept[:, :, m + 1 :]
        _complex_pass(planes, axis=-2, inverse=True)
        yield x0, x1, _fft.irfft(slab, n=n, axis=-1, norm="forward")


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
    for bit, but for the sign of a zero.
    """
    lines = _x_pass(grid, parts, fields)
    return _slabs(grid, lines, _slab_planes(grid.n))


def inverse_kept(grid: Grid, kept: np.ndarray) -> np.ndarray:
    """Grid samples of the fields whose compact cubes are ``kept``, shape
    ``(..., 2m+1, 2m+1, m+1)``: the slab stream of :func:`inverse_slabs`
    drained into one table.  ``kept`` is not modified."""
    lead = kept.shape[:-3]
    flat = kept.reshape((-1,) + grid.kept_shape)
    out = np.empty((len(flat),) + grid.shape)
    for x0, x1, samples in inverse_slabs(grid, (flat,), len(flat)):
        out[:, x0:x1] = samples
    return out.reshape(lead + grid.shape)


#: the 6 index pairs (i, j), i <= j, of the symmetric Hessian, in table order
HESSIAN_PAIRS = tuple((i, j) for i in range(3) for j in range(i, 3))

#: PAIR[i][j]: the row of the pair table holding d_i d_j, for either order of i, j
PAIR = tuple(
    tuple(HESSIAN_PAIRS.index((min(i, j), max(i, j))) for j in range(3)) for i in range(3)
)


@lru_cache(maxsize=8)
def _derivative_blocks(grid: Grid, gradients: bool) -> tuple:
    """The ``blocks`` of :func:`_slabs` that make the derivative fields of
    :func:`derivative_slabs` from the x-passed spectra (i k_x)^alpha u_c,
    held as lines ``3 alpha + c``: when ``gradients``, first the 9 fields
    of d u_c / d x_a = i k_a u_c, a = 0, 1, 2; then the 18 fields of
    d^2 u_c / dx_i dx_j = -k_i k_j u_c, one pair of :data:`HESSIAN_PAIRS`
    at a time.  The Hessian is symmetric in (i, j), so the 6 pairs hold all
    27 entries; :data:`PAIR` maps either order to its pair.

    A derivative along the axes ``axes`` reads the spectrum with alpha =
    the count of x in ``axes``, times i k_a for each y or z axis a: a copy
    for d/dx and d^2/dx^2, and i k_y, i k_z, -k_y^2, -k_y k_z or -k_z^2
    else.  Consecutive derivatives that read one spectrum share a block.
    Cached per grid: the factors are ``(2m+1, m+1)`` planes."""
    k = grid.wavevector[:, 0]  # (kx, ky, kz) on the kept (ky, kz) lines
    derivatives = ([(a,) for a in range(3)] if gradients else []) + list(HESSIAN_PAIRS)
    runs = []  # [alpha, first field, factors]; no factors: a copy
    for f, axes in enumerate(derivatives):
        alpha = axes.count(0)
        factors = [np.prod([1j * k[a] for a in axes if a], axis=0)] if alpha < len(axes) else []
        if factors and runs and runs[-1][0] == alpha and runs[-1][2]:
            runs[-1][2] += factors
        else:
            runs.append([alpha, 3 * f, factors])
    return tuple(
        (slice(first, first + 3 * max(1, len(fs))), slice(3 * alpha, 3 * alpha + 3),
         np.stack(fs) if fs else None)
        for alpha, first, fs in runs
    )


def derivative_slabs(U: SpectralVelocityField, gradients: bool = True):
    """The state's first and second derivatives on the grid, one x-slab at a
    time: an iterator of ``(x0, x1, grads, hess)`` in x order, on the
    ``points = (x1 - x0) n**2`` grid points of the planes ``x0 <= x < x1``.

    ``grads[a][c]`` holds the samples of d u_c / dx_a there, a ``(3, 3,
    points)`` array, or is None when ``gradients`` is false;
    ``hess[i][j]`` is the ``(3, points)`` array of d^2 u_c / dx_i dx_j,
    c = 0, 1, 2, and ``hess[i][j] is hess[j][i]``.  Both are views of one
    slab, new per slab; the slab holds 9 + 18 fields (18 without the
    gradients), one per Hessian pair and component, and only this function
    and :func:`_derivative_blocks`, which lays them out, know that layout.

    k_y and k_z are constant along x, so the x pass runs over only the 9
    spectra (i k_x)^alpha u_c, alpha = 0, 1, 2 (:func:`_x_pass`), and each
    derivative field's k_y and k_z factors are applied to the x-passed
    lines one slab at a time, in :func:`_slabs` (:func:`_derivative_blocks`);
    then the y and z passes of :func:`inverse_slabs`.  The x-passed table
    is 9 fields, not 27.  d/dx and d^2/dx^2 take no factor after the x
    pass and equal the full transforms bit for bit; the other fields differ
    from those of the factors applied before the x pass by roundoff, at
    most 4.7e-16 of the largest value on random states at n = 16 to 64."""
    g = U.grid
    kx = g.wavevector[0]

    def spectra():  # (i k_x)^alpha u_c, one alpha at a time
        yield U.kept
        yield (1j * kx) * U.kept
        yield (-kx * kx) * U.kept

    lines = _x_pass(g, spectra(), 9)
    pairs = len(HESSIAN_PAIRS)
    fields = (9 if gradients else 0) + 3 * pairs
    blocks = _derivative_blocks(g, gradients)
    for x0, x1, samples in _slabs(g, lines, _slab_planes(g.n), blocks):
        rows = samples.reshape(fields, -1)
        grads = rows[:9].reshape(3, 3, -1) if gradients else None
        d2 = tuple(rows[fields - 3 * pairs :].reshape(pairs, 3, -1))
        hess = tuple(tuple(d2[PAIR[i][j]] for j in range(3)) for i in range(3))
        yield x0, x1, grads, hess


# no command calls these two: the quadratures stream the fields instead; they
# are kept because the benchmark's MEAN_MS names them, and
# tests/test_bench_contract.py pins every MEAN_MS name to a regcrit function
# (the tracer's patching alone would not need them).  They apply each
# field's whole wavenumber factor before the x pass, the route
# :func:`derivative_slabs` factored.
def first_derivatives(U: SpectralVelocityField) -> np.ndarray:
    """The whole table d[a, c] = d u_c / dx_a, shape (3, 3, n, n, n)."""
    ik = 1j * U.grid.wavevector
    return inverse_kept(U.grid, ik[:, None] * U.kept)


def second_derivatives(U: SpectralVelocityField) -> np.ndarray:
    """The whole pair table d2[PAIR[i][j], c] = d^2 u_c / dx_i dx_j, shape
    (6, 3, n, n, n)."""
    k = U.grid.wavevector
    spectra = np.stack([(-k[i] * k[j]) * U.kept for i, j in HESSIAN_PAIRS])
    return inverse_kept(U.grid, spectra)


def _velocity_and_curl(grid: Grid, kept: np.ndarray):
    """The compact spectra of [u, omega] for :func:`_x_pass`: ``kept``, then
    each component of omega = curl u, i (k_a u_d - k_d u_a) with (a, d)
    cyclic after c, as a ``(1, 2m+1, 2m+1, m+1)`` view of one buffer that
    the next component overwrites, so it must be consumed lazily, each
    part copied before the next is asked for (as :func:`_x_pass` does)."""
    yield kept
    k = grid.wavevector
    comp, scratch = np.empty((2, 1) + grid.kept_shape, dtype=np.complex128)
    for c in range(3):
        a, d = (c + 1) % 3, (c + 2) % 3
        np.multiply(k[a], kept[d], out=comp[0])
        np.multiply(k[d], kept[a], out=scratch[0])
        comp -= scratch
        comp *= 1j
        yield comp


def convective_core_half(
    grid: Grid, kept: np.ndarray, samples: bool = True
) -> tuple[np.ndarray, float, np.ndarray | None, float]:
    """Dealiased rotational nonlinear term omega x u on the compact cube,
    the grid max of |u|, the field |u|^2 and the grid max of |omega|,
    omega = curl u: ``(w_hat, u_max, u_sq, omega_max)``.

    omega x u differs from (u . grad) u by grad |u|^2/2, which the Leray
    projection removes, so both give the same projected right-hand side.
    Both factors are dealiased before the pointwise product and the product
    is dealiased again, so retained modes of band-limited inputs are exact.
    u_max feeds the advective CFL check; ``u_sq``, the (n, n, n) samples of
    |u|^2 of the dealiased u, and ``omega_max`` feed the monitors of the same
    state, without another transform, since every grid column they take is
    a function of |u| or of max |omega|.  With ``samples=False`` the tuple
    is ``(w_hat, nan, None, nan)`` and no grid field is formed.

    One slab loop serves both: per x-slab of the stream of [u, omega]
    (:func:`inverse_slabs`'s passes, with no concatenated spectrum: the x
    pass takes omega's spectrum one component at a time from one
    compact-cube buffer, :func:`_velocity_and_curl`; in slabs of
    ``_slab_planes(n, _KERNEL_POINTS)`` planes), the product is
    formed in slab buffers and taken through the real pass along z, whose
    kept kz planes go into one ``(3, n, n, m + 1)`` workspace for
    :func:`_forward_kept`, the route of :func:`fft_forward`.  With
    ``samples``, the slab's |u|^2 is written straight into ``u_sq``, and
    max |omega|^2 is the largest of the per-slab maxima, which is exact in
    any order; each max is the square root of the largest square, which
    keeps a NaN.  Every pass sees the lines of the whole-table route, in
    the same order, so the result is that route's bit for bit.  The name
    is kept from when the kernel worked on the half spectrum, because the
    benchmark traces the nonlinear term by it.
    """
    n, m = grid.n, grid.kept_max
    lines = _x_pass(grid, _velocity_and_curl(grid, kept), 6)
    b = _slab_planes(n, _KERNEL_POINTS)
    cross = np.empty((3, b, n, n))
    tmp = np.empty((b, n, n))
    half = np.empty((3, n, n, m + 1), dtype=np.complex128)
    u_sq = np.empty(grid.shape) if samples else None
    omega_sq_max = 0.0
    for x0, x1, slab in _slabs(grid, lines, b):
        u_phys, omega = slab[:3], slab[3:]
        product, scratch = cross[:, : x1 - x0], tmp[: x1 - x0]
        for c in range(3):
            a, d = (c + 1) % 3, (c + 2) % 3
            np.multiply(omega[a], u_phys[d], out=product[c])
            np.multiply(omega[d], u_phys[a], out=scratch)
            product[c] -= scratch
        if samples:
            np.einsum("cxyz,cxyz->xyz", u_phys, u_phys, out=u_sq[x0:x1])
            np.einsum("cxyz,cxyz->xyz", omega, omega, out=scratch)
            # np.maximum, unlike max(), keeps a NaN
            omega_sq_max = np.maximum(omega_sq_max, scratch.max(initial=0.0))
        half[:, x0:x1] = _fft.rfft(product, axis=-1)[..., : m + 1]
    del lines, slab, u_phys, omega
    w_hat = _forward_kept(grid, half)
    if not samples:
        return w_hat, math.nan, None, math.nan
    return w_hat, math.sqrt(float(u_sq.max(initial=0.0))), u_sq, math.sqrt(float(omega_sq_max))


def to_physical(U: SpectralVelocityField) -> VelocityField:
    """The grid samples of a spectral velocity field: :func:`inverse_kept`
    of its compact cube, the u samples of :func:`convective_core_half`, so
    their pointwise |u|^2 is that kernel's ``u_sq`` bit for bit.  ``verify``
    takes a snapshot's |u| so, and so tells a non-finite sample
    (:class:`NonFiniteSamples`) from a finite one whose square overflows."""
    return VelocityField(U.grid, inverse_kept(U.grid, U.kept))
