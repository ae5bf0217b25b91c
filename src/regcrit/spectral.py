"""Periodic-box fields and spectral operators.

Conventions, fixed once for the whole package:

* cubic grid with ``n`` samples per axis on the box ``[0, length]^3``
  (default side 2*pi); sample ``(i, j, k)`` sits at ``(i, j, k) * length/n``
  and arrays are indexed ``[x, y, z]``
* the forward transform divides by ``n**3``, so the ``k = 0`` coefficient
  equals the field mean and Parseval reads
  ``sum(samples**2) * dx**3 == sum(|coeffs|**2) * length**3``, the sum
  running over every wavevector of the cube
* spectral fields store the rfft half spectrum, kz indices ``0 .. n/2``
  (shape ``(..., n, n, n/2 + 1)``), and their constructors accept no other
  shape; the kz < 0 coefficients are the conjugate mirror of the kept ones.
  A sum over every wavevector of a quantity even in k is a half-spectrum sum
  with Parseval weights: 1 on the kz = 0 and kz = n/2 planes, 2 on every
  other plane (:func:`parseval_sum`)
* integer wavevectors run over ``{-n/2, ..., n/2 - 1}`` per axis, scaled by
  ``2*pi/length``; the unpaired Nyquist mode ``-n/2`` is zeroed in every
  derivative operator
* quadratic products are dealiased by the 2/3 rule: a mode is kept when
  ``3 * max(|kx|, |ky|, |kz|) < n`` (integer wavevector max-norm) and zeroed
  otherwise.  The bound is strict: a product of kept modes reaches at most
  ``2 max|k|``, which aliases to ``2 max|k| - n``; that stays outside the
  kept band only when ``3 max|k| < n``.  (With ``3 | n`` and ``max|k| = n/3``
  kept, mode ``2n/3`` would alias onto the kept mode ``-n/3``.)
* the nonlinear term is the rotational product ``omega x u``
  (:func:`convective_core_half`): one batched inverse transform of the 6
  fields [u, omega] and one forward transform of the 3 product components,
  9 three-dimensional FFTs per right-hand side

All operations are pure functions.  Reductions are plain C-order numpy sums,
so results are reproducible run to run at a fixed worker count.  The
environment variable ``REGCRIT_THREADS`` caps the FFT worker pool
(default: every CPU); the worker count does not change any result.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as _fft

TWO_PI = 2.0 * np.pi

class NonFiniteSamples(ValueError):
    """Field samples hold NaN or infinity."""


def _workers() -> int:
    cpus = os.cpu_count() or 1
    raw = os.environ.get("REGCRIT_THREADS", "")
    try:
        cap = int(raw) if raw else cpus
    except ValueError:
        cap = cpus
    return max(1, min(cpus, cap))


def rfftn(values: np.ndarray) -> np.ndarray:
    """Real-input forward transform (half spectrum, kz >= 0), mean-normalized."""
    return _fft.rfftn(values, axes=(-3, -2, -1), norm="forward", workers=_workers())


def irfftn_real(half: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`rfftn` onto the (n, n, n) grid."""
    return _fft.irfftn(
        half, s=(n, n, n), axes=(-3, -2, -1), norm="forward", workers=_workers()
    )


@dataclass(frozen=True)
class Grid:
    """Cubic periodic grid: ``n`` points per axis on a box of side ``length``."""

    n: int
    length: float = TWO_PI

    def __post_init__(self):
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

    @cached_property
    def deriv_modes(self) -> np.ndarray:
        """Integer modes with the unpaired Nyquist mode zeroed."""
        m = self.integer_modes.copy()
        m[self.n // 2] = 0
        return m

    @property
    def half(self) -> int:
        """Number of kept kz planes, kz = 0 .. n/2."""
        return self.n // 2 + 1

    @property
    def half_shape(self) -> tuple[int, int, int]:
        """Shape of a half spectrum, the storage layout of spectral fields."""
        return (self.n, self.n, self.half)

    @cached_property
    def wavenumbers_half(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Physical derivative wavenumbers, broadcastable to the half shape."""
        k = self.deriv_modes.astype(np.float64) * (TWO_PI / self.length)
        n, h = self.n, self.half
        return (k.reshape(n, 1, 1), k.reshape(1, n, 1), k[:h].reshape(1, 1, h))

    @cached_property
    def k_squared_half(self) -> np.ndarray:
        kx, ky, kz = self.wavenumbers_half
        return kx**2 + ky**2 + kz**2

    @cached_property
    def inv_k_squared_half(self) -> np.ndarray:
        """1/|k|^2 with the k = 0 (and Nyquist-only) entries set to zero."""
        k2 = self.k_squared_half
        out = np.zeros_like(k2)
        np.divide(1.0, k2, out=out, where=k2 > 0)
        return out

    @cached_property
    def dealias_mask_half(self) -> np.ndarray:
        keep = 3 * np.abs(self.integer_modes) < self.n
        n, h = self.n, self.half
        return keep.reshape(n, 1, 1) & keep.reshape(1, n, 1) & keep[:h].reshape(1, 1, h)

    @cached_property
    def k_squared_max_retained(self) -> float:
        """Largest |k|^2 surviving the dealias mask; sets the viscous CFL."""
        return float((self.k_squared_half * self.dealias_mask_half).max())

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
    """Fourier coefficients held as the half spectrum ``half``, taken as is;
    any other shape is a ValueError."""

    grid: Grid
    half: np.ndarray

    _components = 1

    def __post_init__(self):
        want = ((self._components,) if self._components > 1 else ()) + self.grid.half_shape
        self.half = np.asarray(self.half, dtype=np.complex128)
        if self.half.shape != want:
            raise ValueError(
                f"{type(self).__name__}: expected a half spectrum of shape {want}, "
                f"got {self.half.shape}"
            )


@dataclass
class SpectralScalarField(_SpectralField):
    """Fourier coefficients of a real scalar field, shape (n, n, n/2 + 1)."""


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
    """Fourier coefficients of a real 3-vector field, shape (3, n, n, n/2 + 1);
    also used for the convective term."""

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
    the half spectrum; e.g. ``|u_hat|^2`` gives ``||u||_2^2``.  Each interior
    kz plane stands for itself and its mirror plane, so it counts twice;
    kz = 0 and kz = n/2 are their own mirror and count once."""
    weights = np.full(grid.half, 2.0)
    weights[[0, -1]] = 1.0
    return float(grid.volume * np.sum(weights * density))


def fft_forward(f):
    """Transform a real field to spectral space (k = 0 coefficient = mean)."""
    if isinstance(f, RealScalarField):
        return SpectralScalarField(f.grid, rfftn(f.values))
    if isinstance(f, VelocityField):
        return SpectralVelocityField(f.grid, rfftn(f.values))
    raise TypeError(f"cannot transform {type(f).__name__}")


def divergence(U: SpectralVelocityField) -> SpectralScalarField:
    kx, ky, kz = U.grid.wavenumbers_half
    u, v, w = U.half
    return SpectralScalarField(U.grid, 1j * (kx * u + ky * v + kz * w))


def leray_project(U: SpectralVelocityField) -> SpectralVelocityField:
    """Project onto divergence-free fields: u <- (I - k k^T/|k|^2) u.

    The k = 0 mode (mean flow) passes through unchanged; idempotent and
    self-adjoint for the spectral inner product.
    """
    g = U.grid
    kx, ky, kz = g.wavenumbers_half
    u, v, w = U.half
    s = (kx * u + ky * v + kz * w) * g.inv_k_squared_half
    return SpectralVelocityField(
        U.grid, np.stack([u - kx * s, v - ky * s, w - kz * s])
    )


def first_derivatives(U: SpectralVelocityField) -> np.ndarray:
    """Physical-space derivative table d[a, c] = d u_c / d x_a, shape (3,3,n,n,n)."""
    g = U.grid
    ks = g.wavenumbers_half
    hat = np.empty((3, 3) + g.half_shape, dtype=np.complex128)
    for a in range(3):
        np.multiply(1j * ks[a], U.half, out=hat[a])
    return irfftn_real(hat.reshape((9,) + g.half_shape), g.n).reshape((3, 3) + g.shape)


#: the 6 index pairs (i, j), i <= j, of the symmetric Hessian, in table order
HESSIAN_PAIRS = tuple((i, j) for i in range(3) for j in range(i, 3))

#: PAIR[i][j]: the row of the pair table holding d_i d_j, for either order of i, j
PAIR = tuple(
    tuple(HESSIAN_PAIRS.index((min(i, j), max(i, j))) for j in range(3)) for i in range(3)
)


def second_derivatives(U: SpectralVelocityField) -> np.ndarray:
    """Physical-space pair table d2[PAIR[i][j], c] = d^2 u_c / dx_i dx_j,
    shape (6, 3, n, n, n), one row per pair i <= j of :data:`HESSIAN_PAIRS`.

    The Hessian is symmetric in (i, j), so the 6 pairs hold all 27 entries.
    They are transformed one pair at a time, 3 fields per inverse transform,
    so besides the table only one pair's spectrum and samples are live.
    """
    g = U.grid
    ks = g.wavenumbers_half
    out = np.empty((len(HESSIAN_PAIRS), 3) + g.shape)
    hat = np.empty((3,) + g.half_shape, dtype=np.complex128)
    for idx, (i, j) in enumerate(HESSIAN_PAIRS):
        np.multiply(-ks[i] * ks[j], U.half, out=hat)
        out[idx] = irfftn_real(hat, g.n)
    return out


def convective_core_half(
    grid: Grid, half: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Dealiased rotational nonlinear term omega x u on the half spectrum,
    the grid max of |u|, and the grid samples of u and omega = curl u.

    omega x u differs from (u . grad) u by grad |u|^2/2, which the Leray
    projection removes, so both give the same projected right-hand side.
    Both factors are dealiased before the pointwise product and the product
    is dealiased again, so retained modes of band-limited inputs are exact.
    One batched inverse transform of the 6 fields [u, omega] and one forward
    transform of the 3 product components: 9 FFTs.  The max feeds the
    advective CFL check, and the samples (views of one (6, n, n, n) array,
    of the dealiased u) feed the monitors and snapshots of the same state,
    without another transform.
    """
    mask = grid.dealias_mask_half
    kx, ky, kz = grid.wavenumbers_half
    hat = np.empty((6,) + grid.half_shape, dtype=np.complex128)
    np.multiply(half, mask, out=hat[:3])
    u, v, w = hat[:3]
    hat[3] = ky * w - kz * v
    hat[4] = kz * u - kx * w
    hat[5] = kx * v - ky * u
    hat[3:] *= 1j
    phys = irfftn_real(hat, grid.n)
    u_phys, omega = phys[:3], phys[3:]
    cross = np.empty((3,) + grid.shape)
    for c in range(3):
        a, b = (c + 1) % 3, (c + 2) % 3
        np.multiply(omega[a], u_phys[b], out=cross[c])
        cross[c] -= omega[b] * u_phys[a]
    w_hat = rfftn(cross)
    w_hat *= mask
    u_max = math.sqrt(float(np.einsum("cxyz,cxyz->xyz", u_phys, u_phys).max(initial=0.0)))
    return w_hat, u_max, u_phys, omega


def to_physical(U: SpectralVelocityField) -> VelocityField:
    """The grid samples of a spectral velocity field.  No command calls it:
    the commands take their samples from :func:`convective_core_half`.  It
    is kept because the benchmark traces it by name."""
    return VelocityField(U.grid, irfftn_real(U.half, U.grid.n))
