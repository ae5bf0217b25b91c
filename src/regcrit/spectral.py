"""Periodic-box fields and spectral operators.

Conventions, fixed once for the whole package:

* cubic grid with ``n`` samples per axis on the box ``[0, length]^3``
  (default side 2*pi); sample ``(i, j, k)`` sits at ``(i, j, k) * length/n``
  and arrays are indexed ``[x, y, z]``
* the forward transform divides by ``n**3``, so the ``k = 0`` coefficient
  equals the field mean and Parseval reads
  ``sum(samples**2) * dx**3 == sum(|coeffs|**2) * length**3``, the sum
  running over the full cube of coefficients
* spectral fields store the rfft half spectrum, kz indices ``0 .. n/2``
  (shape ``(..., n, n, n/2 + 1)``); the kz < 0 planes are the conjugate
  mirror of the kept ones and exist only in the full cube that
  ``.coefficients`` builds on request.  A full-cube sum of a quantity even
  in k is a half-spectrum sum with Parseval weights: 1 on the kz = 0 and
  kz = n/2 planes, 2 on every other plane (:func:`parseval_sum`)
* integer wavevectors run over ``{-n/2, ..., n/2 - 1}`` per axis, scaled by
  ``2*pi/length``; the unpaired Nyquist mode ``-n/2`` is zeroed in every
  derivative operator
* quadratic products are dealiased by zeroing modes with
  ``max(|kx|, |ky|, |kz|) > n/3`` (integer wavevector max-norm)

All operations are pure functions.  Reductions are plain C-order numpy sums,
so results are reproducible run to run at a fixed worker count.  The
environment variable ``REGCRIT_THREADS`` caps the FFT worker pool
(default: every CPU); the worker count does not change any result.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import fft as _fft

TWO_PI = 2.0 * np.pi

#: modes with integer max-norm above n/DEALIAS_DENOM are discarded in products
DEALIAS_DENOM = 3.0

HERMITIAN_TOL = 1e-10


class NonHermitianInput(ValueError):
    """Spectral data is not the spectrum of a real field: F(-k) != conj(F(k))."""


class NonFiniteSamples(ValueError):
    """Field samples or coefficients hold NaN or infinity."""


def _workers() -> int:
    cpus = os.cpu_count() or 1
    raw = os.environ.get("REGCRIT_THREADS", "")
    try:
        cap = int(raw) if raw else cpus
    except ValueError:
        cap = cpus
    return max(1, min(cpus, cap))


def fftn(values: np.ndarray) -> np.ndarray:
    """Full-cube forward transform over the trailing three axes, mean-normalized.

    The package itself works on the half spectrum; the full-cube transforms
    are kept as an independent reference route.  Leading axes (component
    stacks) are transformed in one library call, here and below.
    """
    return _fft.fftn(values, axes=(-3, -2, -1), norm="forward", workers=_workers())


def ifftn(coefficients: np.ndarray) -> np.ndarray:
    return _fft.ifftn(coefficients, axes=(-3, -2, -1), norm="forward", workers=_workers())


def ifftn_real(coefficients: np.ndarray) -> np.ndarray:
    """Inverse transform discarding the (roundoff) imaginary residue."""
    return ifftn(coefficients).real


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
        if not self.length > 0.0:
            raise ValueError(f"box length must be positive, got {self.length}")

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

    @cached_property
    def wavenumbers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Physical derivative wavenumbers, broadcastable to (n, n, n)."""
        scale = TWO_PI / self.length
        k = self.deriv_modes.astype(np.float64) * scale
        n = self.n
        return (k.reshape(n, 1, 1), k.reshape(1, n, 1), k.reshape(1, 1, n))

    @cached_property
    def ik_axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Spectral derivative multipliers i*k_j, broadcastable."""
        kx, ky, kz = self.wavenumbers
        return (1j * kx, 1j * ky, 1j * kz)

    @cached_property
    def k_squared(self) -> np.ndarray:
        kx, ky, kz = self.wavenumbers
        return kx**2 + ky**2 + kz**2

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        cut = self.n / DEALIAS_DENOM
        m = np.abs(self.integer_modes)
        keep1 = m <= cut
        n = self.n
        return (
            keep1.reshape(n, 1, 1)
            & keep1.reshape(1, n, 1)
            & keep1.reshape(1, 1, n)
        )

    @cached_property
    def k_squared_max_retained(self) -> float:
        """Largest |k|^2 surviving the dealias mask; sets the viscous CFL."""
        return float((self.k_squared * self.dealias_mask).max())

    # --- half-spectrum (rfft) companions: the storage layout of spectral fields ---

    @property
    def half(self) -> int:
        """Number of kept kz planes, kz = 0 .. n/2."""
        return self.n // 2 + 1

    @property
    def half_shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.half)

    @cached_property
    def wavenumbers_half(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        kx, ky, kz = self.wavenumbers
        return (kx, ky, kz[..., : self.half])

    @cached_property
    def k_squared_half(self) -> np.ndarray:
        return np.ascontiguousarray(self.k_squared[..., : self.half])

    @cached_property
    def inv_k_squared_half(self) -> np.ndarray:
        """1/|k|^2 with the k = 0 (and Nyquist-only) entries set to zero."""
        k2 = self.k_squared_half
        out = np.zeros_like(k2)
        np.divide(1.0, k2, out=out, where=k2 > 0)
        return out

    @cached_property
    def dealias_mask_half(self) -> np.ndarray:
        return np.ascontiguousarray(self.dealias_mask[..., : self.half])

    @cached_property
    def _mirror_axis(self) -> np.ndarray:
        return (-np.arange(self.n)) % self.n

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


def _relative(deviation: float, coefficients: np.ndarray) -> float:
    scale = np.abs(coefficients).max(initial=0.0)
    return 0.0 if scale == 0.0 else float(deviation / scale)


def _mirror_tail(grid: Grid, half: np.ndarray) -> np.ndarray:
    """The kz > n/2 planes of the full cube: conj(F(-k)) taken from the
    interior kept planes kz = 1 .. n/2 - 1, in full-cube storage order."""
    m = grid._mirror_axis
    interior = half[..., 1 : grid.half - 1]
    return np.conj(interior[..., m, :, :][..., :, m, :][..., ::-1])


def _half_spectrum(grid: Grid, coefficients, nc: int, kind: str) -> np.ndarray:
    """Half spectrum of ``coefficients``, given either as a half spectrum
    (taken as is) or as a full cube.  A full cube must be finite, and its
    kz > n/2 planes must be the conjugate mirror of the kept planes: they
    are dropped, so anything else would be lost silently."""
    arr = np.asarray(coefficients, dtype=np.complex128)
    if arr.shape == ((nc,) if nc > 1 else ()) + grid.half_shape:
        return arr
    full = _check_values(grid, arr, nc, kind)
    half = np.ascontiguousarray(full[..., : grid.half])
    dev = np.abs(full[..., grid.half :] - _mirror_tail(grid, half)).max(initial=0.0)
    viol = _relative(dev, full)
    if viol > HERMITIAN_TOL:
        raise NonHermitianInput(
            f"{kind}: kz > n/2 planes are not the conjugate mirror of the kept "
            f"planes: relative deviation {viol:.3e}"
        )
    return half


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
    """Fourier coefficients held as the half spectrum ``half``.

    Construct from a half spectrum, the internal form, which is taken as is,
    or from a full cube, which is checked (see :func:`_half_spectrum`).
    """

    grid: Grid
    half: np.ndarray

    _components = 1

    def __post_init__(self):
        self.half = _half_spectrum(
            self.grid, self.half, self._components, type(self).__name__
        )

    @property
    def coefficients(self) -> np.ndarray:
        """Read-only full cube, rebuilt from the half spectrum on each call."""
        full = full_from_half(self.grid, self.half)
        full.flags.writeable = False
        return full


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

    @property
    def components(self) -> tuple[RealScalarField, RealScalarField, RealScalarField]:
        return tuple(RealScalarField(self.grid, c) for c in self.values)

    @classmethod
    def from_components(cls, u1: RealScalarField, u2: RealScalarField, u3: RealScalarField):
        if not (u1.grid == u2.grid == u3.grid):
            raise ValueError("velocity components must share one grid")
        return cls(u1.grid, np.stack([u1.values, u2.values, u3.values]))

    def magnitude(self) -> np.ndarray:
        """Pointwise Euclidean magnitude of the 3-vector."""
        return np.sqrt(np.einsum("cxyz,cxyz->xyz", self.values, self.values))


@dataclass
class SpectralVelocityField(_SpectralField):
    """Fourier coefficients of a real 3-vector field, shape (3, n, n, n/2 + 1);
    also used for generic spectral 3-vectors such as gradients and the
    vorticity."""

    _components = 3


def hermitian_violation(coefficients: np.ndarray) -> float:
    """Relative deviation of a full cube from F(-k) == conj(F(k)), 0 for real fields."""
    m = Grid(coefficients.shape[-1])._mirror_axis
    mirrored = coefficients[..., m, :, :][..., :, m, :][..., :, :, m]
    return _relative(np.abs(coefficients - np.conj(mirrored)).max(), coefficients)


def full_from_half(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Rebuild full-cube coefficients from a half spectrum by conjugate mirror."""
    out = np.empty(half.shape[:-3] + grid.shape, dtype=np.complex128)
    out[..., : grid.half] = half
    out[..., grid.half :] = _mirror_tail(grid, half)
    return out


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


def fft_inverse(F):
    """Transform back to physical space.

    Raises NonHermitianInput when the kz = 0 or kz = n/2 plane violates the
    conjugate symmetry by more than 1e-10 relative; the other planes are
    conjugate symmetric by construction.  Roundoff-level residue is dropped.
    """
    if isinstance(F, SpectralScalarField):
        real_field = RealScalarField
    elif isinstance(F, SpectralVelocityField):
        real_field = VelocityField
    else:
        raise TypeError(f"cannot transform {type(F).__name__}")
    m = F.grid._mirror_axis
    edges = F.half[..., [0, -1]]
    dev = np.abs(edges - np.conj(edges[..., m, :, :][..., :, m, :])).max(initial=0.0)
    viol = _relative(dev, F.half)
    if viol > HERMITIAN_TOL:
        raise NonHermitianInput(
            f"conjugate symmetry violated: relative deviation {viol:.3e}"
        )
    return real_field(F.grid, irfftn_real(F.half, F.grid.n))


def gradient(F: SpectralScalarField) -> SpectralVelocityField:
    """Spectral gradient; component j is i*k_j*F(k)."""
    kx, ky, kz = F.grid.wavenumbers_half
    c = F.half
    return SpectralVelocityField(
        F.grid, np.stack([1j * kx * c, 1j * ky * c, 1j * kz * c])
    )


def curl(U: SpectralVelocityField) -> SpectralVelocityField:
    kx, ky, kz = U.grid.wavenumbers_half
    u, v, w = U.half
    return SpectralVelocityField(
        U.grid,
        np.stack(
            [
                1j * (ky * w - kz * v),
                1j * (kz * u - kx * w),
                1j * (kx * v - ky * u),
            ]
        ),
    )


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


def dealias(F):
    """Zero modes with integer max-norm above n/3; other modes unchanged."""
    if not isinstance(F, _SpectralField):
        raise TypeError(f"cannot dealias {type(F).__name__}")
    return type(F)(F.grid, F.half * F.grid.dealias_mask_half)


def first_derivatives(U: SpectralVelocityField) -> np.ndarray:
    """Physical-space derivative table d[a, c] = d u_c / d x_a, shape (3,3,n,n,n)."""
    g = U.grid
    ks = g.wavenumbers_half
    hat = np.empty((3, 3) + g.half_shape, dtype=np.complex128)
    for a in range(3):
        np.multiply(1j * ks[a], U.half, out=hat[a])
    return irfftn_real(hat.reshape((9,) + g.half_shape), g.n).reshape((3, 3) + g.shape)


def second_derivatives(U: SpectralVelocityField) -> np.ndarray:
    """Physical-space table d2[i, j, c] = d^2 u_c / dx_i dx_j, shape (3,3,3,n,n,n).

    Mixed partials are filled by symmetry, so 18 inverse transforms suffice.
    """
    g = U.grid
    ks = g.wavenumbers_half
    pairs = [(i, j) for i in range(3) for j in range(i, 3)]
    hat = np.empty((len(pairs), 3) + g.half_shape, dtype=np.complex128)
    for idx, (i, j) in enumerate(pairs):
        np.multiply(-ks[i] * ks[j], U.half, out=hat[idx])
    phys = irfftn_real(hat.reshape((-1,) + g.half_shape), g.n).reshape(
        (len(pairs), 3) + g.shape
    )
    out = np.empty((3, 3, 3) + g.shape)
    for idx, (i, j) in enumerate(pairs):
        out[i, j] = phys[idx]
        if i != j:
            out[j, i] = phys[idx]
    return out


def convective_core_half(grid: Grid, half: np.ndarray) -> tuple[np.ndarray, float]:
    """Dealiased (u . grad) u on the half spectrum, plus the grid max of |u|.

    Both factors are dealiased before the pointwise product and the product
    is dealiased again, so retained modes of band-limited inputs are exact.
    The max feeds the advective CFL re-check without an extra transform.
    """
    mask = grid.dealias_mask_half
    ud = half * mask
    ks = grid.wavenumbers_half
    hat = np.empty((4, 3) + grid.half_shape, dtype=np.complex128)
    hat[0] = ud
    for a in range(3):
        np.multiply(1j * ks[a], ud, out=hat[a + 1])
    phys = irfftn_real(hat.reshape((12,) + grid.half_shape), grid.n).reshape((4, 3) + grid.shape)
    u_phys, grads = phys[0], phys[1:]
    u_max = float(np.sqrt(np.einsum("cxyz,cxyz->xyz", u_phys, u_phys)).max(initial=0.0))
    w = np.einsum("mxyz,mcxyz->cxyz", u_phys, grads)
    w_hat = rfftn(w) * mask
    return w_hat, u_max


def convective(U: SpectralVelocityField) -> SpectralVelocityField:
    """Dealiased pseudo-spectral convective term (u . grad) u, unprojected."""
    return SpectralVelocityField(U.grid, convective_core_half(U.grid, U.half)[0])


def to_physical(U: SpectralVelocityField) -> VelocityField:
    """Inverse transform without the Hermitian gate (internal fast path)."""
    return VelocityField(U.grid, irfftn_real(U.half, U.grid.n))


def spectral_inner(U: SpectralVelocityField, V: SpectralVelocityField) -> float:
    """L^2 inner product evaluated in spectral space (Parseval)."""
    return parseval_sum(U.grid, np.real(np.conj(U.half) * V.half))


def resample(F, n_new: int):
    """Re-express a field on a grid with n_new points (same box).

    Zero-pads (refinement) or truncates (coarsening) the spectrum.  Nyquist
    planes of both source and target are zeroed, consistent with the
    derivative operators; band-limited fields round-trip exactly.
    """
    grid = F.grid
    new_grid = Grid(n_new, grid.length)
    # integer modes |k| < keep exist on both grids and are neither grid's Nyquist
    keep = min(grid.n, n_new) // 2

    def axis(target_modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        kept = np.abs(target_modes) < keep
        return np.nonzero(kept)[0], target_modes[kept] % grid.n

    dst_xy, src_xy = axis(new_grid.integer_modes)
    dst_z, src_z = axis(np.arange(new_grid.half))
    out = np.zeros(F.half.shape[:-3] + new_grid.half_shape, dtype=np.complex128)
    out[(...,) + np.ix_(dst_xy, dst_xy, dst_z)] = F.half[
        (...,) + np.ix_(src_xy, src_xy, src_z)
    ]
    return type(F)(new_grid, out)
