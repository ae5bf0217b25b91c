"""The independent full-cube route that the tests compare the package against.

The package stores every spectral field as the rfft half spectrum and uses
real-input FFTs only.  This module keeps the other representation: the full
``(..., n, n, n)`` cube of complex coefficients, with complex FFTs taken
straight from ``scipy.fft`` and the cube's own wavenumber, |k|^2 and
dealias-mask tables.  Oracles built here share no transform and no
wavenumber table with the code under test.  The package imports nothing
from this module.

Conventions are the package's: mean-normalized forward transforms, FFT
storage order, the Nyquist mode zeroed in derivative wavenumbers, and the
2/3 rule ``3 * max|k| < n``.

The Hessian routes at the end are the exception: they keep the package's
earlier 27-entry derivative table, built with the package's own transform,
so that the pair table and its in-place sums can be pinned bitwise to the
route they replaced.
"""

import math

import numpy as np
from scipy import fft as _fft

from regcrit import spectral as spec

AXES = (-3, -2, -1)

HERMITIAN_TOL = 1e-10


class NonHermitianInput(ValueError):
    """Spectral data is not the spectrum of a real field: F(-k) != conj(F(k))."""


def fftn(values: np.ndarray) -> np.ndarray:
    """Full-cube forward transform over the trailing three axes, mean-normalized."""
    return _fft.fftn(values, axes=AXES, norm="forward", workers=spec._workers())


def ifftn(coefficients: np.ndarray) -> np.ndarray:
    return _fft.ifftn(coefficients, axes=AXES, norm="forward", workers=spec._workers())


def ifftn_real(coefficients: np.ndarray) -> np.ndarray:
    """Inverse transform discarding the (roundoff) imaginary residue."""
    return ifftn(coefficients).real


def wavenumbers(grid: spec.Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Physical derivative wavenumbers, broadcastable to (n, n, n)."""
    n = grid.n
    k = grid.deriv_modes.astype(np.float64) * (spec.TWO_PI / grid.length)
    return (k.reshape(n, 1, 1), k.reshape(1, n, 1), k.reshape(1, 1, n))


def ik_axes(grid: spec.Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spectral derivative multipliers i*k_j, broadcastable to (n, n, n)."""
    return tuple(1j * k for k in wavenumbers(grid))


def k_squared(grid: spec.Grid) -> np.ndarray:
    kx, ky, kz = wavenumbers(grid)
    return kx**2 + ky**2 + kz**2


def dealias_mask(grid: spec.Grid) -> np.ndarray:
    n = grid.n
    keep = 3 * np.abs(grid.integer_modes) < n
    return keep.reshape(n, 1, 1) & keep.reshape(1, n, 1) & keep.reshape(1, 1, n)


def _mirror(n: int) -> np.ndarray:
    """Storage index of -k along one axis."""
    return (-np.arange(n)) % n


def _relative(deviation: float, coefficients: np.ndarray) -> float:
    scale = np.abs(coefficients).max(initial=0.0)
    return 0.0 if scale == 0.0 else float(deviation / scale)


def full(U) -> np.ndarray:
    """The full cube of a spectral field, rebuilt from its half spectrum."""
    return spec.full_from_half(U.grid, U.half)


def half(grid: spec.Grid, coefficients: np.ndarray) -> np.ndarray:
    """The half spectrum of a full cube, for the spectral field constructors.

    The kz > n/2 planes are dropped, so they must be the conjugate mirror of
    the kept planes; otherwise raises ``NonHermitianInput``.
    """
    cube = np.asarray(coefficients, dtype=np.complex128)
    if cube.shape[-3:] != grid.shape:
        raise ValueError(f"expected a full cube {grid.shape}, got {cube.shape}")
    kept = np.ascontiguousarray(cube[..., : grid.half])
    tail = spec.full_from_half(grid, kept)[..., grid.half :]
    viol = _relative(np.abs(cube[..., grid.half :] - tail).max(initial=0.0), cube)
    if viol > HERMITIAN_TOL:
        raise NonHermitianInput(
            f"kz > n/2 planes are not the conjugate mirror of the kept planes: "
            f"relative deviation {viol:.3e}"
        )
    return kept


def hermitian_violation(coefficients: np.ndarray) -> float:
    """Relative deviation of a full cube from F(-k) == conj(F(k)), 0 for real fields."""
    m = _mirror(coefficients.shape[-1])
    mirrored = coefficients[..., m, :, :][..., :, m, :][..., :, :, m]
    return _relative(np.abs(coefficients - np.conj(mirrored)).max(), coefficients)


def spectral_inner(U, V) -> float:
    """L^2 inner product evaluated in spectral space (Parseval)."""
    return spec.parseval_sum(U.grid, np.real(np.conj(U.half) * V.half))


def resample(F, n_new: int):
    """Re-express a spectral field on a grid with n_new points (same box).

    Zero-pads (refinement) or truncates (coarsening) the spectrum.  Nyquist
    planes of both source and target are zeroed, consistent with the
    derivative operators; band-limited fields round-trip exactly.
    """
    grid = F.grid
    new_grid = spec.Grid(n_new, grid.length)
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


def random_divfree_full(grid: spec.Grid, seed: int, spectrum_slope: float, amplitude: float):
    """The full-cube construction of ``solver.init_random_divfree``: every
    drawn mode and its conjugate partner are written into a full
    ``(3, n, n, n)`` cube, whose kz >= 0 planes are kept."""
    n = grid.n
    rng = np.random.default_rng(seed)
    ints = grid.integer_modes
    kx = ints.reshape(n, 1, 1)
    ky = ints.reshape(1, n, 1)
    kz = ints.reshape(1, 1, n)
    k2 = (kx**2 + ky**2 + kz**2).astype(np.float64)
    drawn = (k2 > 0) & (9.0 * k2 <= n * n)
    band = drawn & (9.0 * k2 < n * n)
    with np.errstate(divide="ignore"):
        moduli = np.where(band, np.sqrt(k2) ** spectrum_slope, 0.0)
    half_space = (kx > 0) | ((kx == 0) & (ky > 0)) | ((kx == 0) & (ky == 0) & (kz > 0))
    ix, iy, iz = np.nonzero(drawn & half_space)
    mx, my, mz = (-ix) % n, (-iy) % n, (-iz) % n
    coeffs = np.zeros((3, n, n, n), dtype=np.complex128)
    for c in range(3):
        phases = rng.uniform(0.0, 2.0 * np.pi, size=ix.shape)
        vals = moduli[ix, iy, iz] * np.exp(1j * phases)
        coeffs[c][ix, iy, iz] = vals
        coeffs[c][mx, my, mz] = np.conj(vals)
    U = spec.leray_project(
        spec.SpectralVelocityField(grid, np.ascontiguousarray(coeffs[..., : grid.half]))
    )
    if amplitude == 0.0:
        return spec.SpectralVelocityField(grid, np.zeros_like(U.half))
    current = math.sqrt(spec.parseval_sum(grid, np.abs(U.half) ** 2))
    return spec.SpectralVelocityField(grid, U.half * (amplitude / current))


def hessian_table(U) -> np.ndarray:
    """The full table d2[i, j, c] = d^2 u_c / dx_i dx_j, shape (3, 3, 3, n, n, n):
    the 18 distinct fields in one batched transform, the mixed partials
    copied into both (i, j) and (j, i)."""
    g = U.grid
    ks = g.wavenumbers_half
    pairs = [(i, j) for i in range(3) for j in range(i, 3)]
    hat = np.empty((len(pairs), 3) + g.half_shape, dtype=np.complex128)
    for idx, (i, j) in enumerate(pairs):
        np.multiply(-ks[i] * ks[j], U.half, out=hat[idx])
    phys = spec.irfftn_real(hat.reshape((-1,) + g.half_shape), g.n).reshape(
        (len(pairs), 3) + g.shape
    )
    out = np.empty((3, 3, 3) + g.shape)
    for idx, (i, j) in enumerate(pairs):
        out[i, j] = phys[idx]
        if i != j:
            out[j, i] = phys[idx]
    return out


def hessian_magnitude(U) -> np.ndarray:
    """Pointwise Frobenius magnitude of the 27-entry table, by one einsum."""
    d2 = hessian_table(U)
    return np.sqrt(np.einsum("ijcxyz,ijcxyz->xyz", d2, d2))


def _gram_contraction(rows: np.ndarray, grads: np.ndarray) -> tuple[float, np.ndarray]:
    """sum_{a,b} <grads[a, b], G[a, b]> and the pointwise trace of G, where
    G[a, b] = sum_k rows[a, k] * rows[b, k] pointwise, one einsum per upper
    entry of the symmetric G."""
    total = 0.0
    trace = np.zeros(rows.shape[-1])
    for a in range(3):
        for b in range(a, 3):
            gram = np.einsum("kN,kN->N", rows[a], rows[b])
            if a == b:
                total += grads[a, a] @ gram
                trace += gram
            else:
                total += grads[a, b] @ gram + grads[b, a] @ gram
    return float(total), trace


def gram_quadrature(U) -> tuple[float, np.ndarray]:
    """The H^2 identity's right side and |grad^2 u| from the 27-entry table
    by einsum Gram sums: S[i, m] over rows (j, l), T[l, m] over rows (i, j)."""
    g = U.grid
    points = g.n**3
    d2 = hessian_table(U).reshape(3, 3, 3, points)
    grads = spec.first_derivatives(U).reshape(3, 3, points)
    t1, hessian_sq = _gram_contraction(d2.reshape(3, 9, points), grads)
    t2, _ = _gram_contraction(d2.reshape(9, 3, points).transpose(1, 0, 2), grads)
    w = g.cell_volume
    return -2.0 * (w * t1) - w * t2, np.sqrt(hessian_sq).reshape(g.shape)


def identity_rhs_einsum(U) -> float:
    """The H^2 identity's right side as the literal 27-entry contractions."""
    grads = spec.first_derivatives(U)
    d2 = hessian_table(U)
    w = U.grid.cell_volume
    t1 = w * float(np.einsum("ijlabc,imabc,mjlabc->", d2, grads, d2, optimize=True))
    t2 = w * float(np.einsum("ijlabc,ijmabc,mlabc->", d2, d2, grads, optimize=True))
    return -2.0 * t1 - t2
