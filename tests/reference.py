"""The independent full-cube route that the tests compare the package against.

The package stores every spectral field as the compact cube of the modes
the 2/3 rule keeps and uses real-input FFTs only.  This module keeps the
other representations: the full ``(..., n, n, n)`` cube of complex
coefficients, with complex FFTs taken straight from ``scipy.fft`` and the
cube's own wavenumber, |k|^2 and dealias-mask tables, and the rfft half
spectrum ``(..., n, n, n/2 + 1)`` with its own tables.  Oracles built here
share no transform and no wavenumber table with the code under test.  The
package imports nothing from this module.

Conventions are the package's: mean-normalized forward transforms, FFT
storage order, the Nyquist mode zeroed in derivative wavenumbers, and the
2/3 rule ``3 * max|k| < n``.

The routes at the end keep routes the package replaced, on the half
spectrum and with the full ``irfftn``/``rfftn``, so that the replacements
can be pinned bitwise to them.  The Hessian routes keep the earlier
27-entry derivative table; the unpruned derivative tables, kernel and
pressure transform the whole half spectrum, the full projection and the
full-cube draw work on every mode, and :func:`step_half` is the RK4 step on
the half spectrum, where the package touches only the kept modes.  The
whole-table pruned inverse (:func:`inverse_kept_whole`, with its derivative
tables and the kernel :func:`convective_core_tables`) is the route the
package's slab streams replaced, and :func:`slab_quadrature` sums the
unpruned tables slab by slab as the package's quadrature does.  The
package's derivative stream applies its k_y and k_z factors after the x
pass, so it is pinned to these routes to roundoff, not bitwise.
:func:`snapshot_payload` is the sample encoding, x index fastest, of the
pressure file and of the velocity snapshots before they held the state.

:func:`traced_peak` is the one memory probe of the tests: tracemalloc sees
every numpy buffer, so its peaks do not depend on the allocator.
"""

import math
import tracemalloc

import numpy as np
from scipy import fft as _fft

from regcrit import spectral as spec

AXES = (-3, -2, -1)

HERMITIAN_TOL = 1e-10


class NonHermitianInput(ValueError):
    """Spectral data is not the spectrum of a real field: F(-k) != conj(F(k))."""


def fftn(values: np.ndarray) -> np.ndarray:
    """Full-cube forward transform over the trailing three axes, mean-normalized."""
    return _fft.fftn(values, axes=AXES, norm="forward")


def rfftn(values: np.ndarray) -> np.ndarray:
    """Real-input forward transform (half spectrum, kz >= 0), mean-normalized:
    the full ``rfftn`` that the package's pruned forward is pinned to."""
    return _fft.rfftn(values, axes=AXES, norm="forward")


def ifftn(coefficients: np.ndarray) -> np.ndarray:
    return _fft.ifftn(coefficients, axes=AXES, norm="forward")


def ifftn_real(coefficients: np.ndarray) -> np.ndarray:
    """Inverse transform discarding the (roundoff) imaginary residue."""
    return ifftn(coefficients).real


def irfftn_real(half: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`rfftn` onto the (n, n, n) grid: the full
    ``irfftn`` of a half spectrum, every mode read."""
    return _fft.irfftn(half, s=(n, n, n), axes=AXES, norm="forward")


def meshes(grid: spec.Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x, y and z coordinates of every grid sample, each (n, n, n)."""
    x = np.arange(grid.n) * grid.spacing
    return np.meshgrid(x, x, x, indexing="ij")


def half_shape(grid: spec.Grid) -> tuple[int, int, int]:
    """Shape of a real-input half spectrum, kz = 0 .. n/2."""
    return (grid.n, grid.n, grid.half)


def deriv_modes(grid: spec.Grid) -> np.ndarray:
    """Integer modes along one axis with the unpaired Nyquist mode zeroed."""
    m = grid.integer_modes.copy()
    m[grid.n // 2] = 0
    return m


def wavenumbers(grid: spec.Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Physical derivative wavenumbers, broadcastable to (n, n, n)."""
    n = grid.n
    k = deriv_modes(grid).astype(np.float64) * (spec.TWO_PI / grid.length)
    return (k.reshape(n, 1, 1), k.reshape(1, n, 1), k.reshape(1, 1, n))


def wavenumbers_half(grid: spec.Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Physical derivative wavenumbers, broadcastable to the half shape."""
    kx, ky, kz = wavenumbers(grid)
    return kx, ky, kz[..., : grid.half]


def k_squared_half(grid: spec.Grid) -> np.ndarray:
    kx, ky, kz = wavenumbers_half(grid)
    return kx**2 + ky**2 + kz**2


def inv_k_squared_half(grid: spec.Grid) -> np.ndarray:
    """1/|k|^2 on the half spectrum, zero where |k| = 0."""
    k2 = k_squared_half(grid)
    out = np.zeros_like(k2)
    np.divide(1.0, k2, out=out, where=k2 > 0)
    return out


def dealias_mask_half(grid: spec.Grid) -> np.ndarray:
    return dealias_mask(grid)[..., : grid.half]


def _kept_axes(grid: spec.Grid):
    """Index arrays selecting the compact cube from a half spectrum: along
    x and y the storage indices of |k| <= (n - 1) // 3, along z kz = 0 .. that."""
    m = (grid.n - 1) // 3
    xy = np.nonzero(np.abs(grid.integer_modes) <= m)[0]
    return np.ix_(xy, xy, np.arange(m + 1))


def scatter(grid: spec.Grid, kept: np.ndarray) -> np.ndarray:
    """The half spectrum holding the compact cubes ``kept`` on its kept
    modes and zeros elsewhere."""
    out = np.zeros(kept.shape[:-3] + half_shape(grid), dtype=np.complex128)
    out[(...,) + _kept_axes(grid)] = kept
    return out


def to_half(U) -> np.ndarray:
    """The half spectrum of a spectral field: its compact cube scattered
    into zeros."""
    return scatter(U.grid, U.kept)


def to_kept(grid: spec.Grid, half_spectrum: np.ndarray) -> np.ndarray:
    """The compact cube of a half spectrum: its kept modes, the rest dropped."""
    return np.ascontiguousarray(half_spectrum[(...,) + _kept_axes(grid)])


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
    return spec.full_from_half(U.grid, to_half(U))


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


def parseval_half(grid: spec.Grid, density: np.ndarray) -> float:
    """Box volume times the full-cube sum of a density even in k, given on
    the half spectrum: 1 on the kz = 0 and kz = n/2 planes, 2 on the others."""
    weights = np.full(grid.half, 2.0)
    weights[[0, -1]] = 1.0
    return float(grid.volume * np.sum(weights * density))


def compact(grid: spec.Grid, coefficients: np.ndarray) -> np.ndarray:
    """The compact cube of a full cube, for the spectral field constructors:
    :func:`half`, then its kept modes; the other modes are dropped."""
    return to_kept(grid, half(grid, coefficients))


def hermitian_violation(coefficients: np.ndarray) -> float:
    """Relative deviation of a full cube from F(-k) == conj(F(k)), 0 for real fields."""
    m = _mirror(coefficients.shape[-1])
    mirrored = coefficients[..., m, :, :][..., :, m, :][..., :, :, m]
    return _relative(np.abs(coefficients - np.conj(mirrored)).max(), coefficients)


def spectral_inner(U, V) -> float:
    """L^2 inner product evaluated in spectral space (Parseval)."""
    return spec.parseval_sum(U.grid, np.real(np.conj(U.kept) * V.kept))


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
    out = np.zeros(F.kept.shape[:-3] + half_shape(new_grid), dtype=np.complex128)
    out[(...,) + np.ix_(dst_xy, dst_xy, dst_z)] = to_half(F)[
        (...,) + np.ix_(src_xy, src_xy, src_z)
    ]
    return type(F)(new_grid, to_kept(new_grid, out))


def random_divfree_full(grid: spec.Grid, seed: int, spectrum_slope: float, amplitude: float):
    """The full-cube construction of ``solver.init_random_divfree``: every
    drawn mode and its conjugate partner are written into a full
    ``(3, n, n, n)`` cube, whose kz >= 0 planes are projected by
    :func:`leray_project_full` and rescaled.  The rescale reads
    ``spectral.parseval_sum`` of the kept modes, as the package does: a sum
    over the half spectrum adds the same terms in another order and differs
    from it in the last bit (``TestParseval`` bounds that)."""
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
    projected = leray_project_full(grid, np.ascontiguousarray(coeffs[..., : grid.half]))
    if amplitude == 0.0:
        return np.zeros_like(projected)
    current = math.sqrt(spec.parseval_sum(grid, np.abs(to_kept(grid, projected)) ** 2))
    return projected * (amplitude / current)


def hessian_table(U) -> np.ndarray:
    """The full table d2[i, j, c] = d^2 u_c / dx_i dx_j, shape (3, 3, 3, n, n, n):
    the 18 distinct fields in one batched transform, the mixed partials
    copied into both (i, j) and (j, i)."""
    g = U.grid
    ks = wavenumbers_half(g)
    u = to_half(U)
    pairs = [(i, j) for i in range(3) for j in range(i, 3)]
    hat = np.empty((len(pairs), 3) + half_shape(g), dtype=np.complex128)
    for idx, (i, j) in enumerate(pairs):
        np.multiply(-ks[i] * ks[j], u, out=hat[idx])
    phys = irfftn_real(hat.reshape((-1,) + half_shape(g)), g.n).reshape(
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
    entry of the symmetric G.  Each inner product is numpy's sum of the
    pointwise product, the reduction the package uses."""
    total = 0.0
    trace = np.zeros(rows.shape[-1])
    for a in range(3):
        for b in range(a, 3):
            gram = np.einsum("kN,kN->N", rows[a], rows[b])
            if a == b:
                total += np.sum(grads[a, a] * gram)
                trace += gram
            else:
                total += np.sum(grads[a, b] * gram) + np.sum(grads[b, a] * gram)
    return float(total), trace


def gram_quadrature(U) -> tuple[float, np.ndarray]:
    """The H^2 identity's right side and |grad^2 u| from the 27-entry table
    by einsum Gram sums: S[i, m] over rows (j, l), T[l, m] over rows (i, j)."""
    g = U.grid
    points = g.n**3
    d2 = hessian_table(U).reshape(3, 3, 3, points)
    grads = first_derivatives_unpruned(U).reshape(3, 3, points)
    t1, hessian_sq = _gram_contraction(d2.reshape(3, 9, points), grads)
    t2, _ = _gram_contraction(d2.reshape(9, 3, points).transpose(1, 0, 2), grads)
    w = g.cell_volume
    return -2.0 * (w * t1) - w * t2, np.sqrt(hessian_sq).reshape(g.shape)


def identity_rhs_einsum(U) -> float:
    """The H^2 identity's right side as the literal 27-entry contractions."""
    grads = first_derivatives_unpruned(U)
    d2 = hessian_table(U)
    w = U.grid.cell_volume
    t1 = w * float(np.einsum("ijlabc,imabc,mjlabc->", d2, grads, d2, optimize=True))
    t2 = w * float(np.einsum("ijlabc,ijmabc,mlabc->", d2, d2, grads, optimize=True))
    return -2.0 * t1 - t2


def convective_core_unpruned(grid: spec.Grid, half_spectrum: np.ndarray):
    """The rotational kernel on the whole half spectrum: mask the input,
    one batched ``irfftn`` of [u, omega], one ``rfftn`` of omega x u times
    the mask.  Returns what ``spectral.convective_core_half`` returns, with
    the term as a half spectrum, from the whole sample tables
    (:func:`sampled_columns`)."""
    mask = dealias_mask_half(grid)
    kx, ky, kz = wavenumbers_half(grid)
    hat = np.empty((6,) + half_shape(grid), dtype=np.complex128)
    np.multiply(half_spectrum, mask, out=hat[:3])
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
    return (w_hat,) + sampled_columns(u_phys, omega)


def sampled_columns(u_phys: np.ndarray, omega: np.ndarray):
    """``(u_max, u_sq, omega_max)`` of whole (3, n, n, n) sample tables of u
    and omega: |u|^2 as one einsum over the table, and max |omega| as the
    grid max of the pointwise magnitude, the way the monitors took it from
    sample tables."""
    u_sq = np.einsum("cxyz,cxyz->xyz", u_phys, u_phys)
    u_max = math.sqrt(float(u_sq.max(initial=0.0)))
    omega_mag = np.sqrt(np.einsum("cxyz,cxyz->xyz", omega, omega))
    return u_max, u_sq, float(omega_mag.max(initial=0.0))


def nonlinear_half_unpruned(grid: spec.Grid, half_spectrum: np.ndarray):
    """-P(omega x u) from :func:`convective_core_unpruned`, projected by
    :func:`leray_project_full` on the whole half spectrum and then negated."""
    w_hat, *columns = convective_core_unpruned(grid, half_spectrum)
    nl = leray_project_full(grid, w_hat)
    np.negative(nl, out=nl)
    return (nl, *columns)


def leray_project_full(grid: spec.Grid, half_spectrum: np.ndarray) -> np.ndarray:
    """u <- (I - k k^T/|k|^2) u on every mode of a half spectrum."""
    kx, ky, kz = wavenumbers_half(grid)
    u, v, w = half_spectrum
    s = (kx * u + ky * v + kz * w) * inv_k_squared_half(grid)
    return np.stack([u - kx * s, v - ky * s, w - kz * s])


def step_half(config, half_spectrum: np.ndarray) -> np.ndarray:
    """One RK4 step of ``solver._advance`` on the half spectrum, each
    nonlinear term by :func:`nonlinear_half_unpruned`: the same combination,
    in place in three stage buffers, in the same operation order."""
    g, dt, mu = config.grid, config.dt, config.mu
    k2_visc = mu * k_squared_half(g)
    k = np.empty_like(half_spectrum)
    acc = np.empty_like(half_spectrum)
    tmp = np.empty_like(half_spectrum)

    def rhs(coeffs, nl):
        np.multiply(k2_visc, coeffs, out=k)
        np.subtract(nl, k, out=k)

    rhs(half_spectrum, nonlinear_half_unpruned(g, half_spectrum)[0])
    acc[...] = k
    for c, weight in ((0.5 * dt, 2.0), (0.5 * dt, 2.0), (dt, 1.0)):
        np.multiply(k, c, out=tmp)
        np.add(half_spectrum, tmp, out=tmp)
        rhs(tmp, nonlinear_half_unpruned(g, tmp)[0])
        if weight == 1.0:
            acc += k
        else:
            np.multiply(k, weight, out=tmp)
            acc += tmp
    acc *= dt / 6.0
    return np.add(half_spectrum, acc, out=acc)


def first_derivatives_unpruned(U) -> np.ndarray:
    """``spectral.first_derivatives`` by one full ``irfftn`` of the 9 fields
    i k_a u_c, formed on the whole half spectrum."""
    g = U.grid
    ks = wavenumbers_half(g)
    u = to_half(U)
    hat = np.empty((3, 3) + half_shape(g), dtype=np.complex128)
    for a in range(3):
        np.multiply(1j * ks[a], u, out=hat[a])
    return irfftn_real(hat.reshape((9,) + half_shape(g)), g.n).reshape((3, 3) + g.shape)


def second_derivatives_unpruned(U) -> np.ndarray:
    """``spectral.second_derivatives`` by a full ``irfftn`` per pair."""
    g = U.grid
    ks = wavenumbers_half(g)
    u = to_half(U)
    out = np.empty((len(spec.HESSIAN_PAIRS), 3) + g.shape)
    for idx, (i, j) in enumerate(spec.HESSIAN_PAIRS):
        out[idx] = irfftn_real(-ks[i] * ks[j] * u, g.n)
    return out


def _complex_pass(lines: np.ndarray, axis: int) -> None:
    """An unscaled inverse 1-D FFT pass along ``axis`` over the view ``lines``."""
    out = _fft.ifft(lines, axis=axis, norm="forward", overwrite_x=True)
    if not np.may_share_memory(out, lines):
        lines[...] = out


def inverse_kept_whole(grid: spec.Grid, kept: np.ndarray) -> np.ndarray:
    """The pruned inverse that the slab stream replaced, on whole tables:
    the compact cubes scattered into a zeroed half spectrum, x on the kept
    (ky, kz) lines, y on the kept kz planes, then one real pass along z."""
    hat = scatter(grid, kept)
    lo, hi = grid.kept_slabs
    for sy in (lo, hi):
        _complex_pass(hat[..., :, sy, lo], axis=-3)
    _complex_pass(hat[..., lo], axis=-2)
    return _fft.irfft(hat, n=grid.n, axis=-1, norm="forward")


def convective_core_tables(grid: spec.Grid, kept: np.ndarray):
    """The kernel that the slab loop replaced, on whole tables: the samples
    of [u, omega] from one :func:`inverse_kept_whole`, the (3, n, n, n)
    product omega x u, one real pass along z over the product, then
    ``spectral._forward_kept``.  Returns what
    ``spectral.convective_core_half`` returns, its grid columns from the
    whole sample tables (:func:`sampled_columns`)."""
    kx, ky, kz = grid.wavevector
    u, v, w = kept
    omega_hat = 1j * np.stack((ky * w - kz * v, kz * u - kx * w, kx * v - ky * u))
    phys = inverse_kept_whole(grid, np.concatenate((kept, omega_hat)))
    u_phys, omega = phys[:3], phys[3:]
    cross = np.empty((3,) + grid.shape)
    tmp = np.empty(grid.shape)
    for c in range(3):
        a, b = (c + 1) % 3, (c + 2) % 3
        np.multiply(omega[a], u_phys[b], out=cross[c])
        np.multiply(omega[b], u_phys[a], out=tmp)
        cross[c] -= tmp
    half = _fft.rfft(cross, axis=-1)
    return (spec._forward_kept(grid, half),) + sampled_columns(u_phys, omega)


def curl_samples(U) -> np.ndarray:
    """Grid samples of curl u, from the kernel's spectrum of omega: each
    part of ``spectral._velocity_and_curl`` copied as it comes, then one
    ``spectral.inverse_kept``.  The kernel hands out only max |omega|."""
    parts = [part.copy() for part in spec._velocity_and_curl(U.grid, U.kept)]
    return spec.inverse_kept(U.grid, np.concatenate(parts)[3:])


def snapshot_payload(values: np.ndarray) -> bytes:
    """The sample payload encoding in three copies, which the writer's one
    copy replaced: a cast, a ravel with the x index fastest, then
    ``tobytes``."""
    return np.ascontiguousarray(values, dtype=np.float64).astype("<f8").ravel(order="F").tobytes()


def first_derivatives(U) -> np.ndarray:
    """The whole table d[a, c] = d u_c / d x_a, shape (3, 3, n, n, n): the 9
    fields i k_a u_c in one :func:`inverse_kept_whole`."""
    ik = 1j * U.grid.wavevector
    return inverse_kept_whole(U.grid, ik[:, None] * U.kept)


def second_derivatives(U) -> np.ndarray:
    """The whole pair table d2[PAIR[i][j], c] = d^2 u_c / dx_i dx_j, shape
    (6, 3, n, n, n), one :func:`inverse_kept_whole` per pair of
    ``spectral.HESSIAN_PAIRS``."""
    g = U.grid
    k = g.wavevector
    out = np.empty((len(spec.HESSIAN_PAIRS), 3) + g.shape)
    for idx, (i, j) in enumerate(spec.HESSIAN_PAIRS):
        out[idx] = inverse_kept_whole(g, (-k[i] * k[j]) * U.kept)
    return out


def _sequential_gram(rows, grads: np.ndarray) -> float:
    """sum_{a,b} <grads[a, b], G[a, b]> over the upper entries of the
    symmetric G[a, b] = sum_k rows[a][k] * rows[b][k], each G entry summed
    in k order and each inner product numpy's sum of the pointwise product."""
    total = 0.0
    for a in range(3):
        for b in range(a, 3):
            gram = np.zeros(grads.shape[-1])
            for x, y in zip(rows[a], rows[b]):
                gram += x * y
            if a == b:
                total += np.sum(grads[a, a] * gram)
            else:
                total += np.sum(grads[a, b] * gram) + np.sum(grads[b, a] * gram)
    return float(total)


def slab_quadrature(U) -> float:
    """The H^2 identity's right side from the unpruned tables, summed slab
    by slab: per x-slab of ``spectral._slab_planes(n)`` planes the S and T
    contractions of :func:`gram_quadrature`, with the Gram entries summed in
    k order; the slab sums are added in x order."""
    g = U.grid
    n = g.n
    grads = first_derivatives_unpruned(U)
    d2 = hessian_table(U)
    b = spec._slab_planes(n)
    t1 = t2 = 0.0
    for x0 in range(0, n, b):
        x = slice(x0, min(x0 + b, n))
        gr = np.ascontiguousarray(grads[:, :, x]).reshape(3, 3, -1)
        h = np.ascontiguousarray(d2[:, :, :, x]).reshape(3, 3, 3, -1)
        t1 += _sequential_gram([[h[i, j, l] for j in range(3) for l in range(3)]
                                for i in range(3)], gr)
        t2 += _sequential_gram([[h[i, j, l] for i in range(3) for j in range(3)]
                                for l in range(3)], gr)
    w = g.cell_volume
    return -2.0 * (w * t1) - w * t2


def identity_rhs_abs(U) -> float:
    """The sum of the absolute values of the pointwise terms of the H^2
    identity's right side, dx^3 (2 sum |d_i u_m S[i, m]| + sum |d_l u_m
    T[l, m]|): the scale its roundoff is measured against."""
    grads = first_derivatives_unpruned(U)
    d2 = hessian_table(U)
    s = np.einsum("ijlxyz,mjlxyz->imxyz", d2, d2)
    t = np.einsum("ijlxyz,ijmxyz->lmxyz", d2, d2)
    w = U.grid.cell_volume
    return float(w * (2.0 * np.sum(np.abs(grads * s)) + np.sum(np.abs(grads * t))))


def pressure_field_unpruned(U) -> np.ndarray:
    """The samples of ``solver.pressure_field`` from
    :func:`convective_core_unpruned` and a full ``irfftn``."""
    g = U.grid
    w_hat, _, u_sq, _ = convective_core_unpruned(g, to_half(U))
    ke_hat = rfftn(0.5 * u_sq)
    kx, ky, kz = wavenumbers_half(g)
    div = 1j * (kx * w_hat[0] + ky * w_hat[1] + kz * w_hat[2])
    q_hat = div * inv_k_squared_half(g)
    q_hat -= ke_hat * dealias_mask_half(g)
    q_hat[0, 0, 0] = 0.0
    return irfftn_real(q_hat, g.n)


def drawn_field_full(grid: spec.Grid, seed: int, spectrum_slope: float) -> np.ndarray:
    """The half spectrum of ``solver._drawn_field``, drawn on the whole
    index cube and projected by :func:`leray_project_full`."""
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
    own = iz < grid.half
    mirror = mz < grid.half
    coeffs = np.zeros((3,) + half_shape(grid), dtype=np.complex128)
    for c in range(3):
        phases = rng.uniform(0.0, 2.0 * np.pi, size=ix.shape)
        vals = moduli[ix, iy, iz] * np.exp(1j * phases)
        coeffs[c][ix[own], iy[own], iz[own]] = vals[own]
        coeffs[c][mx[mirror], my[mirror], mz[mirror]] = np.conj(vals[mirror])
    return leray_project_full(grid, coeffs)


def traced_peak(fn, *args) -> int:
    """Peak traced memory, in bytes, of the call ``fn(*args)`` above what was
    traced when it started.  Call ``fn`` once before, so that one-time
    allocations (a grid's cached tables, FFT plans) fall outside it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
