"""Lebesgue norms, homogeneous Sobolev seminorms, and the multiplicative
interpolation ratio.

Exponents are plain floats; ``math.inf`` selects the sup norm.  Pointwise
magnitudes are Euclidean for vectors and Frobenius for derivative tensors,
the unique rotation-invariant choice.  L^p integrals are Riemann sums with
weight dx^3, spectrally accurate for smooth periodic integrands.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import PAIR, Grid, SpectralVelocityField, parseval_sum, second_derivatives


class DegenerateField(ValueError):
    """Field lacks the derivative content a ratio needs (e.g. zero grad^3)."""


def _check_exponent(p: float) -> float:
    p = float(p)
    if not p > 1.0:
        raise ValueError(f"Lebesgue exponent must satisfy p > 1, got {p}")
    return p


def _scaled_lp(magnitude: np.ndarray, p: float, cell_volume: float) -> float:
    """(dx^3 * sum m^p)^(1/p), evaluated in scaled form to dodge overflow."""
    if math.isinf(p):
        return float(magnitude.max(initial=0.0))
    peak = float(magnitude.max(initial=0.0))
    if peak == 0.0:
        return 0.0
    s = np.sum((magnitude / peak) ** p) * cell_volume
    return float(peak * s ** (1.0 / p))


def lp_norm(grid: Grid, magnitude: np.ndarray, p: float) -> float:
    """||u||_{L^p} on ``grid`` from the pointwise Euclidean magnitude |u|
    (``VelocityField.magnitude``), so one magnitude serves every p; p = inf
    is the grid max."""
    return _scaled_lp(magnitude, _check_exponent(p), grid.cell_volume)


def sobolev_seminorm(U: SpectralVelocityField, m: int) -> float:
    """||grad^m u||_{L^2} via Parseval: (sum |k|^{2m} |u_hat|^2 L^3)^(1/2).

    Uses the multinomial identity sum_{|a|=m} (m!/a!) k^{2a} = |k|^{2m}, so the
    value matches the Frobenius norm of the full m-th derivative tensor.
    """
    if m not in (0, 1, 2, 3):
        raise ValueError(f"derivative order must be in 0..3, got {m}")
    g = U.grid
    w = g.k_squared_half**m
    return math.sqrt(parseval_sum(g, w * (np.abs(U.half) ** 2)))


def hessian_magnitude(U: SpectralVelocityField) -> np.ndarray:
    """Pointwise Frobenius magnitude of the second-derivative tensor: the 27
    squares of d_i d_j u_c summed in (i, j, c) order, each off-diagonal
    (i, j) read from the one row of the pair table that holds both orders."""
    d2 = second_derivatives(U)
    acc = np.zeros(U.grid.shape)
    tmp = np.empty(U.grid.shape)
    for i in range(3):
        for j in range(3):
            for c in range(3):
                x = d2[PAIR[i][j], c]
                np.multiply(x, x, out=tmp)
                acc += tmp
    return np.sqrt(acc, out=acc)


def hessian_lq_norm(grid: Grid, hessian: np.ndarray, q: float) -> float:
    """||grad^2 u||_{L^q} on ``grid`` by quadrature of the pointwise tensor
    magnitude |grad^2 u| (``hessian_magnitude``,
    ``criteria.hessian_quadrature``)."""
    return _scaled_lp(hessian, _check_exponent(q), grid.cell_volume)


def gn_ratio(U: SpectralVelocityField, p: float, hessian: np.ndarray) -> float:
    """Multiplicative-inequality ratio
    ||grad^2 u||_{L^q} / (||grad^2 u||_2^{1-3/p} ||grad^3 u||_2^{3/p}),
    q = 2p/(p-2).

    For p = inf the exponents degenerate to q = 2 and (1, 0), so the ratio is
    1 up to quadrature roundoff.  Scale invariant in u.  ``hessian`` is U's
    pointwise |grad^2 u|, as in :func:`hessian_lq_norm`, so one build serves
    every p.
    """
    p = float(p)
    if not p > 3.0:
        raise ValueError(f"ratio needs 3 < p <= inf, got {p}")
    b = sobolev_seminorm(U, 3)
    if b == 0.0:
        raise DegenerateField("gn_ratio needs a nonzero grad^3 seminorm")
    a = sobolev_seminorm(U, 2)
    if math.isinf(p):
        theta, q = 0.0, 2.0
    else:
        theta, q = 3.0 / p, 2.0 * p / (p - 2.0)
    num = hessian_lq_norm(U.grid, hessian, q)
    return num / (a ** (1.0 - theta) * b**theta)
