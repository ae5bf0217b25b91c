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

from .spectral import (
    SpectralVelocityField,
    VelocityField,
    parseval_sum,
    second_derivatives,
)


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


def lp_norm(U: VelocityField, p: float, magnitude: np.ndarray | None = None) -> float:
    """||u||_{L^p} of the pointwise Euclidean magnitude; p = inf is the grid max.

    ``magnitude`` is U's pointwise |u| when the caller already has it
    (``U.magnitude()``), so one magnitude serves every p; it is formed here
    otherwise.
    """
    p = _check_exponent(p)
    if magnitude is None:
        magnitude = U.magnitude()
    return _scaled_lp(magnitude, p, U.grid.cell_volume)


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
    """Pointwise Frobenius magnitude of the full 27-entry second-derivative tensor."""
    d2 = second_derivatives(U)
    return np.sqrt(np.einsum("ijcxyz,ijcxyz->xyz", d2, d2))


def hessian_lq_norm(
    U: SpectralVelocityField, q: float, hessian: np.ndarray | None = None
) -> float:
    """||grad^2 u||_{L^q} of the tensor magnitude by quadrature.

    ``hessian`` is U's pointwise |grad^2 u| when the caller already has it
    (``hessian_magnitude``, ``criteria.hessian_quadrature``); it is built
    here otherwise.
    """
    q = _check_exponent(q)
    if hessian is None:
        hessian = hessian_magnitude(U)
    return _scaled_lp(hessian, q, U.grid.cell_volume)


def gn_ratio(
    U: SpectralVelocityField, p: float, hessian: np.ndarray | None = None
) -> float:
    """Multiplicative-inequality ratio
    ||grad^2 u||_{L^q} / (||grad^2 u||_2^{1-3/p} ||grad^3 u||_2^{3/p}),
    q = 2p/(p-2).

    For p = inf the exponents degenerate to q = 2 and (1, 0), so the ratio is
    1 up to quadrature roundoff.  Scale invariant in u.  ``hessian`` is as in
    :func:`hessian_lq_norm`, so one |grad^2 u| serves every p.
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
    num = hessian_lq_norm(U, q, hessian)
    return num / (a ** (1.0 - theta) * b**theta)
