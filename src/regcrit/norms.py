"""Lebesgue norms, homogeneous Sobolev seminorms, and the multiplicative
interpolation ratio.

Exponents are plain floats; ``math.inf`` selects the sup norm.  Pointwise
magnitudes are Euclidean for vectors and Frobenius for derivative tensors,
the unique rotation-invariant choice.  L^p integrals are Riemann sums with
weight dx^3, spectrally accurate for smooth periodic integrands.

The pointwise |grad^2 u| that :func:`hessian_lq_norm` and :func:`gn_ratio`
read is formed in :mod:`regcrit.criteria` (``hessian_magnitude``,
``hessian_quadrature``); this module reads no derivative field.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import Grid, parseval_sum


class DegenerateField(ValueError):
    """Field lacks the derivative content a ratio needs (e.g. zero grad^3)."""


def _check_exponent(p: float) -> float:
    p = float(p)
    if not p > 1.0:
        raise ValueError(f"Lebesgue exponent must satisfy p > 1, got {p}")
    return p


def _scaled_lp(magnitude: np.ndarray, p: float, cell_volume: float) -> float:
    """(dx^3 * sum m^p)^(1/p), evaluated in scaled form to dodge overflow;
    the power is taken in place, so the call holds one grid field."""
    if math.isinf(p):
        return float(magnitude.max(initial=0.0))
    peak = float(magnitude.max(initial=0.0))
    if peak == 0.0:
        return 0.0
    scaled = magnitude / peak
    scaled **= p
    s = np.sum(scaled) * cell_volume
    return float(peak * s ** (1.0 / p))


def lp_norm(grid: Grid, magnitude: np.ndarray, p: float) -> float:
    """||u||_{L^p} on ``grid`` from the pointwise Euclidean magnitude |u|
    (``VelocityField.magnitude``), so one magnitude serves every p; p = inf
    is the grid max."""
    return _scaled_lp(magnitude, _check_exponent(p), grid.cell_volume)


def sobolev_seminorm(grid: Grid, power: np.ndarray, m: int) -> float:
    """||grad^m u||_{L^2} via Parseval: (sum |k|^{2m} |u_hat|^2 L^3)^(1/2),
    from ``power``, the field's |u_hat|^2 on the compact cube, so one power
    serves every order.

    Uses the multinomial identity sum_{|a|=m} (m!/a!) k^{2a} = |k|^{2m}, so the
    value matches the Frobenius norm of the full m-th derivative tensor.
    """
    if m not in (0, 1, 2, 3):
        raise ValueError(f"derivative order must be in 0..3, got {m}")
    return math.sqrt(parseval_sum(grid, grid.sobolev_weights[m] * power))


def hessian_lq_norm(grid: Grid, hessian: np.ndarray, q: float) -> float:
    """||grad^2 u||_{L^q} on ``grid`` by quadrature of the pointwise tensor
    magnitude |grad^2 u| (``criteria.hessian_magnitude``,
    ``criteria.hessian_quadrature``)."""
    return _scaled_lp(hessian, _check_exponent(q), grid.cell_volume)


def gn_ratio(grid: Grid, p: float, hessian: np.ndarray, sob2: float, sob3: float) -> float:
    """Multiplicative-inequality ratio
    ||grad^2 u||_{L^q} / (||grad^2 u||_2^{1-3/p} ||grad^3 u||_2^{3/p}),
    q = 2p/(p-2).

    For p = inf the exponents degenerate to q = 2 and (1, 0), so the ratio is
    1 up to quadrature roundoff.  Scale invariant in u.  ``hessian`` is the
    state's pointwise |grad^2 u|, as in :func:`hessian_lq_norm`, and
    ``sob2``, ``sob3`` its :func:`sobolev_seminorm` of orders 2 and 3, so one
    build of each serves every p.
    """
    p = float(p)
    if not p > 3.0:
        raise ValueError(f"ratio needs 3 < p <= inf, got {p}")
    if sob3 == 0.0:
        raise DegenerateField("gn_ratio needs a nonzero grad^3 seminorm")
    if math.isinf(p):
        theta, q = 0.0, 2.0
    else:
        theta, q = 3.0 / p, 2.0 * p / (p - 2.0)
    num = hessian_lq_norm(grid, hessian, q)
    return num / (sob2 ** (1.0 - theta) * sob3**theta)
