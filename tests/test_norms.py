"""Norm oracles: closed-form integrals of trig fields, Parseval ties,
interpolation-ratio closed forms, and scaling laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from regcrit import criteria, norms
from regcrit.spectral import Grid, VelocityField, fft_forward, to_physical
from regcrit.solver import init_beltrami, init_random_divfree, init_taylor_green

TWO_PI = 2.0 * np.pi


def single_sine(grid, amplitude=1.0):
    X = grid.meshes()[0]
    u = np.zeros((3,) + grid.shape)
    u[0] = amplitude * np.sin(X)
    return VelocityField(grid, u)


def constant_field(grid, c):
    u = np.zeros((3,) + grid.shape)
    u[0] = c
    return VelocityField(grid, u)


def lp(U, p):
    """||u||_p of grid samples, from their magnitude as the commands form it."""
    return norms.lp_norm(U.grid, U.magnitude(), p)


def sob(U, m):
    """||grad^m u||_2 of a spectral field, from its |u_hat|^2 as the commands form it."""
    return norms.sobolev_seminorm(U.grid, np.abs(U.kept) ** 2, m)


def gn(U, p):
    return norms.gn_ratio(U.grid, p, criteria.hessian_magnitude(U), sob(U, 2), sob(U, 3))


class TestLpNorm:
    @pytest.mark.parametrize("p", [2.0, 4.0, 6.0])
    def test_constant_field_closed_form(self, p):
        g = Grid(8)
        c = 1.7
        expected = c * TWO_PI ** (3.0 / p)
        assert lp(constant_field(g, c), p) == pytest.approx(expected, rel=1e-13)

    def test_constant_field_sup(self):
        g = Grid(8)
        assert lp(constant_field(g, 2.5), math.inf) == pytest.approx(2.5)

    def test_sine_l2_closed_form(self):
        # integral of sin^2 over one period is pi, so the squared norm is
        # (2 pi)^2 * pi and the norm (2 pi)^{3/2} / sqrt(2)
        expected = TWO_PI**1.5 / math.sqrt(2.0)
        v16 = lp(single_sine(Grid(16)), 2.0)
        v32 = lp(single_sine(Grid(32)), 2.0)
        assert v16 == pytest.approx(expected, rel=1e-13)
        assert v32 == pytest.approx(expected, rel=1e-13)

    def test_sine_sup_exact_on_grid(self):
        # n divisible by 4 puts a sample at x = pi/2
        assert lp(single_sine(Grid(16)), math.inf) == 1.0

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            lp(single_sine(Grid(8)), 1.0)

    def test_scaling_exact_for_binary_factors(self):
        g = Grid(8)
        U = to_physical(init_random_divfree(g, 1, -2.0, 1.0))
        for lam in (0.5, 2.0, 4.0):
            scaled = VelocityField(g, lam * U.values)
            for p in (2.0, 4.0, math.inf):
                assert lp(scaled, p) == lam * lp(U, p)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_unit_volume_monotone_in_p(self, seed):
        g = Grid(8)
        U = to_physical(init_random_divfree(g, seed, -1.5, 1.0))
        vals = [
            g.volume ** (-1.0 / p) * lp(U, p) for p in (2.0, 4.0, 6.0)
        ]
        vals.append(lp(U, math.inf))
        for a, b in zip(vals, vals[1:]):
            assert a <= b * (1.0 + 1e-12)

    def test_large_p_approaches_sup(self):
        # frozen desk value: (sin x, 0, 0) on the 2 pi box, p = 64
        U = single_sine(Grid(32))
        v = lp(U, 64.0)
        gap = abs(v - 1.0)
        assert gap < 0.15
        assert v == pytest.approx(1.0513, abs=2e-3)


class TestSobolev:
    def test_m0_matches_l2(self):
        g = Grid(16)
        U_hat = init_random_divfree(g, 3, -2.0, 1.0)
        via_quadrature = lp(to_physical(U_hat), 2.0)
        assert sob(U_hat, 0) == pytest.approx(
            via_quadrature, rel=1e-10
        )

    def test_single_mode_first_order(self):
        g = Grid(16)
        U_hat = fft_forward(single_sine(g))
        expected = TWO_PI**1.5 / math.sqrt(2.0)
        assert sob(U_hat, 1) == pytest.approx(expected, rel=1e-12)

    def test_mode_two_second_order(self):
        g = Grid(16)
        X = g.meshes()[0]
        u = np.zeros((3,) + g.shape)
        u[0] = np.sin(2 * X)
        U_hat = fft_forward(VelocityField(g, u))
        base = TWO_PI**1.5 / math.sqrt(2.0)
        assert sob(U_hat, 2) == pytest.approx(4 * base, rel=1e-12)

    def test_refinement_stable(self):
        g = Grid(16)
        U = init_random_divfree(g, 5, -2.0, 1.0)
        fine = reference.resample(U, 32)
        for m in range(4):
            assert sob(fine, m) == pytest.approx(
                sob(U, m), rel=1e-10
            )

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            sob(init_beltrami(Grid(8), 1.0), 4)


class TestGnRatio:
    def test_infinite_p_degenerates_to_one(self):
        U = init_random_divfree(Grid(16), 4, -2.0, 1.0)
        assert gn(U, math.inf) == pytest.approx(1.0, rel=1e-10)

    def test_beltrami_closed_form(self):
        # single-shell field: tensor magnitude is constant sqrt(3)*amp, so
        # the p = 6 ratio collapses to (2 pi)^{-1/2}
        expected = TWO_PI**-0.5
        for n in (16, 32):
            U = init_beltrami(Grid(n), 0.7)
            assert gn(U, 6.0) == pytest.approx(expected, rel=1e-12)

    def test_resolution_stability_on_beltrami(self):
        U32 = init_beltrami(Grid(32), 1.0)
        U64 = reference.resample(U32, 64)
        r32 = gn(U32, 6.0)
        r64 = gn(U64, 6.0)
        assert abs(r64 - r32) <= 1e-6 * r32

    def test_scale_invariant(self):
        U = init_random_divfree(Grid(16), 6, -2.0, 1.0)
        scaled = type(U)(U.grid, 3.7 * U.kept)
        assert gn(scaled, 6.0) == pytest.approx(
            gn(U, 6.0), rel=1e-12
        )

    def test_degenerate_field_rejected(self):
        g = Grid(8)
        zero = type(init_beltrami(g, 0.0))(g, np.zeros((3,) + g.kept_shape, complex))
        with pytest.raises(norms.DegenerateField):
            gn(zero, 6.0)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            gn(init_beltrami(Grid(8), 1.0), 3.0)

