"""Criterion functional tests: arithmetic oracles, the identity chain on
closed-form fields, quadrature checks, and calibration algebra."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
import regcrit
from regcrit import criteria as crit
from regcrit import norms
from regcrit import solver as solv
from regcrit.config import parse_pairs
from regcrit.spectral import (
    Grid,
    SpectralVelocityField,
    VelocityField,
    convective_core_half,
    to_physical,
)

E = math.e
TWO_PI = 2.0 * math.pi


def constant_spectral(grid, c):
    """The spectrum of u = (c, 0, 0)."""
    kept = np.zeros((3,) + grid.kept_shape, complex)
    kept[0, 0, 0, 0] = c
    return SpectralVelocityField(grid, kept)


def zero_spectral(grid):
    return SpectralVelocityField(grid, np.zeros((3,) + grid.kept_shape, complex))


def kernel_samples(U):
    """|u|^2 and max |curl u| of U, as solver.run takes them from the kernel."""
    _, _, u_sq, omega_max = convective_core_half(U.grid, U.kept)
    return u_sq, omega_max


def sample(U, pairs, with_identity=False):
    """One monitor row of the state U, by the route solver.run takes."""
    mon = crit.CriterionConfig(pairs=tuple(pairs))
    columns = crit.grid_columns(mon.pairs, U.grid, *kernel_samples(U))
    quad = crit.hessian_quadrature(U) if with_identity else None
    return crit.evaluate_sample(U, 0.0, mon, 0.1, solv.nonlinear_rhs(U), columns, quad)


def sob(U, m):
    """||grad^m u||_2 of a spectral field, from its |u_hat|^2 as the commands form it."""
    return norms.sobolev_seminorm(U.grid, np.abs(U.kept) ** 2, m)


def identity(U, mu):
    return crit.h2_identity_residual(
        U, mu, solv.nonlinear_rhs(U), crit.hessian_quadrature(U), sob(U, 3)
    )


def holder(U, p):
    """The Hoelder check of U, with |u| by verify's route."""
    return crit.holder_check(
        U.grid, p, crit.hessian_quadrature(U), to_physical(U).magnitude(), sob(U, 3)
    )


def gn(U, p):
    return norms.gn_ratio(
        U.grid, p, crit.hessian_magnitude(U),
        sob(U, 2), sob(U, 3),
    )


def calibrate(corpus, p, mu):
    return crit.calibrate_constants([gn(U, p) for U in corpus], p, mu)


FIVE = crit.SerrinPair(5.0, 5.0)
SIX = crit.SerrinPair(6.0, 4.0)


class TestSerrinPair:
    def test_admissible_pairs(self):
        crit.SerrinPair(4.0, 8.0)
        crit.SerrinPair(5.0, 5.0)
        crit.SerrinPair(math.inf, 2.0)
        crit.SerrinPair(6.0, 10.0)  # strict inequality side is fine

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            crit.SerrinPair(3.0, 10.0)
        with pytest.raises(ValueError):
            crit.SerrinPair(6.0, 3.0)  # 1/2 + 2/3 > 1

    def test_canonical(self):
        assert crit.SerrinPair.canonical(6.0).s == pytest.approx(4.0)
        assert crit.SerrinPair.canonical(math.inf).s == 2.0
        assert crit.SerrinPair.canonical(5.0).s == pytest.approx(5.0)
        assert crit.SerrinPair(6.0, 4.0).is_canonical
        assert not crit.SerrinPair(6.0, 5.0).is_canonical

    def test_labels(self):
        assert crit.SerrinPair(6.0, 4.0).label == "p6_s4"
        assert crit.SerrinPair(math.inf, 2.0).label == "pinf_s2"


class TestIntegrands:
    """The grid columns of a monitor row."""

    def test_serrin_constant_field(self):
        c = 1.4
        val = sample(constant_spectral(Grid(8), c), [FIVE])["serrin_p5_s5"]
        assert val == pytest.approx(c**5 * TWO_PI**3, rel=1e-12)

    def test_serrin_zero_field(self):
        assert sample(constant_spectral(Grid(8), 0.0), [SIX])["serrin_p6_s4"] == 0.0

    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_grid_columns_peak_memory(self, n):
        # |u| is taken in place in the caller's |u|^2, so at most two fields
        # beside it: the numerator and the log of the Chan-Vasseur
        # integrand, each taken in place.  Measured 2.00 to 2.01 fields at
        # n = 32, 48 and 64; 3.0 when it formed |u| and |omega| from sample
        # tables, 4.0 when the integrand, the norms and |omega| held
        # temporaries
        g = Grid(n)
        U = solv.init_random_divfree(g, 1, -3.0, 5.0)
        u_sq, omega_max = kernel_samples(U)
        crit.grid_columns((SIX, FIVE), g, u_sq.copy(), omega_max)
        peak = reference.traced_peak(crit.grid_columns, (SIX, FIVE), g, u_sq, omega_max)
        assert peak <= 2.1 * 8 * n**3

    def test_log_serrin_denominator_hits_three(self):
        c = E**2 - E  # makes 1 + ln(e + c) = 3
        row = sample(constant_spectral(Grid(8), c), [FIVE])
        assert row["log_serrin_p5_s5"] == pytest.approx(row["serrin_p5_s5"] / 3.0, rel=1e-13)

    @given(seed=st.integers(0, 2**31 - 1), amp=st.floats(0.1, 30.0))
    @settings(max_examples=15, deadline=None)
    def test_log_serrin_at_most_half_classical(self, seed, amp):
        row = sample(solv.init_random_divfree(Grid(8), seed, -2.0, amp), [FIVE])
        assert row["log_serrin_p5_s5"] <= row["serrin_p5_s5"] / 2.0 + 1e-300

    def test_overflow_becomes_inf_sentinel(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            row = sample(constant_spectral(Grid(8), 1e80), [FIVE])
        assert row["serrin_p5_s5"] == math.inf
        assert row["chan_vasseur"] == math.inf

    def test_bkm_on_curl_eigenfield(self):
        row = sample(solv.init_beltrami(Grid(16), 0.9), [SIX])
        assert row["bkm"] == pytest.approx(row["linf"], rel=1e-13)

    def test_bkm_on_taylor_green(self):
        amp = 1.1
        row = sample(solv.init_taylor_green(Grid(16), amp), [SIX])
        assert row["bkm"] == pytest.approx(2.0 * amp, rel=1e-12)

    def test_bkm_zero(self):
        assert sample(zero_spectral(Grid(8)), [SIX])["bkm"] == 0.0

    def test_chan_vasseur_unit_constant(self):
        expected = TWO_PI**3 / math.log(E + 1.0)
        row = sample(constant_spectral(Grid(8), 1.0), [SIX])
        assert row["chan_vasseur"] == pytest.approx(expected, rel=1e-13)

    def test_chan_vasseur_zero(self):
        assert sample(constant_spectral(Grid(8), 0.0), [SIX])["chan_vasseur"] == 0.0

    @given(seed=st.integers(0, 2**31 - 1), amp=st.floats(0.05, 50.0))
    @settings(max_examples=20, deadline=None)
    def test_pointwise_log_domination(self, seed, amp):
        # grid sup dominates every sample, so the comparison is exact
        row = sample(solv.init_random_divfree(Grid(8), seed, -2.0, amp), [FIVE])
        assert row["log_serrin_p5_s5"] <= row["chan_vasseur"]

    def test_integrand_lipschitz_in_small_perturbations(self):
        g = Grid(8)
        U = solv.init_random_divfree(g, 7, -2.0, 1.0)
        base = sample(U, [SIX])["serrin_p6_s4"]
        delta = 1e-6
        bumped = U.kept.copy()
        bumped[:, 0, 0, 0] += delta  # u + delta in every component
        moved = abs(sample(SpectralVelocityField(g, bumped), [SIX])["serrin_p6_s4"] - base)
        assert moved <= 1e-3  # local Lipschitz bound, generous at this scale


def synthetic_series(times, values):
    """Series with the bkm integrand prescribed, everything else zero."""
    pair = crit.SerrinPair(6.0, 4.0)
    series = crit.MonitorSeries(pairs=(pair,))
    for t, v in zip(times, values):
        row = dict.fromkeys(crit.monitor_columns(series.pairs), 0.0)
        row.update(t=t, bkm=v, embed_ratio=1.0, serrin_p6_s4=v, log_serrin_p6_s4=v)
        series.append(row)
    return series


class TestAccumulate:
    def test_single_sample_integral_zero(self):
        s = crit.accumulate(synthetic_series([0.0], [3.0]))
        assert s.table["bkm_int"][0] == 0.0

    def test_constant_integrand_exact(self):
        times = np.linspace(0.0, 2.0, 21)
        s = crit.accumulate(synthetic_series(times, np.full(21, 0.7)))
        assert s.table["bkm_int"][-1] == pytest.approx(1.4, rel=1e-13)

    def test_exponential_integrand(self):
        times = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        s = crit.accumulate(synthetic_series(times, np.exp(-times)))
        assert s.table["bkm_int"][-1] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)

    def test_idempotent(self):
        times = np.linspace(0.0, 1.0, 11)
        s = crit.accumulate(synthetic_series(times, times**2))
        first = list(s.table["bkm_int"])
        crit.accumulate(s)
        second = list(s.table["bkm_int"])
        assert first == second

    def test_running_integral_nondecreasing(self):
        times = np.linspace(0.0, 1.0, 50)
        s = crit.accumulate(synthetic_series(times, np.abs(np.sin(9 * times))))
        ints = s.table["bkm_int"]
        assert all(a <= b for a, b in zip(ints, ints[1:]))

    def test_non_monotone_time_rejected(self):
        series = synthetic_series([0.0, 1.0], [1.0, 1.0])
        series.table["t"][1] = 0.0
        with pytest.raises(crit.NonMonotoneTime):
            crit.accumulate(series)
        with pytest.raises(crit.NonMonotoneTime):
            series.append(dict({c: v[0] for c, v in series.table.items()}, t=-1.0))
        # a row is rejected unless its keys are exactly the monitor columns
        later = dict({c: v[0] for c, v in series.table.items()}, t=5.0)
        for wrong in (dict(later, extra=0.0), {k: v for k, v in later.items() if k != "bkm"}):
            with pytest.raises(ValueError, match="monitor columns"):
                series.append(wrong)
        assert len(series) == 2


class TestIdentity:
    def test_zero_field(self):
        g = Grid(8)
        res = identity(zero_spectral(g), 0.1)
        assert res["lhs"] == 0.0 and res["rhs"] == 0.0 and res["residual"] == 0.0

    def test_beltrami_closed_form(self):
        # single-shell eigenfield: both sides vanish identically
        g = Grid(16)
        mu = 0.1
        U = solv.init_beltrami(g, 1.0)
        res = identity(U, mu)
        scale = mu * sob(U, 3) ** 2
        assert abs(res["lhs"]) <= 1e-10 * scale
        assert abs(res["rhs"]) <= 1e-10 * scale
        assert res["residual"] <= 1e-10  # |lhs - rhs| / (1 + |lhs|)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_band_limited(self, seed):
        g = Grid(32)
        U = solv.init_random_divfree(g, seed, -2.0, 1.0)
        res = identity(U, 0.1)
        assert res["residual"] <= 1e-8  # |lhs - rhs| / (1 + |lhs|)


def assert_hessian_matches(quad, U):
    ref = reference.hessian_magnitude(U)
    np.testing.assert_allclose(quad.hessian, ref, rtol=1e-12, atol=1e-12 * ref.max())


def quadrature_states(n):
    g = Grid(n)
    states = [solv.init_random_divfree(g, seed, -2.0, 1.0) for seed in (0, 1, 2)]
    return states + [solv.init_taylor_green(g, 1.0), solv.init_beltrami(g, 1.0)]


class TestHessianQuadrature:
    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_route(self, n, seed):
        U = solv.init_random_divfree(Grid(n), seed, -2.0, 1.0)
        quad = crit.hessian_quadrature(U)
        ref = reference.identity_rhs_einsum(U)
        assert abs(quad.rhs - ref) <= 1e-12 * abs(ref)
        assert_hessian_matches(quad, U)

    @pytest.mark.parametrize("n", [16, 32])
    def test_bitwise_equal_to_27_entry_route(self, n):
        # the stream applies its k_y and k_z factors after the x pass, so it
        # reproduces the 27-entry table's |grad^2 u| to roundoff (at most
        # 2.8e-16 of its largest value here), and the right side is the
        # unpruned tables' sum, slab by slab or whole-table, to roundoff
        for U in quadrature_states(n):
            quad = crit.hessian_quadrature(U)
            rhs, hessian = reference.gram_quadrature(U)
            scale = reference.identity_rhs_abs(U)
            assert abs(quad.rhs - reference.slab_quadrature(U)) <= 1e-14 * scale
            assert abs(quad.rhs - rhs) <= 1e-14 * scale
            assert np.abs(quad.hessian - hessian).max() <= 1e-15 * hessian.max()
            assert np.array_equal(crit.hessian_magnitude(U), quad.hessian)

    @pytest.mark.parametrize("n", [16, 22, 32, 48, 64])
    def test_magnitude_is_the_quadratures_bit_for_bit(self, n):
        # calibrate's |grad^2 u| and verify's are one sum, in one order
        U = solv.init_random_divfree(Grid(n), 1, -3.0, 5.0)
        hessian = crit.hessian_quadrature(U).hessian
        assert np.array_equal(crit.hessian_magnitude(U), hessian)

    def test_right_side_does_not_depend_on_the_blas_thread_count(self):
        # a BLAS dot splits its sum across its threads, so its last bits
        # depend on their number; numpy's own sum does not
        script = (
            "from regcrit.criteria import hessian_quadrature\n"
            "from regcrit.solver import init_random_divfree\n"
            "from regcrit.spectral import Grid\n"
            "U = init_random_divfree(Grid(64), 1, -3.0, 5.0)\n"
            "print(repr(hessian_quadrature(U).rhs))\n"
        )
        src = os.path.dirname(os.path.dirname(regcrit.__file__))
        printed = []
        for threads in ("1", "2"):
            env = dict(
                os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                OPENBLAS_NUM_THREADS=threads,
            )
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, check=True,
            )
            printed.append(done.stdout)
        assert printed[0] == printed[1]

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_peak_memory_of_the_derivative_tables(self, n):
        # the x-passed spectra (i k_x)^alpha u_c, n (2m+1) (m+1) complex
        # lines per field, 9 of them for the quadrature and the magnitude
        # alike (about 4 grid fields), plus one slab and |grad^2 u|.
        # Measured after one call of each, which keeps the grid's cached
        # tables out of the peaks, quadrature / magnitude (without that
        # call): 56.1 / 39.7 (56.4 / 39.9) at n = 16, where one 2048-point
        # slab is half the cube and its workspace, its compact buffer of
        # formed fields and its samples hold 15, 7 and 13.5 fields (the
        # quadrature's 27); 11.2 / 9.2 (11.3 / 9.3) at n = 32; 6.7 / 6.4
        # (6.7 / 6.4) at n = 64.  With 27 (18) x-passed fields they were
        # 58.5 / 39.0, 18.5 / 12.6 and 14.8 / 10.5; the whole tables peaked
        # at 34 / 25, the 27-entry route at 64 each.
        U = solv.init_random_divfree(Grid(n), 1, -2.0, 1.0)
        bound = {16: (57.7, 40.8), 32: (11.6, 9.5), 64: (6.95, 6.7)}[n]
        field = 8 * n**3
        crit.hessian_quadrature(U)  # the grid's cached tables and factor planes
        crit.hessian_magnitude(U)
        assert reference.traced_peak(crit.hessian_quadrature, U) <= bound[0] * field
        assert reference.traced_peak(crit.hessian_magnitude, U) <= bound[1] * field

    @pytest.mark.parametrize("n", [16, 32])
    def test_right_side_alone(self, n):
        # without |grad^2 u| the right side is the same bit for bit, and the
        # call allocates no grid field for the trace
        U = solv.init_random_divfree(Grid(n), 1, -2.0, 1.0)
        alone, both = crit.hessian_quadrature(U, magnitude=False), crit.hessian_quadrature(U)
        assert alone.hessian is None and alone.rhs == both.rhs
        with_magnitude = reference.traced_peak(crit.hessian_quadrature, U)
        without = reference.traced_peak(crit.hessian_quadrature, U, False)
        assert without <= with_magnitude - 8 * n**3

    def test_taylor_green_rhs_vanishes(self):
        U = solv.init_taylor_green(Grid(16), 1.0)
        quad = crit.hessian_quadrature(U)
        # |rhs| <= 3 ||grad u||_inf ||grad^2 u||_2^2 sets the scale of zero
        scale = np.abs(reference.first_derivatives(U)).max() * sob(U, 2) ** 2
        assert abs(quad.rhs) <= 1e-12 * scale
        assert abs(reference.identity_rhs_einsum(U)) <= 1e-12 * scale
        assert_hessian_matches(quad, U)

    def test_beltrami_both_sides_vanish(self):
        mu = 0.1
        U = solv.init_beltrami(Grid(16), 1.0)
        quad = crit.hessian_quadrature(U)
        res = crit.h2_identity_residual(U, mu, solv.nonlinear_rhs(U), quad, sob(U, 3))
        scale = mu * sob(U, 3) ** 2
        assert abs(res["lhs"]) <= 1e-12 * scale
        assert abs(quad.rhs) <= 1e-12 * scale
        assert abs(reference.identity_rhs_einsum(U)) <= 1e-12 * scale
        assert_hessian_matches(quad, U)


class TestHolder:
    def test_zero_field(self):
        res = holder(zero_spectral(Grid(8)), 6.0)
        assert res["satisfied"]
        assert res["actual"] == 0.0 and res["bound"] == 0.0

    def test_taylor_green_nonlinear_side_vanishes(self):
        U = solv.init_taylor_green(Grid(16), 1.0)
        res = holder(U, 6.0)
        assert res["satisfied"]
        assert res["actual"] <= 1e-9 * res["bound"]

    @pytest.mark.parametrize("p", [4.0, 6.0, math.inf])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_random_fields(self, p, seed):
        U = solv.init_random_divfree(Grid(16), seed, -2.0, 1.0)
        res = holder(U, p)
        assert res["satisfied"]


class TestDifferentialInequality:
    def test_zero_sample(self):
        pair = crit.SerrinPair(6.0, 4.0)
        s = synthetic_series([0.0], [0.0])
        res = crit.differential_inequality_check(s, pair, c_cal=1.0, mu=0.1)
        assert res["satisfied"][0] and res["lhs"][0] == 0.0 and res["rhs"][0] == 0.0

    def test_beltrami_closed_form_lhs(self):
        # |k| = 1 shell: d/dt ||grad^2 u||^2 = -2 mu Z, ||grad^3 u||^2 = Z
        g = Grid(16)
        mu, amp = 0.3, 0.8
        cfg = solv.SolverConfig(
            grid=g, mu=mu, dt=1e-3, t_end=0.0, init=solv.InitSpec("beltrami", amplitude=amp)
        )
        pair = crit.SerrinPair(6.0, 4.0)
        mon = crit.CriterionConfig(pairs=(pair,))
        series = solv.run(cfg, mon)
        z = 3.0 * amp**2 * TWO_PI**3
        assert series.table["ddt_sobolev2_sq"][0] == pytest.approx(-2.0 * mu * z, rel=1e-9)
        res = crit.differential_inequality_check(series, pair, c_cal=1.0, mu=mu)
        assert res["lhs"][0] == pytest.approx(-mu * z, rel=1e-9)
        assert res["satisfied"][0]  # pure decay: lhs < 0 <= rhs


class TestGronwall:
    def test_initial_bound_is_exact(self):
        times = [0.0, 0.5]
        series = crit.accumulate(synthetic_series(times, [1.0, 1.0]))
        series.table["sobolev2"][0] = 2.0
        pair = crit.SerrinPair(6.0, 4.0)
        bounds = crit.gronwall_bound(series, pair, c_cal=3.0)
        assert bounds[0] == 1.0 + math.log(E + 4.0)

    def test_zero_trajectory_equality(self):
        times = np.linspace(0.0, 1.0, 5)
        series = crit.accumulate(synthetic_series(times, np.zeros(5)))
        pair = crit.SerrinPair(6.0, 4.0)
        bounds = crit.gronwall_bound(series, pair, c_cal=5.0)
        measured = [1.0 + math.log(E + v**2) for v in series.table["sobolev2"]]
        assert np.allclose(bounds, 2.0) and np.allclose(measured, 2.0)
        assert all(b >= m for b, m in zip(bounds, measured))

    def test_requires_canonical_pair(self):
        series = crit.accumulate(synthetic_series([0.0], [0.0]))
        with pytest.raises(ValueError, match="canonical"):
            crit.gronwall_bound(series, crit.SerrinPair(6.0, 5.0), c_cal=1.0)

    def test_monotone_in_integrand(self):
        times = np.linspace(0.0, 1.0, 6)
        base = crit.accumulate(synthetic_series(times, np.full(6, 1.0)))
        bumped_series = synthetic_series(times, np.full(6, 1.0))
        bumped_series.table["log_serrin_p6_s4"][2] = 2.0
        bumped = crit.accumulate(bumped_series)
        pair = crit.SerrinPair(6.0, 4.0)
        b0 = crit.gronwall_bound(base, pair, c_cal=1.0)
        b1 = crit.gronwall_bound(bumped, pair, c_cal=1.0)
        assert np.all(b1 >= b0)

    def test_taylor_green_dominance_short(self):
        mu = 0.1
        cfg = solv.SolverConfig(
            grid=Grid(16), mu=mu, dt=1e-3, t_end=0.05, init=solv.InitSpec("taylor_green")
        )
        pair = crit.SerrinPair(6.0, 4.0)
        mon = crit.CriterionConfig(pairs=(pair,))
        series = solv.run(cfg, mon)
        bounds = crit.gronwall_bound(series, pair, c_cal=10.0)
        measured = [1.0 + math.log(E + v**2) for v in series.table["sobolev2"]]
        assert all(b >= m for b, m in zip(bounds, measured))


class TestGronwallLogSpace:
    """verify checks the Gronwall consequence as ln z(t) <= ln z(0) +
    2 c_cal int log-Serrin: the logarithm of gronwall_bound >= z."""

    @staticmethod
    def growing_series():
        # ||grad^2 u|| grows from 1 to 40 while the log-Serrin integrand is 1
        times = np.linspace(0.0, 1.0, 11)
        series = synthetic_series(times, np.ones(11))
        series.table["sobolev2"] = list(np.exp(np.log(40.0) * times))
        return crit.accumulate(series)

    def test_decides_as_the_exponential_bound(self):
        series, pair = self.growing_series(), crit.SerrinPair(6.0, 4.0)
        measured = crit.log_factor(series.column("sobolev2") ** 2)
        decisions = []
        for c_cal in np.geomspace(1e-3, 1e3, 61):
            bound_holds = bool(np.all(crit.gronwall_bound(series, pair, c_cal) >= measured))
            log = crit.gronwall_log_check(series, pair, c_cal)
            assert bool(np.all(log["satisfied"])) == bound_holds, c_cal
            decisions.append(bound_holds)
        # the sweep crosses from failing to passing
        assert not decisions[0] and decisions[-1]

    def test_margin_and_budget_stay_finite_where_the_bound_overflows(self):
        series, pair = self.growing_series(), crit.SerrinPair(6.0, 4.0)
        with np.errstate(over="ignore"):
            assert np.isinf(crit.gronwall_bound(series, pair, 1e4)[-1])
        log = crit.gronwall_log_check(series, pair, 1e4)
        assert np.all(log["satisfied"]) and np.all(np.isfinite(log["rhs"]))
        ln_z = np.log(crit.log_factor(series.column("sobolev2") ** 2))
        assert log["rhs"][-1] == ln_z[0] + 2.0e4 * series.table["log_serrin_int_p6_s4"][-1]
        assert math.isnan(log["used"][0])
        budget = 2.0e4 * series.table["log_serrin_int_p6_s4"][-1]
        assert 0.0 < log["used"][-1] == (ln_z[-1] - ln_z[0]) / budget < 1e-3

    def test_requires_canonical_pair(self):
        series = crit.accumulate(synthetic_series([0.0], [0.0]))
        with pytest.raises(ValueError, match="canonical"):
            crit.gronwall_log_check(series, crit.SerrinPair(6.0, 5.0), c_cal=1.0)


class TestCalibration:
    def test_beltrami_corpus_infinite_p(self):
        corpus = [solv.init_beltrami(Grid(16), 1.0)]
        out = calibrate(corpus, math.inf, mu=0.1)
        assert out.c_gn == pytest.approx(2.0, rel=1e-10)

    def test_young_split_constant_closed_form(self):
        # p = 6: a = 1/2, sharp constant (a mu / (2 (2 - a))) ((2 - a) 5 C / mu)^4
        c_gn, mu = 1.3, 0.2
        a = 0.5
        expected = (a * mu / (2 * (2 - a))) * ((2 - a) * 5 * c_gn / mu) ** 4
        assert crit.young_split_constant(c_gn, 6.0, mu) == pytest.approx(expected, rel=1e-13)

    def test_young_split_inequality_holds_numerically(self):
        # 5 c X A^a B^{2-a} <= (mu/2) B^2 + C X^{2/a} A^2 on a parameter sweep
        rng = np.random.default_rng(0)
        for p in (4.0, 6.0, math.inf):
            a = 1.0 - (0.0 if math.isinf(p) else 3.0 / p)
            for _ in range(200):
                c_gn = rng.uniform(0.2, 3.0)
                mu = rng.uniform(0.05, 1.0)
                x, A, B = rng.uniform(0.01, 10.0, size=3)
                C = crit.young_split_constant(c_gn, p, mu)
                lhs = 5.0 * c_gn * x * A**a * B ** (2.0 - a)
                rhs = 0.5 * mu * B**2 + C * x ** (2.0 / a) * A**2
                assert lhs <= rhs * (1.0 + 1e-12)

    def test_determinism_and_monotonicity(self):
        g = Grid(16)
        corpus = [solv.init_random_divfree(g, s, -2.0, 1.0) for s in range(5)]
        a = calibrate(corpus, 6.0, 0.1)
        b = calibrate([solv.init_random_divfree(g, s, -2.0, 1.0) for s in range(5)], 6.0, 0.1)
        assert a == b
        bigger = corpus + [solv.init_random_divfree(g, 99, -2.0, 1.0)]
        c = calibrate(bigger, 6.0, 0.1)
        assert c.c_gn >= a.c_gn

    def test_constant_out_of_float_range_rejected(self):
        # c_cal grows like base ** (2 / a) with a = 1 - 3/p, so p near 3
        # leaves the float range; p = 3.1 still gives about 3e120
        corpus = [solv.init_random_divfree(Grid(16), s, -2.0, 1.0) for s in range(3)]
        assert math.isfinite(calibrate(corpus, 3.1, 0.1).c_cal)
        with pytest.raises(crit.ConstantOutOfRange, match="p = 3.01"):
            calibrate(corpus, 3.01, 0.1)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("which", ["c_gn", "c_cal"])
    def test_entry_needs_finite_positive_constants(self, bad, which):
        with pytest.raises(ValueError, match="finite and positive"):
            crit.CalibrationEntry(p=6.0, **dict({"c_gn": 1.0, "c_cal": 1.0}, **{which: bad}))

    def test_record_round_trip(self):
        rec = crit.CalibrationRecord(
            mu=0.1,
            entries={
                "p6": crit.CalibrationEntry(p=6.0, c_gn=1.5, c_cal=2.75e5),
                "pinf": crit.CalibrationEntry(p=math.inf, c_gn=2.0, c_cal=500.0),
            },
            corpus="random_divfree n=16 seeds=0..4",
        )
        back = crit.CalibrationRecord.from_text(rec.to_text())
        assert back.mu == rec.mu
        assert back.corpus == rec.corpus
        assert back.entries == rec.entries
        assert back.for_p(math.inf).c_gn == 2.0

    @given(
        p=st.floats(min_value=3.0, max_value=50.0, exclude_min=True) | st.just(math.inf),
        c_gn=st.floats(min_value=1e-3, max_value=1e3),
        c_cal=st.floats(min_value=1e-3, max_value=1e12),
    )
    @settings(max_examples=50, deadline=None)
    def test_record_round_trip_any_p(self, p, c_gn, c_cal):
        # non-integer p puts a '.' inside the key, as in "p4.5.c_gn"
        entry = crit.CalibrationEntry(p=p, c_gn=c_gn, c_cal=c_cal)
        rec = crit.CalibrationRecord(mu=0.1, entries={crit.calibration_key(p): entry})
        back = crit.CalibrationRecord.from_text(rec.to_text())
        assert back.entries == rec.entries
        assert back.for_p(p) == entry


class TestResolutionOracle:
    """A field band-limited to max|k| <= 3 is resolved on both n = 32 and
    n = 64, so every column that is a spectral sum, or the quadrature of a
    trigonometric polynomial that both grids integrate exactly (|u|^p for
    even p, of degree at most 18 here), reads the same on both grids.

    Left out: ``linf`` and ``bkm`` read a grid maximum, and ``log_serrin_*``
    and ``embed_ratio`` divide by a log factor of it; the integrand of
    ``chan_vasseur`` is not a polynomial; ``identity_residual`` is at
    roundoff on both grids."""

    COLUMNS = ["energy", "sobolev1", "sobolev2", "sobolev3", "ddt_sobolev2_sq"]

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_resolved_field_reads_the_same_on_two_grids(self, seed):
        pairs = parse_pairs("6:4,4:8")
        U = solv.init_random_divfree(Grid(12), seed, -1.0, 2.0)
        coarse, fine = (sample(reference.resample(U, n), pairs) for n in (32, 64))
        names = self.COLUMNS + [
            f"{c}_{pair.label}" for pair in pairs for c in ("lp", "serrin")
        ]
        for name in names:
            assert fine[name] == pytest.approx(coarse[name], rel=1e-13, abs=0.0), name


class TestEvaluateSample:
    def test_embed_ratio_logged(self):
        g = Grid(16)
        U = solv.init_random_divfree(g, 2, -2.0, 1.0)
        s = sample(U, [SIX], with_identity=True)
        sob2 = sob(U, 2)
        linf = float(to_physical(U).magnitude().max())
        expected = (1.0 + math.log(E + sob2**2)) / (1.0 + math.log(E + linf))
        assert s["embed_ratio"] == pytest.approx(expected, rel=1e-12)

    def test_disabled_monitors_yield_nan(self):
        g = Grid(8)
        U = solv.init_random_divfree(g, 2, -2.0, 1.0)
        s = sample(U, [SIX], with_identity=False)
        assert math.isnan(s["identity_residual"])
        assert not math.isnan(s["energy"])

    @pytest.mark.parametrize("pairs", ["6:4", "4:8,5:5,6:4,inf:2"])
    def test_one_magnitude_per_field_whatever_the_pairs(self, monkeypatch, pairs):
        # one |u|, the square root taken in place in the kernel's |u|^2,
        # serves every pair, and no magnitude is formed from a sample table;
        # each ||u||_p is verify's, from to_physical, bit for bit
        g = Grid(16)
        U = solv.init_random_divfree(g, 2, -2.0, 1.0)
        mon = crit.CriterionConfig(pairs=parse_pairs(pairs))
        mag = to_physical(U).magnitude()
        expected = {pair.p: norms.lp_norm(g, mag, pair.p) for pair in mon.pairs}
        magnitudes, calls = [], []
        lp_norm, magnitude = norms.lp_norm, VelocityField.magnitude

        def recorded(grid, field, p):
            magnitudes.append(field)
            return lp_norm(grid, field, p)

        def counted(field):
            calls.append(1)
            return magnitude(field)

        monkeypatch.setattr(norms, "lp_norm", recorded)
        monkeypatch.setattr(VelocityField, "magnitude", counted)
        s = sample(U, mon.pairs)
        assert calls == []
        assert len(magnitudes) == len(mon.pairs)
        assert all(field is magnitudes[0] for field in magnitudes)
        for pair in mon.pairs:
            assert s[f"lp_{pair.label}"] == expected[pair.p]
