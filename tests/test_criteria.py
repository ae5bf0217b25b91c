"""Criterion functional tests: arithmetic oracles, the identity chain on
closed-form fields, quadrature checks, and calibration algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regcrit import criteria as crit
from regcrit import norms
from regcrit import solver as solv
from regcrit.config import parse_pairs
from regcrit.spectral import (
    Grid,
    SpectralVelocityField,
    VelocityField,
    first_derivatives,
    second_derivatives,
    to_physical,
)

E = math.e
TWO_PI = 2.0 * math.pi


def constant_field(grid, c):
    u = np.zeros((3,) + grid.shape)
    u[0] = c
    return VelocityField(grid, u)


def zero_spectral(grid):
    return SpectralVelocityField(grid, np.zeros((3,) + grid.half_shape, complex))


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
    def test_serrin_constant_field(self):
        g = Grid(8)
        c = 1.4
        pair = crit.SerrinPair(5.0, 5.0)
        val = crit.serrin_integrand(constant_field(g, c), pair)
        assert val == pytest.approx(c**5 * TWO_PI**3, rel=1e-12)

    def test_serrin_zero_field(self):
        g = Grid(8)
        assert crit.serrin_integrand(constant_field(g, 0.0), crit.SerrinPair(6.0, 4.0)) == 0.0

    def test_log_serrin_denominator_hits_three(self):
        g = Grid(8)
        c = E**2 - E  # makes 1 + ln(e + c) = 3
        pair = crit.SerrinPair(5.0, 5.0)
        classical = crit.serrin_integrand(constant_field(g, c), pair)
        logged = crit.log_serrin_integrand(constant_field(g, c), pair)
        assert logged == pytest.approx(classical / 3.0, rel=1e-13)

    @given(seed=st.integers(0, 2**31 - 1), amp=st.floats(0.1, 30.0))
    @settings(max_examples=15, deadline=None)
    def test_log_serrin_at_most_half_classical(self, seed, amp):
        g = Grid(8)
        U = to_physical(solv.init_random_divfree(g, seed, -2.0, amp))
        pair = crit.SerrinPair(5.0, 5.0)
        classical = crit.serrin_integrand(U, pair)
        logged = crit.log_serrin_integrand(U, pair)
        assert logged <= classical / 2.0 + 1e-300

    def test_overflow_becomes_inf_sentinel(self):
        g = Grid(8)
        pair = crit.SerrinPair(5.0, 5.0)
        val = crit.serrin_integrand(constant_field(g, 1e80), pair)
        assert math.isinf(val)

    def test_bkm_on_curl_eigenfield(self):
        g = Grid(16)
        U = solv.init_beltrami(g, 0.9)
        assert crit.bkm_integrand(U) == pytest.approx(
            norms.lp_norm(to_physical(U), math.inf), rel=1e-13
        )

    def test_bkm_on_taylor_green(self):
        g = Grid(16)
        amp = 1.1
        U = solv.init_taylor_green(g, amp)
        assert crit.bkm_integrand(U) == pytest.approx(2.0 * amp, rel=1e-12)

    def test_bkm_zero(self):
        assert crit.bkm_integrand(zero_spectral(Grid(8))) == 0.0

    def test_chan_vasseur_unit_constant(self):
        g = Grid(8)
        expected = TWO_PI**3 / math.log(E + 1.0)
        assert crit.chan_vasseur_integrand(constant_field(g, 1.0)) == pytest.approx(
            expected, rel=1e-13
        )

    def test_chan_vasseur_zero(self):
        assert crit.chan_vasseur_integrand(constant_field(Grid(8), 0.0)) == 0.0

    @given(seed=st.integers(0, 2**31 - 1), amp=st.floats(0.05, 50.0))
    @settings(max_examples=20, deadline=None)
    def test_pointwise_log_domination(self, seed, amp):
        # grid sup dominates every sample, so the comparison is exact
        g = Grid(8)
        U = to_physical(solv.init_random_divfree(g, seed, -2.0, amp))
        pair = crit.SerrinPair(5.0, 5.0)
        assert crit.log_serrin_integrand(U, pair) <= crit.chan_vasseur_integrand(U)

    def test_integrand_lipschitz_in_small_perturbations(self):
        g = Grid(8)
        U = to_physical(solv.init_random_divfree(g, 7, -2.0, 1.0))
        pair = crit.SerrinPair(6.0, 4.0)
        base = crit.serrin_integrand(U, pair)
        delta = 1e-6
        bumped = VelocityField(g, U.values + delta)
        moved = abs(crit.serrin_integrand(bumped, pair) - base)
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
            series.append(dict(series.row(0), t=-1.0))
        # a row is rejected unless its keys are exactly the monitor columns
        later = dict(series.row(0), t=5.0)
        for wrong in (dict(later, extra=0.0), {k: v for k, v in later.items() if k != "bkm"}):
            with pytest.raises(ValueError, match="monitor columns"):
                series.append(wrong)
        assert len(series) == 2


class TestIdentity:
    def test_zero_field(self):
        g = Grid(8)
        res = crit.h2_identity_residual(zero_spectral(g), 0.1)
        assert res["lhs"] == 0.0 and res["rhs"] == 0.0 and res["residual"] == 0.0

    def test_beltrami_closed_form(self):
        # single-shell eigenfield: both sides vanish identically
        g = Grid(16)
        mu = 0.1
        U = solv.init_beltrami(g, 1.0)
        res = crit.h2_identity_residual(U, mu)
        scale = mu * norms.sobolev_seminorm(U, 3) ** 2
        assert abs(res["lhs"]) <= 1e-10 * scale
        assert abs(res["rhs"]) <= 1e-10 * scale
        assert res["residual"] <= 1e-10 * (1.0 + abs(res["lhs"]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_band_limited(self, seed):
        g = Grid(32)
        U = solv.init_random_divfree(g, seed, -2.0, 1.0)
        res = crit.h2_identity_residual(U, 0.1)
        assert res["residual"] <= 1e-8 * (1.0 + abs(res["lhs"]))


def reference_identity_rhs(U):
    """Identity right side as the literal 27-entry contractions (reference route)."""
    grads = first_derivatives(U)
    d2 = second_derivatives(U)
    w = U.grid.cell_volume
    t1 = w * float(np.einsum("ijlabc,imabc,mjlabc->", d2, grads, d2, optimize=True))
    t2 = w * float(np.einsum("ijlabc,ijmabc,mlabc->", d2, d2, grads, optimize=True))
    return -2.0 * t1 - t2


def reference_hessian(U):
    """Pointwise Frobenius magnitude over the full 27-entry table (reference route)."""
    d2 = second_derivatives(U)
    return np.sqrt(np.einsum("ijcxyz,ijcxyz->xyz", d2, d2))


def assert_hessian_matches(quad, U):
    ref = reference_hessian(U)
    np.testing.assert_allclose(quad.hessian, ref, rtol=1e-12, atol=1e-12 * ref.max())


class TestHessianQuadrature:
    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_route(self, n, seed):
        U = solv.init_random_divfree(Grid(n), seed, -2.0, 1.0)
        quad = crit.hessian_quadrature(U)
        ref = reference_identity_rhs(U)
        assert abs(quad.rhs - ref) <= 1e-12 * abs(ref)
        assert_hessian_matches(quad, U)

    def test_taylor_green_rhs_vanishes(self):
        U = solv.init_taylor_green(Grid(16), 1.0)
        quad = crit.hessian_quadrature(U)
        # |rhs| <= 3 ||grad u||_inf ||grad^2 u||_2^2 sets the scale of zero
        scale = np.abs(first_derivatives(U)).max() * norms.sobolev_seminorm(U, 2) ** 2
        assert abs(quad.rhs) <= 1e-12 * scale
        assert abs(reference_identity_rhs(U)) <= 1e-12 * scale
        assert_hessian_matches(quad, U)

    def test_beltrami_both_sides_vanish(self):
        mu = 0.1
        U = solv.init_beltrami(Grid(16), 1.0)
        quad = crit.hessian_quadrature(U)
        res = crit.h2_identity_residual(U, mu, quad=quad)
        scale = mu * norms.sobolev_seminorm(U, 3) ** 2
        assert abs(res["lhs"]) <= 1e-12 * scale
        assert abs(quad.rhs) <= 1e-12 * scale
        assert abs(reference_identity_rhs(U)) <= 1e-12 * scale
        assert_hessian_matches(quad, U)


class TestHolder:
    def test_zero_field(self):
        res = crit.holder_check(zero_spectral(Grid(8)), 6.0)
        assert res["satisfied"]
        assert res["actual"] == 0.0 and res["bound"] == 0.0

    def test_taylor_green_nonlinear_side_vanishes(self):
        U = solv.init_taylor_green(Grid(16), 1.0)
        res = crit.holder_check(U, 6.0)
        assert res["satisfied"]
        assert res["actual"] <= 1e-9 * res["bound"]

    @pytest.mark.parametrize("p", [4.0, 6.0, math.inf])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_random_fields(self, p, seed):
        U = solv.init_random_divfree(Grid(16), seed, -2.0, 1.0)
        res = crit.holder_check(U, p)
        assert res["satisfied"]


class TestDifferentialInequality:
    def test_zero_sample(self):
        pair = crit.SerrinPair(6.0, 4.0)
        s = synthetic_series([0.0], [0.0]).row(0)
        res = crit.differential_inequality_check(s, pair, c_cal=1.0, mu=0.1)
        assert res["satisfied"] and res["lhs"] == 0.0 and res["rhs"] == 0.0

    def test_beltrami_closed_form_lhs(self):
        # |k| = 1 shell: d/dt ||grad^2 u||^2 = -2 mu Z, ||grad^3 u||^2 = Z
        g = Grid(16)
        mu, amp = 0.3, 0.8
        cfg = solv.SolverConfig(
            grid=g, mu=mu, dt=1e-3, t_end=0.0, init=solv.InitSpec("beltrami", amplitude=amp)
        )
        pair = crit.SerrinPair(6.0, 4.0)
        mon = crit.CriterionConfig(pairs=(pair,), mu=mu)
        series = solv.run(cfg, mon)
        s = series.row(0)
        z = 3.0 * amp**2 * TWO_PI**3
        assert s["ddt_sobolev2_sq"] == pytest.approx(-2.0 * mu * z, rel=1e-9)
        res = crit.differential_inequality_check(s, pair, c_cal=1.0, mu=mu)
        assert res["lhs"] == pytest.approx(-mu * z, rel=1e-9)
        assert res["satisfied"]  # pure decay: lhs < 0 <= rhs


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
        mon = crit.CriterionConfig(pairs=(pair,), mu=mu)
        series = solv.run(cfg, mon)
        bounds = crit.gronwall_bound(series, pair, c_cal=10.0)
        measured = [1.0 + math.log(E + v**2) for v in series.table["sobolev2"]]
        assert all(b >= m for b, m in zip(bounds, measured))


class TestCalibration:
    def test_beltrami_corpus_infinite_p(self):
        corpus = [solv.init_beltrami(Grid(16), 1.0)]
        out = crit.calibrate_constants(corpus, math.inf, mu=0.1)
        assert out["C_GN"] == pytest.approx(2.0, rel=1e-10)

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
        a = crit.calibrate_constants(corpus, 6.0, 0.1)
        b = crit.calibrate_constants(
            [solv.init_random_divfree(g, s, -2.0, 1.0) for s in range(5)], 6.0, 0.1
        )
        assert a == b
        bigger = corpus + [solv.init_random_divfree(g, 99, -2.0, 1.0)]
        c = crit.calibrate_constants(bigger, 6.0, 0.1)
        assert c["C_GN"] >= a["C_GN"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(crit.EmptyCorpus):
            crit.calibrate_constants([], 6.0, 0.1)

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
        rec = crit.CalibrationRecord(mu=0.1, entries={f"p{crit._fmt_num(p)}": entry})
        back = crit.CalibrationRecord.from_text(rec.to_text())
        assert back.entries == rec.entries
        assert back.for_p(p) == entry


class TestEvaluateSample:
    def test_embed_ratio_logged(self):
        g = Grid(16)
        U = solv.init_random_divfree(g, 2, -2.0, 1.0)
        mon = crit.CriterionConfig(pairs=(crit.SerrinPair(6.0, 4.0),), mu=0.1)
        s = crit.evaluate_sample(U, 0.0, mon, rhs_hat=solv.nonlinear_rhs(U))
        sob2 = norms.sobolev_seminorm(U, 2)
        linf = norms.lp_norm(to_physical(U), math.inf)
        expected = (1.0 + math.log(E + sob2**2)) / (1.0 + math.log(E + linf))
        assert s["embed_ratio"] == pytest.approx(expected, rel=1e-12)

    def test_disabled_monitors_yield_nan(self):
        g = Grid(8)
        U = solv.init_random_divfree(g, 2, -2.0, 1.0)
        mon = crit.CriterionConfig(pairs=(crit.SerrinPair(6.0, 4.0),), mu=0.1)
        s = crit.evaluate_sample(
            U, 0.0, mon, rhs_hat=solv.nonlinear_rhs(U), with_identity=False
        )
        assert math.isnan(s["identity_residual"])
        assert not math.isnan(s["energy"])

    @pytest.mark.parametrize("pairs", ["6:4", "4:8,5:5,6:4,inf:2"])
    def test_one_magnitude_per_field_whatever_the_pairs(self, monkeypatch, pairs):
        g = Grid(16)
        U = solv.init_random_divfree(g, 2, -2.0, 1.0)
        mon = crit.CriterionConfig(pairs=parse_pairs(pairs), mu=0.1)
        expected = {pair.p: norms.lp_norm(to_physical(U), pair.p) for pair in mon.pairs}
        calls = []
        magnitude = VelocityField.magnitude

        def counted(field):
            calls.append(1)
            return magnitude(field)

        monkeypatch.setattr(VelocityField, "magnitude", counted)
        s = crit.evaluate_sample(
            U, 0.0, mon, rhs_hat=solv.nonlinear_rhs(U), with_identity=False
        )
        assert len(calls) == 2  # |u| and |curl u|
        for pair in mon.pairs:
            assert s[f"lp_{pair.label}"] == expected[pair.p]
