"""Solver tests: exact-solution decay oracles, conservation, determinism,
stability validation, and the convergence window."""

import math

import numpy as np
import pytest

from regcrit import criteria as crit
from regcrit import solver as solv
from regcrit import spectral as spec
from regcrit.norms import lp_norm, sobolev_seminorm
from regcrit.spectral import Grid, SpectralVelocityField, to_physical

TWO_PI = 2.0 * np.pi


def basic_monitors(mu=0.1):
    return crit.CriterionConfig(pairs=(crit.SerrinPair(6.0, 4.0),), mu=mu)


class TestInitializers:
    def test_taylor_green_divergence_free(self):
        U = solv.init_taylor_green(Grid(16), 1.0)
        d = spec.divergence(U)
        assert np.abs(d.coefficients).max() <= 1e-13

    def test_taylor_green_l2_closed_form(self):
        # integral of cos^2 x sin^2 y + sin^2 x cos^2 y over the box is 4 pi^3
        amp = 1.3
        U = solv.init_taylor_green(Grid(16), amp)
        expected = amp * math.sqrt(4.0 * math.pi**3)
        assert lp_norm(to_physical(U), 2.0) == pytest.approx(expected, rel=1e-12)

    def test_beltrami_eigenfield_and_norm(self):
        amp = 0.8
        U = solv.init_beltrami(Grid(16), amp)
        W = spec.curl(U)
        assert np.abs(W.coefficients - U.coefficients).max() <= 1e-13
        assert np.abs(spec.divergence(U).coefficients).max() <= 1e-13
        expected = amp * math.sqrt(3.0) * TWO_PI**1.5
        assert lp_norm(to_physical(U), 2.0) == pytest.approx(expected, rel=1e-12)

    def test_random_divfree_contract(self):
        g = Grid(16)
        a = solv.init_random_divfree(g, 42, -2.0, 0.7)
        b = solv.init_random_divfree(g, 42, -2.0, 0.7)
        assert np.array_equal(a.coefficients, b.coefficients)
        c = solv.init_random_divfree(g, 43, -2.0, 0.7)
        assert not np.array_equal(a.coefficients, c.coefficients)
        norm = math.sqrt(np.sum(np.abs(a.coefficients) ** 2))
        assert np.abs(spec.divergence(a).coefficients).max() <= 1e-12 * norm
        assert lp_norm(to_physical(a), 2.0) == pytest.approx(0.7, rel=1e-12)
        assert spec.hermitian_violation(a.coefficients) <= 1e-13

    def test_random_divfree_band_limited(self):
        g = Grid(16)
        a = solv.init_random_divfree(g, 1, -2.0, 1.0)
        ints = g.integer_modes
        kx = ints.reshape(-1, 1, 1)
        ky = ints.reshape(1, -1, 1)
        kz = ints.reshape(1, 1, -1)
        outside = np.sqrt(kx**2 + ky**2 + kz**2) > g.n / 3.0
        assert np.abs(a.coefficients[:, outside]).max() == 0.0

    def test_random_divfree_zero_amplitude(self):
        a = solv.init_random_divfree(Grid(8), 0, -2.0, 0.0)
        assert np.all(a.coefficients == 0.0)

    def test_random_divfree_spectrum_slope(self):
        # shell-averaged modulus tracks |k|^slope before projection scatter
        g = Grid(32)
        slope = -2.0
        a = solv.init_random_divfree(g, 3, slope, 1.0)
        ints = g.integer_modes
        k2 = (
            ints.reshape(-1, 1, 1) ** 2
            + ints.reshape(1, -1, 1) ** 2
            + ints.reshape(1, 1, -1) ** 2
        ).astype(float)
        mean_mod = []
        for kk in (2.0, 4.0):
            shell = np.isclose(np.sqrt(k2), kk)
            mean_mod.append(np.abs(a.coefficients[:, shell]).mean())
        measured_slope = math.log(mean_mod[1] / mean_mod[0]) / math.log(2.0)
        assert measured_slope == pytest.approx(slope, abs=0.5)


class TestConfigValidation:
    def test_cfl_bound_rejected(self):
        with pytest.raises(ValueError, match="stability bound"):
            solv.SolverConfig(
                grid=Grid(32),
                mu=0.1,
                dt=0.3,
                t_end=0.3,
                init=solv.InitSpec("taylor_green"),
            )

    def test_viscous_bound_rejected(self):
        # advective bound is loose at tiny amplitude; the viscous one binds
        with pytest.raises(ValueError, match="stability bound"):
            solv.SolverConfig(
                grid=Grid(32),
                mu=1.0,
                dt=0.05,
                t_end=0.05,
                init=solv.InitSpec("beltrami", amplitude=1e-3),
            )

    def test_non_integer_step_count_rejected(self):
        with pytest.raises(ValueError, match="integer multiple"):
            solv.SolverConfig(
                grid=Grid(16),
                mu=0.1,
                dt=1e-3,
                t_end=0.0015,
                init=solv.InitSpec("beltrami"),
            )

    def test_dt_max_recorded(self):
        cfg = solv.SolverConfig(
            grid=Grid(16),
            mu=0.1,
            dt=1e-3,
            t_end=0.0,
            init=solv.InitSpec("taylor_green"),
        )
        assert 0.0 < cfg.dt <= cfg.dt_max <= 0.5


class TestNonlinearTerm:
    def test_zero_field(self):
        g = Grid(8)
        zero = SpectralVelocityField(g, np.zeros((3,) + g.shape, complex))
        out = solv.nonlinear_rhs(zero)
        assert np.all(out.coefficients == 0.0)

    def test_beltrami_convective_term_is_pure_gradient(self):
        U = solv.init_beltrami(Grid(16), 1.0)
        out = solv.nonlinear_rhs(U)
        scale = np.abs(U.coefficients).max()
        assert np.abs(out.coefficients).max() <= 1e-11 * scale

    def test_taylor_green_convective_term_is_pure_gradient(self):
        U = solv.init_taylor_green(Grid(16), 1.0)
        out = solv.nonlinear_rhs(U)
        scale = np.abs(U.coefficients).max()
        assert np.abs(out.coefficients).max() <= 1e-11 * scale

    def test_pressure_reconstruction_consistent(self):
        # -P(w) must equal -(w + grad q) with q from the Poisson solve
        g = Grid(16)
        U = solv.init_random_divfree(g, 17, -2.0, 1.0)
        w = spec.convective(U)
        q = solv.pressure_field(U)
        q_hat = spec.fft_forward(q)
        grad_q = spec.gradient(q_hat)
        direct = -(w.coefficients + grad_q.coefficients)
        projected = solv.nonlinear_rhs(U).coefficients
        # both remove the gradient part; mean modes of w are untouched by P
        direct[:, 0, 0, 0] = projected[:, 0, 0, 0]
        assert np.abs(direct - projected).max() <= 1e-12 * max(
            np.abs(w.coefficients).max(), 1e-30
        )


class TestStep:
    def test_zero_state_stays_zero(self):
        g = Grid(8)
        cfg = solv.SolverConfig(
            grid=g, mu=0.1, dt=1e-2, t_end=0.0, init=solv.InitSpec("taylor_green")
        )
        zero = solv.SolverState(0.0, SpectralVelocityField(g, np.zeros((3,) + g.shape, complex)))
        out = solv.step(zero, cfg)
        assert np.all(out.u_hat.coefficients == 0.0)
        assert out.t == pytest.approx(1e-2)
        assert out.step_index == 1

    def test_beltrami_single_step_decay(self):
        mu, dt = 0.1, 1e-3
        cfg = solv.SolverConfig(
            grid=Grid(16), mu=mu, dt=dt, t_end=dt, init=solv.InitSpec("beltrami")
        )
        s0 = solv.SolverState(0.0, solv.make_initial(cfg))
        s1 = solv.step(s0, cfg)
        expected = math.exp(-mu * dt) * s0.u_hat.coefficients
        rel = np.abs(s1.u_hat.coefficients - expected).max() / np.abs(
            s0.u_hat.coefficients
        ).max()
        assert rel <= 1e-12

    def test_mean_momentum_constant(self):
        g = Grid(16)
        cfg = solv.SolverConfig(
            grid=g, mu=0.1, dt=1e-3, t_end=1e-3, init=solv.InitSpec("beltrami")
        )
        u = solv.make_initial(cfg)
        coeffs = u.coefficients.copy()
        coeffs[:, 0, 0, 0] = [0.05, -0.02, 0.01]
        state = solv.SolverState(0.0, SpectralVelocityField(g, coeffs))
        for _ in range(3):
            state = solv.step(state, cfg)
        assert np.array_equal(state.u_hat.coefficients[:, 0, 0, 0], coeffs[:, 0, 0, 0])

    def test_cfl_recheck_raises(self):
        g = Grid(16)
        cfg = solv.SolverConfig(
            grid=g, mu=0.1, dt=1e-1, t_end=1e-1, init=solv.InitSpec("beltrami", amplitude=0.1)
        )
        huge = SpectralVelocityField(
            g, solv.init_beltrami(g, 100.0).coefficients
        )
        with pytest.raises(solv.NumericalBlowup, match="CFL"):
            solv.step(solv.SolverState(0.0, huge), cfg)

    def test_non_finite_state_raises(self):
        g = Grid(8)
        cfg = solv.SolverConfig(
            grid=g, mu=0.1, dt=1e-2, t_end=1e-2, init=solv.InitSpec("beltrami", amplitude=0.1)
        )
        bad = np.zeros((3,) + g.shape, complex)
        bad[0, 1, 0, 0] = 1e160  # overflows within the quadratic term
        bad[0, -1, 0, 0] = 1e160
        with pytest.raises(solv.NumericalBlowup):
            state = solv.SolverState(0.0, SpectralVelocityField(g, bad))
            for _ in range(50):
                state = solv.step(state, cfg)


class TestRun:
    def test_zero_duration_yields_single_sample(self):
        cfg = solv.SolverConfig(
            grid=Grid(8), mu=0.1, dt=1e-2, t_end=0.0, init=solv.InitSpec("taylor_green")
        )
        series = solv.run(cfg, basic_monitors())
        assert len(series.samples) == 1
        assert series.samples[0].t == 0.0
        assert series.samples[0].pairs["p6_s4"].serrin_int == 0.0

    def test_taylor_green_energy_decay_short(self):
        mu = 0.1
        cfg = solv.SolverConfig(
            grid=Grid(16), mu=mu, dt=1e-3, t_end=0.05, init=solv.InitSpec("taylor_green")
        )
        series = solv.run(cfg, basic_monitors(mu))
        t = series.column("t")
        e = series.column("energy")
        np.testing.assert_allclose(e / e[0], np.exp(-4 * mu * t), rtol=1e-10)

    def test_beltrami_l2_decay_short(self):
        mu = 0.2
        cfg = solv.SolverConfig(
            grid=Grid(16), mu=mu, dt=1e-3, t_end=0.05, init=solv.InitSpec("beltrami")
        )
        series = solv.run(cfg, basic_monitors(mu))
        t = series.column("t")
        l2 = np.sqrt(series.column("energy"))
        np.testing.assert_allclose(l2 / l2[0], np.exp(-mu * t), rtol=1e-10)

    def test_determinism(self):
        cfg = solv.SolverConfig(
            grid=Grid(16),
            mu=0.1,
            dt=1e-3,
            t_end=0.02,
            init=solv.InitSpec("random_divfree", seed=5, spectrum_slope=-2.0),
        )
        s1 = solv.run(cfg, basic_monitors())
        s2 = solv.run(cfg, basic_monitors())
        for name in ("t", "energy", "linf", "sobolev2", "bkm", "chan_vasseur"):
            assert np.array_equal(s1.column(name), s2.column(name))

    def test_monitor_stride_and_final_sample(self):
        cfg = solv.SolverConfig(
            grid=Grid(8),
            mu=0.1,
            dt=1e-2,
            t_end=0.05,
            init=solv.InitSpec("taylor_green"),
            monitor_stride=2,
        )
        series = solv.run(cfg, basic_monitors())
        steps = [round(s.t / 1e-2) for s in series.samples]
        assert steps == [0, 2, 4, 5]  # stride hits plus the forced final sample

    def test_blowup_carries_partial_series(self, monkeypatch):
        g = Grid(16)
        cfg = solv.SolverConfig(
            grid=g, mu=0.1, dt=5e-2, t_end=0.5, init=solv.InitSpec("beltrami", amplitude=0.2)
        )
        # smuggle in a CFL-violating amplitude after validation
        coeffs = solv.init_beltrami(g, 50.0).coefficients
        monkeypatch.setattr(
            solv, "make_initial", lambda c: SpectralVelocityField(g, coeffs)
        )
        with pytest.raises(solv.NumericalBlowup) as exc_info:
            solv.run(cfg, basic_monitors())
        assert exc_info.value.series is not None
        assert len(exc_info.value.series.samples) >= 1


class TestConvergenceOrder:
    def test_fourth_order_window_quick(self):
        # decay error on the curl eigenfield shrinks ~16x per dt halving
        mu, t_end = 2.0, 0.25
        errs = []
        for dt in (0.0125, 0.00625):
            cfg = solv.SolverConfig(
                grid=Grid(8), mu=mu, dt=dt, t_end=t_end, init=solv.InitSpec("beltrami")
            )
            state = solv.SolverState(0.0, solv.make_initial(cfg))
            u0 = state.u_hat.coefficients.copy()
            for _ in range(int(round(t_end / dt))):
                state = solv.step(state, cfg)
            exact = math.exp(-mu * t_end) * u0
            errs.append(np.abs(state.u_hat.coefficients - exact).max())
        assert 13.0 <= errs[0] / errs[1] <= 19.0


class TestWorkerCount:
    def test_results_bitwise_equal_across_worker_counts(self, monkeypatch):
        g = Grid(16)
        cfg = solv.SolverConfig(
            grid=g,
            mu=0.1,
            dt=1e-3,
            t_end=3e-3,
            init=solv.InitSpec("random_divfree", seed=5, spectrum_slope=-2.0),
        )
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("REGCRIT_THREADS", threads)
            state = solv.SolverState(0.0, solv.make_initial(cfg))
            for _ in range(3):
                state = solv.step(state, cfg)
            sample = crit.evaluate_sample(
                state.u_hat, state.t, basic_monitors(),
                rhs_hat=solv.nonlinear_rhs(state.u_hat), with_identity=True,
            )
            assert not math.isnan(sample.identity_residual)
            outputs.append((state.u_hat.half, sample))
        (half1, sample1), (half2, sample2) = outputs
        assert np.array_equal(half1, half2)
        # repr prints every float with round-trip precision (and NaN as nan)
        assert repr(sample1) == repr(sample2)
