"""Solver tests: exact-solution decay oracles, conservation, determinism,
stability validation, and the convergence window."""

import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

import reference
from regcrit import criteria as crit
from regcrit import solver as solv
from regcrit import spectral as spec
from regcrit.norms import lp_norm, sobolev_seminorm
from regcrit.spectral import Grid, SpectralVelocityField, to_physical

TWO_PI = 2.0 * np.pi


def l2(U):
    """||u||_2 of a spectral field, by quadrature of its grid samples."""
    return lp_norm(U.grid, to_physical(U).magnitude(), 2.0)


def step(U, config):
    """One RK4 step of the field U as solver.run takes it: the stage-1
    nonlinear term, then ``solver._advance``."""
    with np.errstate(over="ignore", invalid="ignore"):
        nl1, u_max = solv._nonlinear_half(config.grid, U.kept)[:2]
    return SpectralVelocityField(config.grid, solv._advance(config, U.kept, nl1, u_max, 0.0))


def half_of(g, kept):
    """The half spectrum of a compact cube, through the reference scatter."""
    return reference.to_half(SpectralVelocityField(g, kept))


def basic_monitors():
    return crit.CriterionConfig(pairs=(crit.SerrinPair(6.0, 4.0),))


def band_limited_random(g, seed):
    """Random real 3-vector filling every mode the dealias mask keeps."""
    rng = np.random.default_rng(seed)
    return spec.fft_forward(spec.VelocityField(g, rng.standard_normal((3,) + g.shape)))


def full_cube_convective(U):
    """Dealiased (u . grad) u by the full-cube complex FFT route."""
    g = U.grid
    mask = reference.dealias_mask(g)
    ud = reference.full(U) * mask
    up = reference.ifftn_real(ud)
    conv = np.zeros_like(up)
    for a, ik in enumerate(reference.ik_axes(g)):
        conv += up[a] * reference.ifftn_real(ik * ud)
    return SpectralVelocityField(g, reference.compact(g, reference.fftn(conv) * mask))


def padded_projected_rhs(U):
    """-P((u . grad) u) on the kept modes, from the exact product.

    u is zero-padded to m = 3n/2 points per axis.  Kept modes have
    max|k| <= n/3, so a product mode q' (max|q'| <= 2n/3) aliases onto a
    kept mode q only if |q' - q| = m, which needs n/3 + 2n/3 >= 3n/2: on the
    padded grid the product is exact on every kept mode.
    """
    g = U.grid
    m = 3 * g.n // 2
    fine = reference.resample(U, m)
    ks = reference.wavenumbers_half(fine.grid)
    fine_half = reference.to_half(fine)
    u = reference.irfftn_real(fine_half, m)
    w = np.zeros_like(u)
    for c in range(3):
        for a in range(3):
            w[c] += u[a] * reference.irfftn_real(1j * ks[a] * fine_half[c], m)
    W = SpectralVelocityField(fine.grid, reference.to_kept(fine.grid, reference.rfftn(w)))
    return -spec.leray_project(reference.resample(W, g.n)).kept


class TestInitializers:
    def test_taylor_green_divergence_free(self):
        U = solv.init_taylor_green(Grid(16), 1.0)
        d = spec.divergence(U)
        assert np.abs(reference.full(d)).max() <= 1e-13

    def test_taylor_green_l2_closed_form(self):
        # integral of cos^2 x sin^2 y + sin^2 x cos^2 y over the box is 4 pi^3
        amp = 1.3
        U = solv.init_taylor_green(Grid(16), amp)
        expected = amp * math.sqrt(4.0 * math.pi**3)
        assert l2(U) == pytest.approx(expected, rel=1e-12)

    def test_beltrami_eigenfield_and_norm(self):
        amp = 0.8
        U = solv.init_beltrami(Grid(16), amp)
        assert np.abs(reference.curl_samples(U) - to_physical(U).values).max() <= 1e-13
        assert np.abs(reference.full(spec.divergence(U))).max() <= 1e-13
        expected = amp * math.sqrt(3.0) * TWO_PI**1.5
        assert l2(U) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [8, 16, 18, 32])
    def test_exact_solutions_are_band_limited(self, n):
        # a forward transform of grid samples leaves roundoff on every mode;
        # the initializers keep only the kept modes of it, bit for bit
        g = Grid(n)
        for U in (solv.init_taylor_green(g, 1.3), solv.init_beltrami(g, 0.8)):
            samples = to_physical(U).values
            full_half = reference.rfftn(samples)
            assert np.abs(full_half[..., ~reference.dealias_mask_half(g)]).max() > 0.0
            assert np.all(reference.to_half(U)[..., ~reference.dealias_mask_half(g)] == 0.0)
            assert np.abs(U.kept).max() > 0.0

    def test_random_divfree_contract(self):
        g = Grid(16)
        a = solv.init_random_divfree(g, 42, -2.0, 0.7)
        b = solv.init_random_divfree(g, 42, -2.0, 0.7)
        assert np.array_equal(reference.full(a), reference.full(b))
        c = solv.init_random_divfree(g, 43, -2.0, 0.7)
        assert not np.array_equal(reference.full(a), reference.full(c))
        norm = math.sqrt(np.sum(np.abs(reference.full(a)) ** 2))
        assert np.abs(reference.full(spec.divergence(a))).max() <= 1e-12 * norm
        assert l2(a) == pytest.approx(0.7, rel=1e-12)
        assert reference.hermitian_violation(reference.full(a)) <= 1e-13

    @pytest.mark.parametrize("n", [16, 24, 96])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_random_divfree_matches_the_full_cube_construction(self, n, seed):
        # the draw order is the full cube's, so the field is bit for bit the
        # kz >= 0 planes of the full-cube construction
        g = Grid(n)
        a = solv.init_random_divfree(g, seed, -2.0, 1.0)
        b = reference.random_divfree_full(g, seed, -2.0, 1.0)
        assert np.array_equal(reference.to_half(a), b)

    def test_random_divfree_band_limited(self):
        g = Grid(16)
        a = solv.init_random_divfree(g, 1, -2.0, 1.0)
        ints = g.integer_modes
        kx = ints.reshape(-1, 1, 1)
        ky = ints.reshape(1, -1, 1)
        kz = ints.reshape(1, 1, -1)
        outside = np.sqrt(kx**2 + ky**2 + kz**2) > g.n / 3.0
        assert np.abs(reference.full(a)[:, outside]).max() == 0.0

    def test_random_divfree_inside_dealias_mask(self):
        # at n = 24 the shell |k| = 8 = n/3 would sit on the mask's edge
        g = Grid(24)
        a = solv.init_random_divfree(g, 1, -2.0, 1.0)
        assert np.abs(reference.to_half(a)[:, ~reference.dealias_mask_half(g)]).max() == 0.0
        ints = g.integer_modes
        k2 = (
            ints.reshape(-1, 1, 1) ** 2
            + ints.reshape(1, -1, 1) ** 2
            + ints.reshape(1, 1, -1) ** 2
        )
        assert np.abs(reference.full(a)[:, 9 * k2 >= g.n**2]).max() == 0.0
        assert np.abs(reference.full(a)[:, k2 == 7**2]).max() > 0.0

    def test_random_divfree_zero_amplitude(self):
        a = solv.init_random_divfree(Grid(8), 0, -2.0, 0.0)
        assert np.all(reference.full(a) == 0.0)

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
            mean_mod.append(np.abs(reference.full(a)[:, shell]).mean())
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


class TestNonlinearTerm:
    @pytest.mark.parametrize("n", [12, 16, 24, 48, 96])
    def test_matches_padded_exact_product(self, n):
        # with 3 | n, a mask keeping max|k| = n/3 lets mode 2n/3 alias onto -n/3
        U = band_limited_random(Grid(n), n)
        ref = padded_projected_rhs(U)
        out = solv.nonlinear_rhs(U).kept
        rel = float(np.abs(out - ref).max() / np.abs(ref).max())
        assert rel <= 1e-13

    def test_zero_field(self):
        g = Grid(8)
        zero = SpectralVelocityField(g, np.zeros((3,) + g.kept_shape, complex))
        out = solv.nonlinear_rhs(zero)
        assert np.all(reference.full(out) == 0.0)

    def test_beltrami_convective_term_is_pure_gradient(self):
        U = solv.init_beltrami(Grid(16), 1.0)
        out = solv.nonlinear_rhs(U)
        scale = np.abs(reference.full(U)).max()
        assert np.abs(reference.full(out)).max() <= 1e-11 * scale

    def test_taylor_green_convective_term_is_pure_gradient(self):
        U = solv.init_taylor_green(Grid(16), 1.0)
        out = solv.nonlinear_rhs(U)
        scale = np.abs(reference.full(U)).max()
        assert np.abs(reference.full(out)).max() <= 1e-11 * scale

    def test_pressure_reconstruction_consistent(self):
        # -P(w) must equal -(w + grad q) with q from the Poisson solve
        g = Grid(16)
        U = solv.init_random_divfree(g, 17, -2.0, 1.0)
        w = full_cube_convective(U)
        q = solv.pressure_field(U)
        q_full = reference.fftn(q.values)
        grad_q = np.stack([ik * q_full for ik in reference.ik_axes(g)])
        direct = -(reference.full(w) + grad_q)
        projected = reference.full(solv.nonlinear_rhs(U))
        # both remove the gradient part; mean modes of w are untouched by P
        direct[:, 0, 0, 0] = projected[:, 0, 0, 0]
        assert np.abs(direct - projected).max() <= 1e-12 * max(
            np.abs(reference.full(w)).max(), 1e-30
        )


def pinned_states(g):
    """The fields the pruned kernel is pinned on: the three initializers, and
    a random field filling every kept mode."""
    return {
        "random_divfree": solv.init_random_divfree(g, 3, -2.0, 1.0),
        "taylor_green": solv.init_taylor_green(g, 1.0),
        "beltrami": solv.init_beltrami(g, 0.7),
        "band_limited": band_limited_random(g, g.n),
    }


class TestPrunedKernel:
    """The pruned passes and the block-wise projection give the bits of full
    transforms, the dealias mask and the full projection
    (``reference.nonlinear_half_unpruned``)."""

    @pytest.mark.parametrize("n", [4, 6, 16, 18, 32, 48])
    def test_bitwise_equal_to_the_unpruned_kernel(self, n):
        g = Grid(n)
        for kind, U in pinned_states(g).items():
            nl, u_max, u_sq, omega_max = solv._nonlinear_half(g, U.kept)
            ref = reference.nonlinear_half_unpruned(g, reference.to_half(U))
            assert np.array_equal(half_of(g, nl), ref[0]), kind
            assert u_max == ref[1], kind
            assert u_sq.tobytes() == ref[2].tobytes(), kind
            assert omega_max == ref[3], kind
            w_hat = spec.convective_core_half(g, U.kept)[0]
            unpruned = reference.convective_core_unpruned(g, reference.to_half(U))[0]
            assert np.array_equal(half_of(g, w_hat), unpruned), kind
            # without samples, the same term
            bare = solv._nonlinear_half(g, U.kept, samples=False)
            assert np.array_equal(bare[0], nl) and bare[2] is None, kind
            assert math.isnan(bare[1]) and math.isnan(bare[3]), kind

    @pytest.mark.parametrize("n", [16, 18])
    def test_pressure_field_bitwise_unchanged(self, monkeypatch, n):
        states = pinned_states(Grid(n))
        pruned = {kind: solv.pressure_field(U).values for kind, U in states.items()}

        def unpruned(grid, kept):
            out = reference.convective_core_unpruned(grid, half_of(grid, kept))
            return (reference.to_kept(grid, out[0]),) + out[1:]

        monkeypatch.setattr(solv, "convective_core_half", unpruned)
        for kind, U in states.items():
            assert np.array_equal(pruned[kind], solv.pressure_field(U).values), kind


class TestPressure:
    """q solves Delta q = -div((u . grad) u) with mean zero."""

    def test_taylor_green_exact(self):
        amp, g = 1.7, Grid(16)
        q = solv.pressure_field(solv.init_taylor_green(g, amp)).values
        X, Y, _ = g.meshes()
        exact = -(amp**2 / 4.0) * (np.cos(2.0 * X) + np.cos(2.0 * Y))
        assert np.abs(q - exact).max() <= 1e-12 * np.abs(exact).max()

    def test_beltrami_exact(self):
        # curl u = u, so (u . grad) u = grad |u|^2/2 and q = -|u|^2/2 + mean
        amp, g = 0.8, Grid(16)
        U = solv.init_beltrami(g, amp)
        q = solv.pressure_field(U).values
        half_sq = 0.5 * np.sum(to_physical(U).values ** 2, axis=0)
        exact = -(half_sq - half_sq.mean())
        assert np.abs(q - exact).max() <= 1e-12 * np.abs(exact).max()


class CountingFFT:
    """Stands in for ``spectral._fft``.  Counts 3-D transforms by direction:
    an n-D call by its batch, a real 1-D pass (``irfft``/``rfft``) by its
    lines over n^2, so the slabs of one transform add up to one.  Also sums,
    per complex 1-D pass (``fft``/``ifft``) and axis, the lines that pass
    touches."""

    #: the n-D calls, counted by their batch, and their direction
    BATCHED = {"fftn": "forward", "rfftn": "forward", "ifftn": "inverse", "irfftn": "inverse"}
    #: the real 1-D passes, counted by their lines, and their direction
    REAL = {"rfft": "forward", "irfft": "inverse"}

    def __init__(self, module):
        self.module = module
        self.counts = {"forward": 0, "inverse": 0}
        self.lines = {}

    def __getattr__(self, name):
        fn = getattr(self.module, name)

        def call(x, *args, **kwargs):
            shape = np.shape(x)
            if name in self.BATCHED:
                self.counts[self.BATCHED[name]] += math.prod(shape[:-3])
                return fn(x, *args, **kwargs)
            axis = kwargs["axis"] % len(shape)
            lines = math.prod(shape) // shape[axis]
            if name in self.REAL:
                n = kwargs.get("n", shape[axis])
                self.counts[self.REAL[name]] += Fraction(lines, n * n)
            else:
                key = (name, "xyz"[axis - len(shape) + 3])
                self.lines[key] = self.lines.get(key, 0) + lines
            return fn(x, *args, **kwargs)

        return call


def pruned_lines(n):
    """Lines each complex pass of one right-hand side touches: with
    m = (n - 1) // 3, 2m + 1 kept modes along x and y and m + 1 kept kz
    planes.  Inverse: x on the kept (y, kz) lines of 6 fields, y on every
    line of the kept kz planes; forward: x on every line of the kept kz
    planes of 3 fields, y on the kept x-slabs."""
    m = (n - 1) // 3
    kept, planes = 2 * m + 1, m + 1
    return {
        ("ifft", "x"): 6 * kept * planes,
        ("ifft", "y"): 6 * n * planes,
        ("fft", "x"): 3 * n * planes,
        ("fft", "y"): 3 * kept * planes,
    }


class TestTransformCount:
    def test_nonlinear_term_is_six_inverse_and_three_forward(self, monkeypatch):
        for n in (16, 18):
            g = Grid(n)
            U = solv.init_random_divfree(g, 4, -2.0, 1.0)
            fft = CountingFFT(spec._fft)
            monkeypatch.setattr(spec, "_fft", fft)
            solv._nonlinear_half(g, U.kept)
            monkeypatch.undo()
            assert fft.counts == {"forward": 3, "inverse": 6}
            assert fft.lines == pruned_lines(n)

    @pytest.mark.parametrize("n", [16, 18])
    def test_forward_transform_is_the_kernels_forward(self, monkeypatch, n):
        # one vector fft_forward runs the passes of the kernel's forward: 3
        # transforms over its lines, and nothing else
        g = Grid(n)
        f = to_physical(solv.init_random_divfree(g, 4, -2.0, 1.0))
        fft = CountingFFT(spec._fft)
        monkeypatch.setattr(spec, "_fft", fft)
        spec.fft_forward(f)
        monkeypatch.undo()
        assert fft.counts == {"forward": 3, "inverse": 0}
        assert fft.lines == {k: v for k, v in pruned_lines(n).items() if k[0] == "fft"}

    def test_monitored_run_reuses_the_stage_one_samples(self, monkeypatch):
        # samples and snapshots every step: every transform of the run is one
        # of the 4 nonlinear terms of a step, the stage-1 term of the final
        # sample, or the derivative stream of a sample's identity quadrature
        steps = 3
        cfg = solv.SolverConfig(
            grid=Grid(16), mu=0.1, dt=1e-2, t_end=steps * 1e-2,
            init=solv.InitSpec("random_divfree", seed=2), snapshot_stride=1,
        )
        monitors = crit.CriterionConfig(pairs=(crit.SerrinPair(6.0, 4.0),))
        with pytest.raises(TypeError):  # the identity is not a setting
            crit.CriterionConfig(pairs=monitors.pairs, identity=False)

        class Sink(solv.RunSink):
            def __init__(self):
                self.fields = []

            def snapshot(self, step_index, t, field):
                self.fields.append(field.kept.copy())

        fft = CountingFFT(spec._fft)
        monkeypatch.setattr(spec, "_fft", fft)
        sink = Sink()
        series = solv.run(cfg, monitors, sink)
        calls, samples = 4 * steps + 1, steps + 1
        assert fft.counts == {"forward": 3 * calls, "inverse": 6 * calls + 27 * samples}
        # the quadrature's stream: x on the kept (y, kz) lines of the 9
        # spectra k_x^alpha u_c, y on every line of the kept kz planes of
        # the 27 derivative fields, then their real z pass
        m = (16 - 1) // 3
        stream = {("ifft", "x"): 9 * (2 * m + 1) * (m + 1), ("ifft", "y"): 27 * 16 * (m + 1)}
        assert fft.lines == {
            key: calls * lines + samples * stream.get(key, 0)
            for key, lines in pruned_lines(16).items()
        }
        assert len(series) == len(sink.fields) == steps + 1
        monkeypatch.undo()
        # the snapshots are the states the series describes, bit for bit
        U = solv.make_initial(cfg)
        for i in range(steps + 1):
            assert sink.fields[i].tobytes() == U.kept.tobytes()
            expected = to_physical(U).values
            linf = float(np.sqrt(np.sum(expected**2, axis=0)).max())
            assert series.table["linf"][i] == pytest.approx(linf, rel=1e-13)
            U = step(U, cfg)

    @pytest.mark.parametrize("n", [16, 32, 96])
    def test_state_samples_are_the_stage_one_samples(self, n):
        # verify takes a snapshot's |u| from to_physical of its state, and
        # the monitors take theirs from the stage-1 kernel's |u|^2: the
        # pointwise |u|^2 of the one is the other, byte for byte, so
        # verify's Hoelder check reads simulate's ||u||_p
        g = Grid(n)
        U = solv.init_random_divfree(g, 5, -2.0, 1.0)
        stage_one = solv._nonlinear_half(g, U.kept)[2]
        values = to_physical(U).values
        assert np.einsum("cxyz,cxyz->xyz", values, values).tobytes() == stage_one.tobytes()

    def test_only_stage_one_takes_samples(self, monkeypatch):
        # each step's stage 1 takes samples for the CFL check and the
        # monitors; stages 2-4 take none, and the final sample takes one
        cfg = solv.SolverConfig(
            grid=Grid(16), mu=0.1, dt=1e-2, t_end=2e-2,
            init=solv.InitSpec("random_divfree", seed=2),
        )
        kernel, flags = solv.convective_core_half, []

        def recording_kernel(grid, kept, samples=True):
            out = kernel(grid, kept, samples)
            flags.append((samples, out[2] is not None, math.isnan(out[1])))
            return out

        monkeypatch.setattr(solv, "convective_core_half", recording_kernel)
        solv.run(cfg, basic_monitors(), solv.RunSink())
        stage_one, later = (True, True, False), (False, False, True)
        assert flags == [stage_one, later, later, later] * 2 + [stage_one]

    def test_stage_one_samples_freed_before_identity(self, monkeypatch):
        # at each quadrature, step 0's included, no stage-1 |u|^2 of
        # any earlier step is alive
        cfg = solv.SolverConfig(
            grid=Grid(16), mu=0.1, dt=1e-2, t_end=2e-2,
            init=solv.InitSpec("random_divfree", seed=2), snapshot_stride=1,
        )
        kernel, quadrature = solv.convective_core_half, crit.hessian_quadrature
        samples, alive = [], []

        def recording_kernel(grid, kept, with_samples=True):
            out = kernel(grid, kept, with_samples)
            if with_samples:
                samples.append(weakref.ref(out[2]))
            return out

        def checking_quadrature(u_hat, **kwargs):
            alive.append(any(ref() is not None for ref in samples))
            return quadrature(u_hat, **kwargs)

        monkeypatch.setattr(solv, "convective_core_half", recording_kernel)
        monkeypatch.setattr(crit, "hessian_quadrature", checking_quadrature)
        solv.run(cfg, basic_monitors(), solv.RunSink())
        assert alive == [False, False, False]

    def test_quadrature_runs_before_the_stage_one_term_from_step_one(self, monkeypatch):
        # a sampled state's quadrature runs before its stage-1 term from step
        # 0 on; the identity stride still picks the states that check the
        # identity: steps 0, 2 and the final step 3
        cfg = solv.SolverConfig(
            grid=Grid(16), mu=0.1, dt=1e-2, t_end=3e-2,
            init=solv.InitSpec("random_divfree", seed=2),
        )
        monitors = crit.CriterionConfig(pairs=(crit.SerrinPair(6.0, 4.0),), identity_stride=2)
        kernel, quadrature = solv.convective_core_half, crit.hessian_quadrature
        calls, quads = [], []

        def recording_kernel(grid, kept, samples=True):
            calls.append("stage 1" if samples else "stage")
            return kernel(grid, kept, samples)

        def recording_quadrature(u_hat, **kwargs):
            calls.append("quadrature")
            quads.append(quadrature(u_hat, **kwargs))
            return quads[-1]

        monkeypatch.setattr(solv, "convective_core_half", recording_kernel)
        monkeypatch.setattr(crit, "hessian_quadrature", recording_quadrature)
        series = solv.run(cfg, monitors, solv.RunSink())
        later = ["stage"] * 3
        assert calls == (
            ["quadrature", "stage 1", *later]
            + ["stage 1", *later]
            + ["quadrature", "stage 1", *later]
            + ["quadrature", "stage 1"]
        )
        residual = series.column("identity_residual")
        assert np.isnan(residual[1]) and (residual[[0, 2, 3]] <= 1e-8).all()
        # run() reads only the right side: no grid field of a quadrature is
        # held across the stage-1 term
        assert [q.hessian for q in quads] == [None] * 3

    def test_stage_one_samples_freed_before_the_rk_stages(self, monkeypatch):
        # steps 0 and 2 take a sample and a snapshot, steps 1 and 3 only a
        # snapshot; the final step 4 does not advance
        cfg = solv.SolverConfig(
            grid=Grid(16), mu=0.1, dt=1e-2, t_end=4e-2,
            init=solv.InitSpec("random_divfree", seed=2),
            monitor_stride=2, snapshot_stride=1,
        )
        kernel, advance = solv.convective_core_half, solv._advance
        samples, alive = [], []

        def recording_kernel(grid, kept, with_samples=True):
            out = kernel(grid, kept, with_samples)
            if with_samples:
                samples.append(weakref.ref(out[2]))
            return out

        def checking_advance(config, u_kept, nl1, u_max, t):
            alive.append(samples[-1]() is not None)
            return advance(config, u_kept, nl1, u_max, t)

        monkeypatch.setattr(solv, "convective_core_half", recording_kernel)
        monkeypatch.setattr(solv, "_advance", checking_advance)
        solv.run(cfg, basic_monitors(), solv.RunSink())
        assert alive == [False, False, False, False]


class TestCompactStep:
    """One and two RK4 steps on the compact cube, scattered back, equal the
    steps of ``reference.step_half`` on the half spectrum bit for bit; n =
    48 has the shell 3 max|k| = n that the 2/3 rule drops."""

    @pytest.mark.parametrize("steps", [1, 2])
    @pytest.mark.parametrize("n", [16, 32, 48, 64])
    def test_bitwise_equal_to_the_half_spectrum_step(self, n, steps):
        g = Grid(n)
        cfg = solv.SolverConfig(
            grid=g, mu=0.05, dt=1e-3, t_end=1e-3, init=solv.InitSpec("beltrami")
        )
        states = {
            "random_divfree": solv.init_random_divfree(g, 1, -3.0, 5.0),
            "taylor_green": solv.init_taylor_green(g, 1.0),
            "beltrami": solv.init_beltrami(g, 0.7),
        }
        for kind, U in states.items():
            want = reference.to_half(U)
            for _ in range(steps):
                U = step(U, cfg)
                want = reference.step_half(cfg, want)
            assert np.array_equal(reference.to_half(U), want), kind


class TestStep:
    def test_zero_state_stays_zero(self):
        g = Grid(8)
        cfg = solv.SolverConfig(
            grid=g, mu=0.1, dt=1e-2, t_end=0.0, init=solv.InitSpec("taylor_green")
        )
        zero = SpectralVelocityField(g, np.zeros((3,) + g.kept_shape, complex))
        assert np.all(reference.full(step(zero, cfg)) == 0.0)

    def test_beltrami_single_step_decay(self):
        mu, dt = 0.1, 1e-3
        cfg = solv.SolverConfig(
            grid=Grid(16), mu=mu, dt=dt, t_end=dt, init=solv.InitSpec("beltrami")
        )
        u0 = solv.make_initial(cfg)
        u1 = step(u0, cfg)
        expected = math.exp(-mu * dt) * reference.full(u0)
        rel = np.abs(reference.full(u1) - expected).max() / np.abs(reference.full(u0)).max()
        assert rel <= 1e-12

    def test_mean_momentum_constant(self):
        g = Grid(16)
        cfg = solv.SolverConfig(
            grid=g, mu=0.1, dt=1e-3, t_end=1e-3, init=solv.InitSpec("beltrami")
        )
        u = solv.make_initial(cfg)
        coeffs = reference.full(u).copy()
        coeffs[:, 0, 0, 0] = [0.05, -0.02, 0.01]
        U = SpectralVelocityField(g, reference.compact(g, coeffs))
        for _ in range(3):
            U = step(U, cfg)
        assert np.array_equal(reference.full(U)[:, 0, 0, 0], coeffs[:, 0, 0, 0])

    def test_cfl_recheck_raises(self):
        g = Grid(16)
        cfg = solv.SolverConfig(
            grid=g, mu=0.1, dt=1e-1, t_end=1e-1, init=solv.InitSpec("beltrami", amplitude=0.1)
        )
        huge = solv.init_beltrami(g, 100.0)
        with pytest.raises(solv.NumericalBlowup, match="CFL"):
            step(huge, cfg)

    def test_non_finite_state_raises(self):
        g = Grid(8)
        cfg = solv.SolverConfig(
            grid=g, mu=0.1, dt=1e-2, t_end=1e-2, init=solv.InitSpec("beltrami", amplitude=0.1)
        )
        bad = np.zeros((3,) + g.shape, complex)
        bad[0, 1, 0, 0] = 1e160  # overflows within the quadratic term
        bad[0, -1, 0, 0] = 1e160
        with pytest.raises(solv.NumericalBlowup):
            U = SpectralVelocityField(g, reference.compact(g, bad))
            for _ in range(50):
                U = step(U, cfg)


class TestRun:
    def test_zero_duration_yields_single_sample(self):
        cfg = solv.SolverConfig(
            grid=Grid(8), mu=0.1, dt=1e-2, t_end=0.0, init=solv.InitSpec("taylor_green")
        )
        series = solv.run(cfg, basic_monitors())
        assert len(series) == 1
        assert series.table["t"][0] == 0.0
        assert series.table["serrin_int_p6_s4"][0] == 0.0

    def test_taylor_green_energy_decay_short(self):
        mu = 0.1
        cfg = solv.SolverConfig(
            grid=Grid(16), mu=mu, dt=1e-3, t_end=0.05, init=solv.InitSpec("taylor_green")
        )
        series = solv.run(cfg, basic_monitors())
        t = series.column("t")
        e = series.column("energy")
        np.testing.assert_allclose(e / e[0], np.exp(-4 * mu * t), rtol=1e-10)

    def test_beltrami_l2_decay_short(self):
        mu = 0.2
        cfg = solv.SolverConfig(
            grid=Grid(16), mu=mu, dt=1e-3, t_end=0.05, init=solv.InitSpec("beltrami")
        )
        series = solv.run(cfg, basic_monitors())
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
        # stride hits plus the forced final sample, each at t = i * dt exactly
        assert list(series.table["t"]) == [i * 1e-2 for i in (0, 2, 4, 5)]

    def test_blowup_carries_partial_series(self, monkeypatch):
        cfg = solv.SolverConfig(
            grid=Grid(16), mu=0.1, dt=5e-2, t_end=0.5, init=solv.InitSpec("beltrami", amplitude=0.2)
        )

        def blowup(config, u_kept, nl1, u_max, t):
            raise solv.NumericalBlowup("synthetic blowup")

        # the first step blows up, after the step-0 sample
        monkeypatch.setattr(solv, "_advance", blowup)
        with pytest.raises(solv.NumericalBlowup) as exc_info:
            solv.run(cfg, basic_monitors())
        assert exc_info.value.series is not None
        assert len(exc_info.value.series) >= 1


class TestConvergenceOrder:
    def test_fourth_order_window_quick(self):
        # decay error on the curl eigenfield shrinks ~16x per dt halving
        mu, t_end = 2.0, 0.25
        errs = []
        for dt in (0.0125, 0.00625):
            cfg = solv.SolverConfig(
                grid=Grid(8), mu=mu, dt=dt, t_end=t_end, init=solv.InitSpec("beltrami")
            )
            U = solv.make_initial(cfg)
            u0 = reference.full(U).copy()
            for _ in range(int(round(t_end / dt))):
                U = step(U, cfg)
            exact = math.exp(-mu * t_end) * u0
            errs.append(np.abs(reference.full(U) - exact).max())
        assert 13.0 <= errs[0] / errs[1] <= 19.0
