"""Spectral operator tests against analytic oracles.

Derived expected values are verified by independent oracles (direct DFT
summation, analytic derivatives sampled on the grid) before being asserted.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from regcrit import spectral as spec
from regcrit.solver import init_beltrami, init_random_divfree

TWO_PI = 2.0 * np.pi


def scalar_field(grid, fn):
    X, Y, Z = grid.meshes()
    return spec.RealScalarField(grid, fn(X, Y, Z))


def random_scalar(grid, seed):
    rng = np.random.default_rng(seed)
    return spec.RealScalarField(grid, rng.standard_normal(grid.shape))


def random_vector(grid, seed):
    rng = np.random.default_rng(seed)
    return spec.VelocityField(grid, rng.standard_normal((3,) + grid.shape))


def x_component(grid, fn):
    """The spectrum of u = (fn(x, y, z), 0, 0)."""
    u = np.zeros((3,) + grid.shape)
    u[0] = fn(*grid.meshes())
    return spec.fft_forward(spec.VelocityField(grid, u))


def gradient_field(F):
    """grad f of a spectral scalar f, built on the full-cube route."""
    g = F.grid
    full = reference.full(F)
    return spec.SpectralVelocityField(
        g, reference.half(g, np.stack([ik * full for ik in reference.ik_axes(g)]))
    )


def vorticity(U):
    """Grid samples of curl u, as the commands take them from the kernel."""
    return spec.convective_core_half(U.grid, U.half)[3]


def direct_dft_mode(values, kvec):
    """Single Fourier coefficient by explicit summation (independent oracle)."""
    n = values.shape[0]
    idx = np.arange(n)
    X, Y, Z = np.meshgrid(idx, idx, idx, indexing="ij")
    phase = np.exp(-2j * np.pi * (kvec[0] * X + kvec[1] * Y + kvec[2] * Z) / n)
    return np.sum(values * phase) / n**3


class TestGrid:
    def test_invariants(self):
        with pytest.raises(ValueError):
            spec.Grid(3)
        with pytest.raises(ValueError):
            spec.Grid(7)
        with pytest.raises(ValueError):
            spec.Grid(8, length=0.0)
        g = spec.Grid(8, length=1.0)
        assert g.spacing == pytest.approx(0.125)

    def test_dealias_mask_cutoff(self):
        g = spec.Grid(16)
        modes = g.integer_modes
        for i, m in enumerate(modes):
            kept = bool(reference.dealias_mask(g)[i, 0, 0])
            assert kept == (abs(m) <= 16 / 3)

    @pytest.mark.parametrize("n", [12, 24, 96])
    def test_dealias_mask_strict_when_three_divides_n(self, n):
        # max|k| = n/3 would receive the alias of the product mode 2n/3
        g = spec.Grid(n)
        kept = reference.dealias_mask(g)[:, 0, 0]
        assert not kept[n // 3] and not kept[-(n // 3)]
        assert kept[n // 3 - 1] and kept[-(n // 3 - 1)]
        assert g.dealias_mask_half[0, 0, n // 3 - 1] and not g.dealias_mask_half[0, 0, n // 3]

    def test_deriv_modes_drop_nyquist(self):
        g = spec.Grid(8)
        assert g.integer_modes[4] == -4
        assert g.deriv_modes[4] == 0

    @pytest.mark.parametrize("length", [math.inf, -math.inf, math.nan])
    def test_non_finite_length_rejected(self, length):
        with pytest.raises(ValueError, match="finite"):
            spec.Grid(8, length=length)

    @pytest.mark.parametrize("length", [TWO_PI, 2.0])
    @pytest.mark.parametrize("n", [8, 12, 16, 24, 32, 48, 64, 96])
    def test_half_arrays_are_the_full_cube_tables_sliced(self, n, length):
        # built directly on the half spectrum, bit for bit the kz >= 0 planes
        # of the full-cube tables
        g = spec.Grid(n, length)
        h = g.half
        kx, ky, kz = reference.wavenumbers(g)
        for half_axis, full_axis in zip(g.wavenumbers_half, (kx, ky, kz[..., :h])):
            assert half_axis.shape == full_axis.shape
            assert np.array_equal(half_axis, full_axis)
        k2 = reference.k_squared(g)
        mask = reference.dealias_mask(g)
        assert np.array_equal(g.k_squared_half, k2[..., :h])
        assert np.array_equal(g.dealias_mask_half, mask[..., :h])
        assert g.k_squared_max_retained == float((k2 * mask).max())


class TestConstructors:
    def test_full_cube_rejected(self):
        g = spec.Grid(8)
        with pytest.raises(ValueError, match="half spectrum"):
            spec.SpectralScalarField(g, np.zeros(g.shape, complex))
        with pytest.raises(ValueError, match="half spectrum"):
            spec.SpectralVelocityField(g, np.zeros((3,) + g.shape, complex))

    def test_half_spectrum_taken_as_is(self):
        g = spec.Grid(8)
        half = np.ones((3,) + g.half_shape, complex)
        assert spec.SpectralVelocityField(g, half).half is half
        with pytest.raises(ValueError, match="half spectrum"):
            spec.SpectralVelocityField(g, half[0])
        with pytest.raises(ValueError, match="half spectrum"):
            spec.SpectralScalarField(g, half)


class TestFFT:
    def test_constant_field_is_mean_only(self):
        g = spec.Grid(8)
        F = spec.fft_forward(spec.RealScalarField(g, np.full(g.shape, 3.25)))
        assert reference.full(F)[0, 0, 0] == pytest.approx(3.25, abs=1e-14)
        rest = np.abs(reference.full(F)).sum() - abs(reference.full(F)[0, 0, 0])
        assert rest < 1e-13

    def test_sine_coefficients_match_direct_dft(self):
        g = spec.Grid(8)
        f = scalar_field(g, lambda x, y, z: np.sin(x))
        F = spec.fft_forward(f)
        # analytic series: sin x = -i/2 e^{ix} + i/2 e^{-ix}
        assert reference.full(F)[1, 0, 0] == pytest.approx(-0.5j, abs=1e-14)
        assert reference.full(F)[-1, 0, 0] == pytest.approx(0.5j, abs=1e-14)
        # independent oracle: direct DFT summation
        assert direct_dft_mode(f.values, (1, 0, 0)) == pytest.approx(-0.5j, abs=1e-13)
        others = np.abs(reference.full(F)).sum() - 1.0
        assert others < 1e-12

    def test_single_mode_pair_inverts_to_sine(self):
        g = spec.Grid(8)
        c = np.zeros(g.shape, dtype=complex)
        c[1, 0, 0] = -0.5j
        c[-1, 0, 0] = 0.5j
        f = spec.irfftn_real(reference.half(g, c), g.n)
        expected = np.sin(g.meshes()[0])
        np.testing.assert_allclose(f, expected, atol=1e-14)

    def test_zero_inverts_to_zero(self):
        g = spec.Grid(8)
        f = spec.irfftn_real(np.zeros(g.half_shape, complex), g.n)
        assert np.all(f == 0.0)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_round_trip(self, seed):
        g = spec.Grid(8)
        f = random_scalar(g, seed)
        back = spec.irfftn_real(spec.fft_forward(f).half, g.n)
        scale = np.abs(f.values).max()
        assert np.abs(back - f.values).max() <= 1e-13 * scale

    def test_non_mirrored_planes_rejected(self):
        g = spec.Grid(8)
        # interior plane: kz = -1 is dropped when the half spectrum is taken,
        # so it must mirror kz = 1 there
        c = np.zeros(g.shape, dtype=complex)
        c[1, 2, 1] = 1.0
        c[-1, -2, -1] = 0.5  # should be conj(c[1, 2, 1]) = 1.0
        with pytest.raises(reference.NonHermitianInput):
            reference.half(g, c)
        c[-1, -2, -1] = 1.0
        assert reference.full(spec.SpectralScalarField(g, reference.half(g, c)))[-1, -2, -1] == 1.0

    def test_plancherel_fixed_normalization(self):
        g = spec.Grid(16, length=2.0)
        f = random_scalar(g, 7)
        F = spec.fft_forward(f)
        phys = np.sum(f.values**2) * g.cell_volume
        spectral_side = np.sum(np.abs(reference.full(F)) ** 2) * g.volume
        assert spectral_side == pytest.approx(phys, rel=1e-12)


class TestDerivatives:
    def test_gradient_of_sine(self):
        g = spec.Grid(16)
        d = spec.first_derivatives(x_component(g, lambda x, y, z: np.sin(x)))
        X = g.meshes()[0]
        np.testing.assert_allclose(d[0, 0], np.cos(X), atol=1e-13)
        assert np.abs(d[1:]).max() < 1e-14
        assert np.abs(d[:, 1:]).max() < 1e-14

    def test_gradient_of_constant_is_zero(self):
        g = spec.Grid(8)
        d = spec.first_derivatives(x_component(g, lambda x, y, z: np.full(x.shape, 2.5)))
        assert np.abs(d).max() < 1e-14

    def test_second_derivative_of_sine(self):
        g = spec.Grid(16)
        d2 = spec.second_derivatives(x_component(g, lambda x, y, z: np.sin(x)))
        X = g.meshes()[0]
        np.testing.assert_allclose(d2[spec.PAIR[0][0], 0], -np.sin(X), atol=1e-12)

    def test_mixed_partials_commute(self):
        g = spec.Grid(8)
        d = spec.first_derivatives(spec.fft_forward(random_vector(g, 3)))
        dxy = spec.first_derivatives(spec.fft_forward(spec.VelocityField(g, d[0])))[1]
        dyx = spec.first_derivatives(spec.fft_forward(spec.VelocityField(g, d[1])))[0]
        assert np.abs(dxy - dyx).max() <= 1e-15 * max(np.abs(dxy).max(), 1.0)

    def test_second_derivative_table_is_symmetric(self):
        # (i, j) and (j, i) read one row of the pair table, bitwise the
        # entries of the 27-entry table
        g = spec.Grid(8)
        U = init_random_divfree(g, 5, -2.0, 1.0)
        d2 = spec.second_derivatives(U)
        assert d2.shape == (6, 3) + g.shape
        assert spec.HESSIAN_PAIRS == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
        full = reference.hessian_table(U)
        for i in range(3):
            for j in range(3):
                assert spec.PAIR[i][j] == spec.PAIR[j][i]
                assert np.array_equal(d2[spec.PAIR[i][j]], full[i, j])

    def test_sobolev_identity_against_tensor(self):
        # sum_k |k|^4 |u|^2 equals the Frobenius norm of the full tensor,
        # whose off-diagonal pairs each stand for two entries
        g = spec.Grid(16)
        U = init_random_divfree(g, 11, -2.0, 1.0)
        d2 = spec.second_derivatives(U)
        weights = np.array([1.0 if i == j else 2.0 for i, j in spec.HESSIAN_PAIRS])
        quad = np.sum(weights[:, None, None, None, None] * d2**2) * g.cell_volume
        k4 = reference.k_squared(g) ** 2
        plancherel = g.volume * np.sum(k4 * np.abs(reference.full(U)) ** 2)
        assert quad == pytest.approx(plancherel, rel=1e-11)


class TestCurlDivergence:
    def test_curl_of_axial_sine(self):
        g = spec.Grid(16)
        u = np.zeros((3,) + g.shape)
        X = g.meshes()[0]
        u[2] = np.sin(X)
        w = vorticity(spec.fft_forward(spec.VelocityField(g, u)))
        np.testing.assert_allclose(w[1], -np.cos(X), atol=1e-13)
        assert np.abs(w[0]).max() < 1e-14
        assert np.abs(w[2]).max() < 1e-14

    def test_divergence_oracles(self):
        g = spec.Grid(16)
        X, Y, _ = g.meshes()
        u = np.zeros((3,) + g.shape)
        u[0] = np.sin(Y)
        d = spec.divergence(spec.fft_forward(spec.VelocityField(g, u)))
        assert np.abs(reference.full(d)).max() < 1e-14
        u[0] = np.sin(X)
        d = spec.divergence(spec.fft_forward(spec.VelocityField(g, u)))
        np.testing.assert_allclose(reference.ifftn_real(reference.full(d)), np.cos(X), atol=1e-13)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_curl_grad_and_div_curl_vanish(self, seed):
        g = spec.Grid(8)
        F = spec.fft_forward(random_scalar(g, seed))
        cg = vorticity(gradient_field(F))
        scale = max(np.abs(reference.full(F)).max(), 1.0)
        assert np.abs(cg).max() <= 1e-12 * scale
        U = init_random_divfree(g, seed, -1.0, 1.0)
        dc = spec.divergence(spec.fft_forward(spec.VelocityField(g, vorticity(U))))
        assert np.abs(reference.full(dc)).max() <= 1e-12

    def test_curl_of_beltrami_is_identity(self):
        g = spec.Grid(16)
        U = init_beltrami(g, 1.3)
        _, _, u, w = spec.convective_core_half(g, U.half)
        assert np.abs(w - u).max() < 1e-13


class TestLeray:
    def test_annihilates_gradients(self):
        g = spec.Grid(16)
        grad = gradient_field(spec.fft_forward(random_scalar(g, 2)))
        out = spec.leray_project(grad)
        assert np.abs(reference.full(out)).max() <= 1e-13 * np.abs(reference.full(grad)).max()

    def test_idempotent(self):
        g = spec.Grid(16)
        rng = np.random.default_rng(4)
        U = spec.fft_forward(spec.VelocityField(g, rng.standard_normal((3,) + g.shape)))
        once = spec.leray_project(U)
        twice = spec.leray_project(once)
        assert np.abs(reference.full(twice) - reference.full(once)).max() <= 1e-13 * np.abs(
            reference.full(once)
        ).max()

    def test_beltrami_unchanged(self):
        g = spec.Grid(16)
        U = init_beltrami(g, 1.0)
        out = spec.leray_project(U)
        assert np.abs(reference.full(out) - reference.full(U)).max() <= 1e-13

    def test_projected_field_is_divergence_free(self):
        g = spec.Grid(16)
        rng = np.random.default_rng(9)
        U = spec.fft_forward(spec.VelocityField(g, rng.standard_normal((3,) + g.shape)))
        P = spec.leray_project(U)
        div = spec.divergence(P)
        norm = math.sqrt(np.sum(np.abs(reference.full(P)) ** 2))
        assert np.abs(reference.full(div)).max() <= 1e-12 * norm

    def test_self_adjoint(self):
        g = spec.Grid(8)
        rng = np.random.default_rng(12)
        U = spec.fft_forward(spec.VelocityField(g, rng.standard_normal((3,) + g.shape)))
        V = spec.fft_forward(spec.VelocityField(g, rng.standard_normal((3,) + g.shape)))
        lhs = reference.spectral_inner(spec.leray_project(U), V)
        rhs = reference.spectral_inner(U, spec.leray_project(V))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_mean_mode_passes_through(self):
        g = spec.Grid(8)
        c = np.zeros((3,) + g.shape, dtype=complex)
        c[:, 0, 0, 0] = [1.0, 2.0, -3.0]
        out = spec.leray_project(spec.SpectralVelocityField(g, reference.half(g, c)))
        assert np.array_equal(reference.full(out)[:, 0, 0, 0], c[:, 0, 0, 0])


class TestDealias:
    def test_low_mode_unchanged_high_mode_zeroed(self):
        g = spec.Grid(16)
        c = np.zeros(g.shape, dtype=complex)
        c[1, 0, 0] = 1.0 - 2.0j
        out = reference.half(g, c) * g.dealias_mask_half
        assert out[1, 0, 0] == c[1, 0, 0]
        c2 = np.zeros(g.shape, dtype=complex)
        c2[7, 0, 0] = 1.0
        out2 = reference.half(g, c2) * g.dealias_mask_half
        assert out2[7, 0, 0] == 0.0

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_contraction(self, seed):
        g = spec.Grid(8)
        F = spec.fft_forward(random_scalar(g, seed))
        out = spec.SpectralScalarField(g, F.half * g.dealias_mask_half)
        assert np.sum(np.abs(reference.full(out)) ** 2) <= np.sum(
            np.abs(reference.full(F)) ** 2
        )


class TestHalfSpectrum:
    def test_full_from_half_round_trip(self):
        g = spec.Grid(16)
        full = reference.full(init_random_divfree(g, 21, -2.0, 1.0))
        U = spec.SpectralVelocityField(g, reference.half(g, full))
        assert U.half.shape == (3,) + g.half_shape
        assert np.array_equal(reference.full(U), full)

    def test_convective_matches_full_cube_route(self):
        # the kernel's form may differ from (u . grad) u by a gradient, which
        # the Leray projection removes
        for n in (16, 32, 96):
            g = spec.Grid(n)
            U = init_random_divfree(g, 22, -2.0, 1.0)
            w = spec.convective_core_half(g, U.half)[0]
            mask = reference.dealias_mask(g)
            ud = reference.full(U) * mask
            up = reference.ifftn_real(ud)
            conv = np.zeros_like(up)
            for a, ik in enumerate(reference.ik_axes(g)):
                conv += up[a] * reference.ifftn_real(ik * ud)
            ref = spec.leray_project(
                spec.SpectralVelocityField(g, reference.half(g, reference.fftn(conv) * mask))
            ).half
            out = spec.leray_project(spec.SpectralVelocityField(g, w)).half
            assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


class TestResample:
    def test_band_limited_round_trip(self):
        g = spec.Grid(16)
        U = init_random_divfree(g, 8, -2.0, 1.0)
        up = reference.resample(U, 32)
        back = reference.resample(up, 16)
        assert np.abs(reference.full(back) - reference.full(U)).max() <= 1e-14

    def test_refinement_preserves_samples_on_common_points(self):
        g = spec.Grid(8)
        f = scalar_field(g, lambda x, y, z: np.sin(x) + np.cos(2 * y))
        F = spec.fft_forward(f)
        fine = reference.resample(F, 16)
        fine_phys = reference.ifftn_real(reference.full(fine))
        np.testing.assert_allclose(fine_phys[::2, ::2, ::2], f.values, atol=1e-13)
