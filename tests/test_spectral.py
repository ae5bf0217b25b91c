"""Spectral operator tests against analytic oracles.

Derived expected values are verified by independent oracles (direct DFT
summation, analytic derivatives sampled on the grid) before being asserted.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regcrit import spectral as spec
from regcrit.solver import init_beltrami, init_random_divfree

TWO_PI = 2.0 * np.pi


def scalar_field(grid, fn):
    X, Y, Z = grid.meshes()
    return spec.RealScalarField(grid, fn(X, Y, Z))


def random_scalar(grid, seed):
    rng = np.random.default_rng(seed)
    return spec.RealScalarField(grid, rng.standard_normal(grid.shape))


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
            kept = bool(g.dealias_mask[i, 0, 0])
            assert kept == (abs(m) <= 16 / 3)

    def test_deriv_modes_drop_nyquist(self):
        g = spec.Grid(8)
        assert g.integer_modes[4] == -4
        assert g.deriv_modes[4] == 0


class TestFFT:
    def test_constant_field_is_mean_only(self):
        g = spec.Grid(8)
        F = spec.fft_forward(spec.RealScalarField(g, np.full(g.shape, 3.25)))
        assert F.coefficients[0, 0, 0] == pytest.approx(3.25, abs=1e-14)
        rest = np.abs(F.coefficients).sum() - abs(F.coefficients[0, 0, 0])
        assert rest < 1e-13

    def test_sine_coefficients_match_direct_dft(self):
        g = spec.Grid(8)
        f = scalar_field(g, lambda x, y, z: np.sin(x))
        F = spec.fft_forward(f)
        # analytic series: sin x = -i/2 e^{ix} + i/2 e^{-ix}
        assert F.coefficients[1, 0, 0] == pytest.approx(-0.5j, abs=1e-14)
        assert F.coefficients[-1, 0, 0] == pytest.approx(0.5j, abs=1e-14)
        # independent oracle: direct DFT summation
        assert direct_dft_mode(f.values, (1, 0, 0)) == pytest.approx(-0.5j, abs=1e-13)
        others = np.abs(F.coefficients).sum() - 1.0
        assert others < 1e-12

    def test_single_mode_pair_inverts_to_sine(self):
        g = spec.Grid(8)
        c = np.zeros(g.shape, dtype=complex)
        c[1, 0, 0] = -0.5j
        c[-1, 0, 0] = 0.5j
        f = spec.fft_inverse(spec.SpectralScalarField(g, c))
        expected = np.sin(g.meshes()[0])
        np.testing.assert_allclose(f.values, expected, atol=1e-14)

    def test_zero_inverts_to_zero(self):
        g = spec.Grid(8)
        f = spec.fft_inverse(spec.SpectralScalarField(g, np.zeros(g.shape, complex)))
        assert np.all(f.values == 0.0)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_round_trip(self, seed):
        g = spec.Grid(8)
        f = random_scalar(g, seed)
        back = spec.fft_inverse(spec.fft_forward(f))
        scale = np.abs(f.values).max()
        assert np.abs(back.values - f.values).max() <= 1e-13 * scale

    def test_non_hermitian_rejected(self):
        g = spec.Grid(8)
        c = np.zeros(g.shape, dtype=complex)
        c[1, 0, 0] = 1.0  # no conjugate partner
        with pytest.raises(spec.NonHermitianInput):
            spec.fft_inverse(spec.SpectralScalarField(g, c))

    def test_non_mirrored_planes_rejected(self):
        g = spec.Grid(8)
        # interior plane: kz = -1 is dropped on construction, so it must
        # mirror kz = 1 there
        c = np.zeros(g.shape, dtype=complex)
        c[1, 2, 1] = 1.0
        c[-1, -2, -1] = 0.5  # should be conj(c[1, 2, 1]) = 1.0
        with pytest.raises(spec.NonHermitianInput):
            spec.SpectralScalarField(g, c)
        c[-1, -2, -1] = 1.0
        assert spec.SpectralScalarField(g, c).coefficients[-1, -2, -1] == 1.0
        # the kz = n/2 plane is stored whole; the inverse transform checks it
        c = np.zeros(g.shape, dtype=complex)
        c[1, 0, 4] = 1.0
        with pytest.raises(spec.NonHermitianInput):
            spec.fft_inverse(spec.SpectralScalarField(g, c))

    def test_plancherel_fixed_normalization(self):
        g = spec.Grid(16, length=2.0)
        f = random_scalar(g, 7)
        F = spec.fft_forward(f)
        phys = np.sum(f.values**2) * g.cell_volume
        spectral_side = np.sum(np.abs(F.coefficients) ** 2) * g.volume
        assert spectral_side == pytest.approx(phys, rel=1e-12)


class TestDerivatives:
    def test_gradient_of_sine(self):
        g = spec.Grid(16)
        F = spec.fft_forward(scalar_field(g, lambda x, y, z: np.sin(x)))
        grad = spec.gradient(F)
        gx = spec.ifftn_real(grad.coefficients[0])
        X = g.meshes()[0]
        np.testing.assert_allclose(gx, np.cos(X), atol=1e-13)
        assert np.abs(grad.coefficients[1:]).max() < 1e-14

    def test_gradient_of_constant_is_zero(self):
        g = spec.Grid(8)
        F = spec.fft_forward(spec.RealScalarField(g, np.full(g.shape, 2.5)))
        assert np.abs(spec.gradient(F).coefficients).max() < 1e-14

    def test_second_derivative_of_sine(self):
        g = spec.Grid(16)
        F = spec.fft_forward(scalar_field(g, lambda x, y, z: np.sin(x)))
        gxx = spec.gradient(F).coefficients[0]
        gxx = spec.gradient(spec.SpectralScalarField(g, gxx)).coefficients[0]
        X = g.meshes()[0]
        np.testing.assert_allclose(spec.ifftn_real(gxx), -np.sin(X), atol=1e-12)

    def test_mixed_partials_commute(self):
        g = spec.Grid(8)
        F = spec.fft_forward(random_scalar(g, 3))
        dx = spec.gradient(F).coefficients[0]
        dxy = spec.gradient(spec.SpectralScalarField(g, dx)).coefficients[1]
        dy = spec.gradient(F).coefficients[1]
        dyx = spec.gradient(spec.SpectralScalarField(g, dy)).coefficients[0]
        assert np.abs(dxy - dyx).max() <= 1e-15 * max(np.abs(dxy).max(), 1.0)

    def test_second_derivative_table_is_symmetric(self):
        g = spec.Grid(8)
        U = init_random_divfree(g, 5, -2.0, 1.0)
        d2 = spec.second_derivatives(U)
        for i in range(3):
            for j in range(3):
                assert np.array_equal(d2[i, j], d2[j, i])

    def test_sobolev_identity_against_tensor(self):
        # sum_k |k|^4 |u|^2 equals the Frobenius norm of the full tensor
        g = spec.Grid(16)
        U = init_random_divfree(g, 11, -2.0, 1.0)
        d2 = spec.second_derivatives(U)
        quad = np.sum(d2**2) * g.cell_volume
        k4 = g.k_squared**2
        plancherel = g.volume * np.sum(k4 * np.abs(U.coefficients) ** 2)
        assert quad == pytest.approx(plancherel, rel=1e-11)


class TestCurlDivergence:
    def test_curl_of_axial_sine(self):
        g = spec.Grid(16)
        u = np.zeros((3,) + g.shape)
        X = g.meshes()[0]
        u[2] = np.sin(X)
        w = spec.curl(spec.fft_forward(spec.VelocityField(g, u)))
        wy = spec.ifftn_real(w.coefficients[1])
        np.testing.assert_allclose(wy, -np.cos(X), atol=1e-13)
        assert np.abs(w.coefficients[0]).max() < 1e-14
        assert np.abs(w.coefficients[2]).max() < 1e-14

    def test_divergence_oracles(self):
        g = spec.Grid(16)
        X, Y, _ = g.meshes()
        u = np.zeros((3,) + g.shape)
        u[0] = np.sin(Y)
        d = spec.divergence(spec.fft_forward(spec.VelocityField(g, u)))
        assert np.abs(d.coefficients).max() < 1e-14
        u[0] = np.sin(X)
        d = spec.divergence(spec.fft_forward(spec.VelocityField(g, u)))
        np.testing.assert_allclose(spec.ifftn_real(d.coefficients), np.cos(X), atol=1e-13)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_curl_grad_and_div_curl_vanish(self, seed):
        g = spec.Grid(8)
        F = spec.fft_forward(random_scalar(g, seed))
        cg = spec.curl(spec.gradient(F))
        scale = max(np.abs(F.coefficients).max(), 1.0)
        assert np.abs(cg.coefficients).max() <= 1e-12 * scale
        U = init_random_divfree(g, seed, -1.0, 1.0)
        dc = spec.divergence(spec.curl(U))
        assert np.abs(dc.coefficients).max() <= 1e-12

    def test_curl_of_beltrami_is_identity(self):
        g = spec.Grid(16)
        U = init_beltrami(g, 1.3)
        W = spec.curl(U)
        assert np.abs(W.coefficients - U.coefficients).max() < 1e-13


class TestLeray:
    def test_annihilates_gradients(self):
        g = spec.Grid(16)
        F = spec.fft_forward(random_scalar(g, 2))
        grad = spec.gradient(F)
        out = spec.leray_project(grad)
        assert np.abs(out.coefficients).max() <= 1e-13 * np.abs(grad.coefficients).max()

    def test_idempotent(self):
        g = spec.Grid(16)
        rng = np.random.default_rng(4)
        U = spec.fft_forward(spec.VelocityField(g, rng.standard_normal((3,) + g.shape)))
        once = spec.leray_project(U)
        twice = spec.leray_project(once)
        assert np.abs(twice.coefficients - once.coefficients).max() <= 1e-13 * np.abs(
            once.coefficients
        ).max()

    def test_beltrami_unchanged(self):
        g = spec.Grid(16)
        U = init_beltrami(g, 1.0)
        out = spec.leray_project(U)
        assert np.abs(out.coefficients - U.coefficients).max() <= 1e-13

    def test_projected_field_is_divergence_free(self):
        g = spec.Grid(16)
        rng = np.random.default_rng(9)
        U = spec.fft_forward(spec.VelocityField(g, rng.standard_normal((3,) + g.shape)))
        P = spec.leray_project(U)
        div = spec.divergence(P)
        norm = math.sqrt(np.sum(np.abs(P.coefficients) ** 2))
        assert np.abs(div.coefficients).max() <= 1e-12 * norm

    def test_self_adjoint(self):
        g = spec.Grid(8)
        rng = np.random.default_rng(12)
        U = spec.fft_forward(spec.VelocityField(g, rng.standard_normal((3,) + g.shape)))
        V = spec.fft_forward(spec.VelocityField(g, rng.standard_normal((3,) + g.shape)))
        lhs = spec.spectral_inner(spec.leray_project(U), V)
        rhs = spec.spectral_inner(U, spec.leray_project(V))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_mean_mode_passes_through(self):
        g = spec.Grid(8)
        c = np.zeros((3,) + g.shape, dtype=complex)
        c[:, 0, 0, 0] = [1.0, 2.0, -3.0]
        out = spec.leray_project(spec.SpectralVelocityField(g, c))
        assert np.array_equal(out.coefficients[:, 0, 0, 0], c[:, 0, 0, 0])


class TestDealias:
    def test_low_mode_unchanged_high_mode_zeroed(self):
        g = spec.Grid(16)
        c = np.zeros(g.shape, dtype=complex)
        c[1, 0, 0] = 1.0 - 2.0j
        out = spec.dealias(spec.SpectralScalarField(g, c))
        assert out.coefficients[1, 0, 0] == c[1, 0, 0]
        c2 = np.zeros(g.shape, dtype=complex)
        c2[7, 0, 0] = 1.0
        out2 = spec.dealias(spec.SpectralScalarField(g, c2))
        assert out2.coefficients[7, 0, 0] == 0.0

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_contraction(self, seed):
        g = spec.Grid(8)
        F = spec.fft_forward(random_scalar(g, seed))
        out = spec.dealias(F)
        assert np.sum(np.abs(out.coefficients) ** 2) <= np.sum(
            np.abs(F.coefficients) ** 2
        )


class TestHalfSpectrum:
    def test_full_from_half_round_trip(self):
        g = spec.Grid(16)
        full = init_random_divfree(g, 21, -2.0, 1.0).coefficients
        U = spec.SpectralVelocityField(g, full)
        assert U.half.shape == (3,) + g.half_shape
        assert np.array_equal(U.coefficients, full)

    def test_convective_matches_full_cube_route(self):
        g = spec.Grid(16)
        U = init_random_divfree(g, 22, -2.0, 1.0)
        w = spec.convective(U)
        mask = g.dealias_mask
        ud = U.coefficients * mask
        ik = g.ik_axes
        up = spec.ifftn_real(ud)
        grads = np.stack([spec.ifftn_real(ik[a] * ud) for a in range(3)])
        ref = spec.fftn(np.einsum("mxyz,mcxyz->cxyz", up, grads)) * mask
        assert np.abs(w.coefficients - ref).max() <= 1e-13 * max(np.abs(ref).max(), 1e-30)


class TestResample:
    def test_band_limited_round_trip(self):
        g = spec.Grid(16)
        U = init_random_divfree(g, 8, -2.0, 1.0)
        up = spec.resample(U, 32)
        back = spec.resample(up, 16)
        assert np.abs(back.coefficients - U.coefficients).max() <= 1e-14

    def test_refinement_preserves_samples_on_common_points(self):
        g = spec.Grid(8)
        f = scalar_field(g, lambda x, y, z: np.sin(x) + np.cos(2 * y))
        F = spec.fft_forward(f)
        fine = spec.resample(F, 16)
        fine_phys = spec.ifftn_real(fine.coefficients)
        np.testing.assert_allclose(fine_phys[::2, ::2, ::2], f.values, atol=1e-13)
