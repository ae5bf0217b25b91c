"""Spectral operator tests against analytic oracles.

Derived expected values are verified by independent oracles (direct DFT
summation, analytic derivatives sampled on the grid) before being asserted.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as scipy_fft

import reference
from regcrit import criteria as crit
from regcrit import solver as solv
from regcrit import spectral as spec
from regcrit.solver import init_beltrami, init_random_divfree

TWO_PI = 2.0 * np.pi


def scalar_field(grid, fn):
    X, Y, Z = reference.meshes(grid)
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
    u[0] = fn(*reference.meshes(grid))
    return spec.fft_forward(spec.VelocityField(grid, u))


def gradient_field(F):
    """grad f of a spectral scalar f, built on the full-cube route."""
    g = F.grid
    full = reference.full(F)
    return spec.SpectralVelocityField(
        g, reference.compact(g, np.stack([ik * full for ik in reference.ik_axes(g)]))
    )


def streamed_tables(U):
    """The gradient table d[a, c] = d u_c / dx_a, shape (3, 3, n, n, n), and
    the pair table d2[PAIR[i][j], c], shape (6, 3, n, n, n), as
    ``derivative_slabs`` gives them, slab by slab into whole tables."""
    g = U.grid
    d1 = np.empty((3, 3) + g.shape)
    d2 = np.empty((6, 3) + g.shape)
    for x0, x1, grads, hess in spec.derivative_slabs(U):
        d1[:, :, x0:x1] = grads.reshape((3, 3, x1 - x0) + g.shape[1:])
        for idx, (i, j) in enumerate(spec.HESSIAN_PAIRS):
            d2[idx, :, x0:x1] = hess[i][j].reshape((3, x1 - x0) + g.shape[1:])
    return d1, d2


def assert_roundoff(got, want):
    """``got`` is ``want`` to roundoff: within 1e-15 of its largest value.
    The stream applies the k_y and k_z factors after the x pass, where the
    full transforms apply them before it; the two differ by at most 4.7e-16
    of the largest value on the states of these tests."""
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def gradients(U):
    return streamed_tables(U)[0]


def pair_table(U):
    return streamed_tables(U)[1]


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
        # 16.0 would pass the size checks and fail later, in np.fft.fftfreq
        for n in (16.0, True, "16"):
            with pytest.raises(ValueError, match="not an integer"):
                spec.Grid(n)
        assert spec.Grid(np.int64(16)).integer_modes.size == 16
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
        assert g.kept_max == n // 3 - 1

    def test_deriv_modes_drop_nyquist(self):
        # the derivative tables zero the Nyquist mode; the compact cube never
        # holds it, since m < n/2
        g = spec.Grid(8)
        assert g.integer_modes[4] == -4
        assert reference.deriv_modes(g)[4] == 0
        assert 4 not in g.kept_index

    @pytest.mark.parametrize("length", [math.inf, -math.inf, math.nan])
    def test_non_finite_length_rejected(self, length):
        with pytest.raises(ValueError, match="finite"):
            spec.Grid(8, length=length)

    @pytest.mark.parametrize("length", [TWO_PI, 2.0])
    @pytest.mark.parametrize("n", [8, 12, 16, 24, 32, 48, 64, 96])
    def test_half_arrays_are_the_full_cube_tables_sliced(self, n, length):
        # the compact-cube tables are, bit for bit, the full-cube tables at
        # the kept modes
        g = spec.Grid(n, length)
        k = np.stack(np.broadcast_arrays(*reference.wavenumbers(g)))
        for compact, full in zip(g.wavevector, k):
            assert compact.shape == g.kept_shape
            assert np.array_equal(compact, reference.to_kept(g, full[..., : g.half]))
        k2 = reference.k_squared(g)
        mask = reference.dealias_mask(g)
        assert np.array_equal(g.k_squared, reference.to_kept(g, k2[..., : g.half]))
        assert g.k_squared_max_retained == float((k2 * mask).max())

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16, 18, 24, 32, 48, 64, 96])
    def test_kept_blocks_are_the_dealias_mask(self, n):
        # the compact cube holds exactly the modes the dealias mask keeps,
        # in FFT storage order, with m = (n - 1) // 3 < n/2
        g = spec.Grid(n)
        m = g.kept_max
        assert g.kept_shape == (2 * m + 1, 2 * m + 1, m + 1) and 2 * m < n
        assert list(g.integer_modes[g.kept_index]) == [*range(m + 1), *range(-m, 0)]
        ones = spec.SpectralScalarField(g, np.ones(g.kept_shape, complex))
        assert np.array_equal(reference.to_half(ones) == 1, reference.dealias_mask_half(g))


class TestConstructors:
    def test_full_cube_rejected(self):
        g = spec.Grid(8)
        with pytest.raises(ValueError, match="kept modes"):
            spec.SpectralScalarField(g, np.zeros(g.shape, complex))
        with pytest.raises(ValueError, match="kept modes"):
            spec.SpectralVelocityField(g, np.zeros((3,) + g.shape, complex))

    @pytest.mark.parametrize("n", [8, 16, 48])
    def test_half_spectrum_rejected_in_one_line(self, n):
        g = spec.Grid(n)
        for cls, lead in ((spec.SpectralVelocityField, (3,)), (spec.SpectralScalarField, ())):
            half = lead + reference.half_shape(g)
            with pytest.raises(ValueError) as info:
                cls(g, np.zeros(half, complex))
            message = str(info.value)
            assert "\n" not in message
            assert str(lead + g.kept_shape) in message and str(half) in message

    def test_kept_modes_taken_as_is(self):
        g = spec.Grid(8)
        kept = np.ones((3,) + g.kept_shape, complex)
        assert spec.SpectralVelocityField(g, kept).kept is kept
        with pytest.raises(ValueError, match="kept modes"):
            spec.SpectralVelocityField(g, kept[0])
        with pytest.raises(ValueError, match="kept modes"):
            spec.SpectralScalarField(g, kept)


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
        f = reference.irfftn_real(reference.half(g, c), g.n)
        expected = np.sin(reference.meshes(g)[0])
        np.testing.assert_allclose(f, expected, atol=1e-14)

    def test_zero_inverts_to_zero(self):
        g = spec.Grid(8)
        f = reference.irfftn_real(np.zeros(reference.half_shape(g), complex), g.n)
        assert np.all(f == 0.0)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_round_trip(self, seed):
        # the forward transform keeps the kept modes, so a field on them
        # comes back
        g = spec.Grid(8)
        F = spec.fft_forward(random_scalar(g, seed))
        f = reference.irfftn_real(reference.to_half(F), g.n)
        again = spec.fft_forward(spec.RealScalarField(g, f))
        back = reference.irfftn_real(reference.to_half(again), g.n)
        scale = np.abs(f).max()
        assert np.abs(back - f).max() <= 1e-13 * scale
        assert np.abs(again.kept - F.kept).max() <= 1e-13 * np.abs(F.kept).max()

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
        assert reference.full(spec.SpectralScalarField(g, reference.compact(g, c)))[-1, -2, -1] == 1.0

    @pytest.mark.parametrize("n", [4, 6, 16, 18, 22, 32, 48, 64, 96])
    def test_bitwise_equal_to_the_full_rfftn(self, n):
        # the pruned forward gives the kept modes of the full rfftn bit for
        # bit, the sign of a zero included, on vector and scalar samples,
        # and does not write its input
        g = spec.Grid(n)
        states = (solv.init_taylor_green(g, 1.3), init_beltrami(g, 0.8),
                  init_random_divfree(g, 3, -2.0, 1.0))
        fields = [spec.to_physical(U) for U in states] + [random_vector(g, n)]
        for f in fields:
            for field_ in (f, spec.RealScalarField(g, f.values[0])):
                before = field_.values.copy()
                kept = spec.fft_forward(field_).kept
                full = reference.to_kept(g, reference.rfftn(field_.values))
                assert kept.tobytes() == full.tobytes()
                assert field_.values.tobytes() == before.tobytes()

    @pytest.mark.parametrize("n", [4, 16, 22, 96])
    def test_x_fastest_samples(self, n):
        # a snapshot's samples are a view with the x index fastest; their
        # transform is that of the same samples in C order, bit for bit
        g = spec.Grid(n)
        values = random_vector(g, n).values
        x_fastest = np.ascontiguousarray(values.transpose(0, 3, 2, 1)).transpose(0, 3, 2, 1)
        assert not x_fastest.flags.c_contiguous and np.array_equal(x_fastest, values)
        for c_order, x_order in ((values, x_fastest), (values[1], x_fastest[1])):
            kind = spec.VelocityField if c_order.ndim == 4 else spec.RealScalarField
            assert (spec.fft_forward(kind(g, x_order)).kept.tobytes()
                    == spec.fft_forward(kind(g, c_order)).kept.tobytes())

    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_peak_memory(self, n):
        # one component at a time: one (n, n, n/2 + 1) workspace, about one
        # field, beside the result's three compact cubes, about 0.9 of a
        # field.  Measured 2.46, 2.03 and 2.03 fields at n = 32, 48 and 64;
        # with the three components in one workspace, 4.08, 3.96 and 4.03
        g = spec.Grid(n)
        field_ = spec.to_physical(init_random_divfree(g, 1, -3.0, 5.0))
        spec.fft_forward(field_)  # grid tables, FFT plans
        assert reference.traced_peak(spec.fft_forward, field_) <= 2.6 * 8 * n**3

    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_magnitude_holds_one_field(self, n):
        # the square root is taken in place; with a second array for it the
        # magnitude peaked at 2.0 fields
        field_ = random_vector(spec.Grid(n), n)
        field_.magnitude()
        assert reference.traced_peak(field_.magnitude) <= 1.1 * 8 * n**3

    def test_plancherel_fixed_normalization(self):
        g = spec.Grid(16, length=2.0)
        F = spec.fft_forward(random_scalar(g, 7))
        f = reference.irfftn_real(reference.to_half(F), g.n)
        phys = np.sum(f**2) * g.cell_volume
        spectral_side = np.sum(np.abs(reference.full(F)) ** 2) * g.volume
        assert spectral_side == pytest.approx(phys, rel=1e-12)
        assert spec.parseval_sum(g, np.abs(F.kept) ** 2) == pytest.approx(phys, rel=1e-12)


def taylor_green_3d_derivative(grid, amplitude, c, axes):
    """d u_c / dx_axes of the 3-D Taylor-Green vortex u = A (sin x cos y
    cos z, -cos x sin y cos z, 0) on the grid, in closed form: each nonzero
    component is a signed product of one of sin, cos, -sin, -cos per axis,
    and each derivative along an axis moves that axis's factor one step on
    in this cycle."""
    if c == 2:
        return np.zeros(grid.shape)
    cycle = (np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))
    sign, start = {0: (1.0, (0, 1, 1)), 1: (-1.0, (1, 0, 1))}[c]
    out = np.full(grid.shape, sign * amplitude)
    for a, x in enumerate(reference.meshes(grid)):
        out *= cycle[(start[a] + axes.count(a)) % 4](x)
    return out


class TestDerivatives:
    @pytest.mark.parametrize("n", [16, 24])
    def test_taylor_green_3d_closed_form(self, n):
        # every gradient and Hessian field of the stream, each with its own
        # k_y and k_z factors, against its closed form.  The state is the
        # vortex's exact compact cube: A/8 times -i sgn(kx) for u_0 and
        # i sgn(ky) for u_1 on the 8 modes (+-1, +-1, +-1), whose kz = 1
        # halves are stored.  The transform of the samples is that cube to
        # roundoff (1.0e-15 of its largest value at n = 24), but its
        # roundoff in the other kept modes, times k_i k_j, would reach
        # 1.3e-14 of the Hessian at n = 24 on either route, factored or
        # not.  The identity's right side vanishes for both states.
        g, amplitude = spec.Grid(n), 1.5
        kept = np.zeros((3,) + g.kept_shape, dtype=np.complex128)
        for ix, kx in ((1, 1.0), (-1, -1.0)):
            for iy, ky in ((1, 1.0), (-1, -1.0)):
                kept[0, ix, iy, 1] = -1j * amplitude * kx / 8
                kept[1, ix, iy, 1] = 1j * amplitude * ky / 8
        U = spec.SpectralVelocityField(g, kept)
        u = np.stack([taylor_green_3d_derivative(g, amplitude, c, ()) for c in range(3)])
        sampled = spec.fft_forward(spec.VelocityField(g, u))
        assert np.abs(sampled.kept - kept).max() <= 1e-14 * np.abs(kept).max()
        d1, d2 = streamed_tables(U)
        exact1 = np.stack([
            [taylor_green_3d_derivative(g, amplitude, c, (a,)) for c in range(3)]
            for a in range(3)
        ])
        exact2 = np.stack([
            [taylor_green_3d_derivative(g, amplitude, c, pair) for c in range(3)]
            for pair in spec.HESSIAN_PAIRS
        ])
        assert np.abs(d1 - exact1).max() <= 1e-14 * np.abs(exact1).max()
        assert np.abs(d2 - exact2).max() <= 1e-14 * np.abs(exact2).max()
        for state in (U, sampled):
            rhs = crit.hessian_quadrature(state).rhs
            assert abs(rhs) <= 1e-14 * reference.identity_rhs_abs(state)

    def test_gradient_of_sine(self):
        g = spec.Grid(16)
        d = gradients(x_component(g, lambda x, y, z: np.sin(x)))
        X = reference.meshes(g)[0]
        np.testing.assert_allclose(d[0, 0], np.cos(X), atol=1e-13)
        assert np.abs(d[1:]).max() < 1e-14
        assert np.abs(d[:, 1:]).max() < 1e-14

    def test_gradient_of_constant_is_zero(self):
        g = spec.Grid(8)
        d = gradients(x_component(g, lambda x, y, z: np.full(x.shape, 2.5)))
        assert np.abs(d).max() < 1e-14

    def test_second_derivative_of_sine(self):
        g = spec.Grid(16)
        d2 = pair_table(x_component(g, lambda x, y, z: np.sin(x)))
        X = reference.meshes(g)[0]
        np.testing.assert_allclose(d2[spec.PAIR[0][0], 0], -np.sin(X), atol=1e-12)

    def test_mixed_partials_commute(self):
        g = spec.Grid(8)
        d = gradients(spec.fft_forward(random_vector(g, 3)))
        dxy = gradients(spec.fft_forward(spec.VelocityField(g, d[0])))[1]
        dyx = gradients(spec.fft_forward(spec.VelocityField(g, d[1])))[0]
        assert np.abs(dxy - dyx).max() <= 1e-15 * max(np.abs(dxy).max(), 1.0)

    def test_second_derivative_table_is_symmetric(self):
        # (i, j) and (j, i) read one row of the pair table, bitwise the
        # entries of the 27-entry table
        g = spec.Grid(8)
        U = init_random_divfree(g, 5, -2.0, 1.0)
        d2 = pair_table(U)
        assert d2.shape == (6, 3) + g.shape
        assert spec.HESSIAN_PAIRS == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
        full = reference.hessian_table(U)
        for i in range(3):
            for j in range(3):
                assert spec.PAIR[i][j] == spec.PAIR[j][i]
                assert np.array_equal(d2[spec.PAIR[i][j]], full[i, j])

    def test_derivative_slabs_layout(self):
        # one view per Hessian pair serves both orders, and the stream
        # without the gradients gives the same Hessian bit for bit
        g = spec.Grid(16)
        U = init_random_divfree(g, 3, -2.0, 1.0)
        with_grads = list(spec.derivative_slabs(U))
        alone = list(spec.derivative_slabs(U, gradients=False))
        assert [s[:2] for s in with_grads] == [s[:2] for s in alone]
        for (x0, x1, grads, hess), (_, _, none, hess2) in zip(with_grads, alone):
            points = (x1 - x0) * g.n**2
            assert grads.shape == (3, 3, points) and none is None
            for i in range(3):
                for j in range(3):
                    assert hess[i][j] is hess[j][i]
                    assert hess[i][j].shape == (3, points)
                    assert np.array_equal(hess[i][j], hess2[i][j])

    def test_sobolev_identity_against_tensor(self):
        # sum_k |k|^4 |u|^2 equals the Frobenius norm of the full tensor,
        # whose off-diagonal pairs each stand for two entries
        g = spec.Grid(16)
        U = init_random_divfree(g, 11, -2.0, 1.0)
        d2 = pair_table(U)
        weights = np.array([1.0 if i == j else 2.0 for i, j in spec.HESSIAN_PAIRS])
        quad = np.sum(weights[:, None, None, None, None] * d2**2) * g.cell_volume
        k4 = reference.k_squared(g) ** 2
        plancherel = g.volume * np.sum(k4 * np.abs(reference.full(U)) ** 2)
        assert quad == pytest.approx(plancherel, rel=1e-11)


class TestPrunedTables:
    """Every inverse transform the commands run reads only the kept modes
    (the slab streams), and the random draw runs on the compact cube; on
    band-limited states each equals the full-transform route of
    ``reference`` bit for bit, and the slab stream equals the whole-table
    pruned route it replaced, but for the derivative stream, which applies
    its k_y and k_z factors after the x pass and so equals them to
    roundoff.  n = 48 has the boundary shell 3 max|k| = n that the 2/3
    rule drops; at n = 22 the last slab is partial (4-plane slabs)."""

    @pytest.mark.parametrize("n", [16, 22, 32, 48, 64])
    def test_bitwise_equal_to_the_full_transforms(self, n):
        g = spec.Grid(n)
        U = init_random_divfree(g, 1, -3.0, 5.0)
        d1, d2 = streamed_tables(U)
        first, second = reference.first_derivatives_unpruned(U), reference.second_derivatives_unpruned(U)
        assert_roundoff(d1, first)
        assert_roundoff(d2, second)
        # the unfactored whole tables, kept for the benchmark, stay bitwise
        assert np.array_equal(reference.first_derivatives(U), first)
        assert np.array_equal(reference.second_derivatives(U), second)
        assert np.array_equal(spec.first_derivatives(U), first)
        assert np.array_equal(spec.second_derivatives(U), second)
        quad = crit.hessian_quadrature(U)
        rhs, hessian = reference.gram_quadrature(U)
        assert_roundoff(crit.hessian_magnitude(U), hessian)
        scale = reference.identity_rhs_abs(U)
        assert abs(quad.rhs - reference.slab_quadrature(U)) <= 1e-14 * scale
        assert abs(quad.rhs - rhs) <= 1e-14 * scale
        assert np.array_equal(quad.hessian, crit.hessian_magnitude(U))
        pressure = solv.pressure_field(U).values
        assert np.array_equal(pressure, reference.pressure_field_unpruned(U))

    @pytest.mark.parametrize("n", [4, 6, 16, 22, 32, 46, 48, 64])
    def test_slab_width(self, n):
        # about 2048 grid points per slab, at least one plane, at most n
        b = {4: 4, 6: 6, 16: 8, 22: 4, 32: 2, 46: 1, 48: 1, 64: 1}[n]
        assert spec._slab_planes(n) == b
        g = spec.Grid(n)
        U = init_random_divfree(g, 1, -3.0, 5.0)
        spans = [(x0, x1) for x0, x1, _ in spec.inverse_slabs(g, (U.kept,), 3)]
        assert spans == [(x0, min(x0 + b, n)) for x0 in range(0, n, b)]

    @pytest.mark.parametrize("n", [16, 32, 48, 64])
    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_compact_draw_bitwise_equal_to_the_full_cube(self, n, seed):
        g = spec.Grid(n)
        with np.errstate(divide="ignore"):  # 0 ** -3 at k = 0, as in the initializer
            drawn = solv._drawn_field(g, seed, -3.0)
        assert np.array_equal(reference.to_half(drawn), reference.drawn_field_full(g, seed, -3.0))
        assert np.array_equal(
            reference.to_half(init_random_divfree(g, seed, -3.0, 5.0)),
            reference.random_divfree_full(g, seed, -3.0, 5.0),
        )

    def test_out_of_band_modes_are_not_read(self):
        # samples with content outside the band: the forward transform keeps
        # the kept modes of the full rfftn, bit for bit, and drops the rest
        g = spec.Grid(16)
        f = random_vector(g, 2)
        U = spec.fft_forward(f)
        full_half = reference.rfftn(f.values)
        assert np.array_equal(U.kept, reference.to_kept(g, full_half))
        assert np.array_equal(
            reference.to_half(U), full_half * reference.dealias_mask_half(g)
        )
        d1, d2 = streamed_tables(U)
        assert_roundoff(d1, reference.first_derivatives_unpruned(U))
        assert_roundoff(d2, reference.second_derivatives_unpruned(U))


def assert_kernel_bits(g, got, tables, unpruned):
    """``got``, the kernel's (w_hat, u_max, u_sq, omega_max), is the
    whole-table route's bit for bit, signs of zeros included, and the full
    transforms'; both take |u|^2 and max |omega| from whole sample tables."""
    w_hat, u_max, u_sq, omega_max = got
    assert w_hat.tobytes() == tables[0].tobytes()
    assert u_sq.shape == g.shape and u_sq.tobytes() == tables[2].tobytes()
    assert u_max == tables[1] == unpruned[1]
    assert omega_max == tables[3] == unpruned[3]
    assert type(omega_max) is float
    assert np.array_equal(reference.to_half(spec.SpectralVelocityField(g, w_hat)), unpruned[0])
    assert u_sq.tobytes() == unpruned[2].tobytes()


class TestPasses:
    """The 1-D passes are numpy.fft's, run in place through ``out``; each
    equals scipy.fft's pass, the transform of the oracles in ``reference``,
    bit for bit, on the strided views the routes pass them."""

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16, 22, 24, 32, 46, 48, 64, 96])
    def test_equal_to_scipys_passes(self, n):
        rng = np.random.default_rng(n)
        h = n // 2 + 1
        shape = (2 if n < 96 else 1, n, n, h)
        whole = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for inverse, transform, norm in ((False, scipy_fft.fft, "backward"),
                                         (True, scipy_fft.ifft, "forward")):
            for axis in (-1, -2, -3):
                for view in (np.s_[...], np.s_[..., : h - 2], np.s_[:, 1 : n - 1, ::2]):
                    work = whole.copy()
                    lines = work[view]
                    want = transform(lines, axis=axis, norm=norm)
                    spec._complex_pass(lines, axis=axis, inverse=inverse)
                    assert np.shares_memory(lines, work)
                    assert lines.tobytes() == want.tobytes(), (inverse, axis, view)
        samples = whole.real
        assert (spec._fft.rfft(samples, axis=-1).tobytes()
                == scipy_fft.rfft(samples, axis=-1).tobytes())
        assert (spec._fft.irfft(whole, n=n, axis=-1, norm="forward").tobytes()
                == scipy_fft.irfft(whole, n=n, axis=-1, norm="forward").tobytes())


class CountingPasses:
    """Stands in for ``spectral._fft``; counts its calls by name."""

    def __init__(self, module):
        self.module = module
        self.calls = {}

    def __getattr__(self, name):
        fn = getattr(self.module, name)

        def call(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return call


class TestKernelStream:
    """The nonlinear term is one slab loop, sampled or not: it gives the
    bits of the whole-table route (``reference.convective_core_tables``)
    and of the full transforms, and without samples it holds no whole grid
    table."""

    @pytest.mark.parametrize("n", [16, 22, 32, 48, 64, 96])
    def test_bitwise_equal_to_the_whole_tables(self, n):
        g = spec.Grid(n)
        U = init_random_divfree(g, 1, -3.0, 5.0)
        unpruned = reference.convective_core_unpruned(g, reference.to_half(U))
        tables = reference.convective_core_tables(g, U.kept)
        assert_kernel_bits(g, spec.convective_core_half(g, U.kept), tables, unpruned)
        w_hat, u_max, u_sq, omega_max = spec.convective_core_half(g, U.kept, samples=False)
        assert w_hat.tobytes() == tables[0].tobytes()
        assert math.isnan(u_max) and u_sq is None and math.isnan(omega_max)

    @pytest.mark.parametrize("n, planes", [(48, 7), (22, 5), (32, 3)])
    def test_partial_last_slab(self, monkeypatch, n, planes):
        # 48 = 6 * 7 + 6 under the kernel's own rule; the others by a
        # narrower rule
        monkeypatch.setattr(spec, "_KERNEL_POINTS", planes * n * n)
        assert spec._slab_planes(n, spec._KERNEL_POINTS) == planes and n % planes
        g = spec.Grid(n)
        for U in (init_random_divfree(g, 7, -3.0, 5.0), init_beltrami(g, 1.3)):
            unpruned = reference.convective_core_unpruned(g, reference.to_half(U))
            tables = reference.convective_core_tables(g, U.kept)
            assert_kernel_bits(g, spec.convective_core_half(g, U.kept), tables, unpruned)
            bare = spec.convective_core_half(g, U.kept, samples=False)[0]
            assert bare.tobytes() == tables[0].tobytes()

    @pytest.mark.parametrize("n", [4, 16, 32, 48, 64, 96, 128])
    def test_kernel_slab_width(self, monkeypatch, n):
        # about 16384 grid points per slab, at least one plane, at most n;
        # one real pass each way per slab
        b = {4: 4, 16: 16, 32: 16, 48: 7, 64: 4, 96: 1, 128: 1}[n]
        assert spec._slab_planes(n, spec._KERNEL_POINTS) == b
        if n > 64:
            return
        fft = CountingPasses(spec._fft)
        monkeypatch.setattr(spec, "_fft", fft)
        g = spec.Grid(n)
        spec.convective_core_half(g, init_random_divfree(g, 1, -3.0, 5.0).kept)
        assert fft.calls["irfft"] == fft.calls["rfft"] == -(-n // b)

    def test_nan_reaches_the_max(self):
        # a slab-wise max keeps a NaN, as the whole-table max does
        g = spec.Grid(32)
        kept = init_random_divfree(g, 1, -3.0, 5.0).kept.copy()
        kept[0, 1, 2, 3] = math.nan
        with np.errstate(invalid="ignore"):
            _, u_max, _, omega_max = spec.convective_core_half(g, kept)
            assert math.isnan(u_max) and math.isnan(omega_max)
            assert math.isnan(reference.convective_core_tables(g, kept)[1])

    @pytest.mark.parametrize("n", [48, 64])
    def test_peak_memory_without_samples(self, n):
        # the x-passed lines of [u, omega], the kept kz planes of the
        # product, the buffers of one slab (workspace, samples, product and
        # scratch, z-pass output) and the samples of the slab before it.
        # Measured 7.8 fields at n = 48 and 6.2 at n = 64, against this
        # bound's 8.3 and 6.4; the whole-table route peaked at 10.0 (its
        # samples, product and scratch, 6 + 3 + 1 fields)
        g = spec.Grid(n)
        m, h = g.kept_max, g.half
        b = spec._slab_planes(n, spec._KERNEL_POINTS)
        samples = 6 * b * n * n * 8
        slab = 6 * b * n * h * 16 + samples + 4 * b * n * n * 8 + 3 * b * n * h * 16
        bound = 6 * n * (2 * m + 1) * (m + 1) * 16 + 3 * n * n * (m + 1) * 16 + slab + samples
        assert bound < 10 * 8 * n**3
        kept = init_random_divfree(g, 1, -3.0, 5.0).kept
        spec.convective_core_half(g, kept, samples=False)  # grid tables, FFT plans
        assert reference.traced_peak(spec.convective_core_half, g, kept, False) <= bound

    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_samples_cost_one_grid_field(self, n):
        # with samples the kernel adds |u|^2 and nothing else that lasts:
        # measured 1.00 field at n = 32, 48 and 64, against 6.00 when it
        # copied every slab of [u, omega] into a (6, n, n, n) table
        g = spec.Grid(n)
        kept = init_random_divfree(g, 1, -3.0, 5.0).kept
        for samples in (False, True):
            spec.convective_core_half(g, kept, samples)  # grid tables, FFT plans
        sampled = reference.traced_peak(spec.convective_core_half, g, kept, True)
        bare = reference.traced_peak(spec.convective_core_half, g, kept, False)
        assert sampled - bare <= 1.05 * 8 * n**3


class TestParseval:
    """The compact cube's Parseval weights stand for the whole half spectrum."""

    @pytest.mark.parametrize("n", [16, 32, 48, 64, 96])
    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_compact_sum_matches_the_half_spectrum_sum(self, n, seed):
        # the same terms in another summation order: equal to roundoff
        g = spec.Grid(n)
        U = init_random_divfree(g, seed, -3.0, 5.0)
        compact = spec.parseval_sum(g, np.abs(U.kept) ** 2)
        half = reference.parseval_half(g, np.abs(reference.to_half(U)) ** 2)
        assert abs(compact - half) <= 1e-15 * half
        assert compact == pytest.approx(25.0, rel=1e-14)

    def test_kept_modes_never_reach_the_nyquist_plane(self):
        # kz = n/2 is the one plane besides kz = 0 that counts once
        for n in range(4, 257, 2):
            assert 2 * spec.Grid(n).kept_max < n, n


class TestCurlDivergence:
    def test_curl_of_axial_sine(self):
        g = spec.Grid(16)
        u = np.zeros((3,) + g.shape)
        X = reference.meshes(g)[0]
        u[2] = np.sin(X)
        w = reference.curl_samples(spec.fft_forward(spec.VelocityField(g, u)))
        np.testing.assert_allclose(w[1], -np.cos(X), atol=1e-13)
        assert np.abs(w[0]).max() < 1e-14
        assert np.abs(w[2]).max() < 1e-14

    def test_divergence_oracles(self):
        g = spec.Grid(16)
        X, Y, _ = reference.meshes(g)
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
        cg = reference.curl_samples(gradient_field(F))
        scale = max(np.abs(reference.full(F)).max(), 1.0)
        assert np.abs(cg).max() <= 1e-12 * scale
        U = init_random_divfree(g, seed, -1.0, 1.0)
        omega = spec.VelocityField(g, reference.curl_samples(U))
        dc = spec.divergence(spec.fft_forward(omega))
        assert np.abs(reference.full(dc)).max() <= 1e-12

    def test_curl_of_beltrami_is_identity(self):
        g = spec.Grid(16)
        U = init_beltrami(g, 1.3)
        assert np.abs(reference.curl_samples(U) - spec.to_physical(U).values).max() < 1e-13


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

    @pytest.mark.parametrize("negate", [False, True])
    @pytest.mark.parametrize("n", [32, 48, 64])
    def test_projection_scratch(self, n, negate):
        # (k . u)/|k|^2 and each k_c s are formed in two scalar compact
        # cubes.  Beside them numpy casts the real k to complex through its
        # ufunc buffer, of at most np.getbufsize() values, and allocates a
        # few array headers.  With a (3, ...) k s the projection peaked at
        # 6.0, 4.5 and 4.2 cubes at n = 32, 48 and 64
        g = spec.Grid(n)
        kept = init_random_divfree(g, 1, -3.0, 5.0).kept.copy()
        size = math.prod(g.kept_shape)
        spec.project_kept(g, kept, negate)
        bound = 16 * (2 * size + min(size, np.getbufsize())) + 4096
        assert reference.traced_peak(spec.project_kept, g, kept, negate) <= bound

    def test_mean_mode_passes_through(self):
        g = spec.Grid(8)
        c = np.zeros((3,) + g.shape, dtype=complex)
        c[:, 0, 0, 0] = [1.0, 2.0, -3.0]
        out = spec.leray_project(spec.SpectralVelocityField(g, reference.compact(g, c)))
        assert np.array_equal(reference.full(out)[:, 0, 0, 0], c[:, 0, 0, 0])


class TestDealias:
    def test_low_mode_unchanged_high_mode_zeroed(self):
        # the forward transform keeps mode 1 and drops mode 7 > 16/3
        g = spec.Grid(16)
        f = scalar_field(g, lambda x, y, z: np.cos(x) + np.cos(7 * x))
        out = reference.full(spec.fft_forward(f))
        assert out[1, 0, 0] == pytest.approx(0.5, abs=1e-15)
        assert out[7, 0, 0] == 0.0 and out[-7, 0, 0] == 0.0

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_contraction(self, seed):
        g = spec.Grid(8)
        f = random_scalar(g, seed)
        out = spec.fft_forward(f)
        assert np.sum(np.abs(reference.full(out)) ** 2) <= np.sum(
            np.abs(reference.fftn(f.values)) ** 2
        )


class TestHalfSpectrum:
    def test_full_from_half_round_trip(self):
        g = spec.Grid(16)
        full = reference.full(init_random_divfree(g, 21, -2.0, 1.0))
        U = spec.SpectralVelocityField(g, reference.compact(g, full))
        assert U.kept.shape == (3,) + g.kept_shape
        assert np.array_equal(reference.full(U), full)

    def test_convective_matches_full_cube_route(self):
        # the kernel's form may differ from (u . grad) u by a gradient, which
        # the Leray projection removes
        for n in (16, 32, 96):
            g = spec.Grid(n)
            U = init_random_divfree(g, 22, -2.0, 1.0)
            w = spec.convective_core_half(g, U.kept)[0]
            mask = reference.dealias_mask(g)
            ud = reference.full(U) * mask
            up = reference.ifftn_real(ud)
            conv = np.zeros_like(up)
            for a, ik in enumerate(reference.ik_axes(g)):
                conv += up[a] * reference.ifftn_real(ik * ud)
            ref = spec.leray_project(
                spec.SpectralVelocityField(g, reference.compact(g, reference.fftn(conv) * mask))
            ).kept
            out = spec.leray_project(spec.SpectralVelocityField(g, w)).kept
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
