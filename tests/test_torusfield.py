"""Spectral calculus: single-mode oracles, structural identities, bump behavior."""

import re

import numpy as np
import pytest

from ajclab import pointlin as pl
from ajclab import torusfield as tf
from ajclab.config import DEFAULT_BUMP1, DEFAULT_BUMP2
from spectral_reference import half_spectrum_wavenumbers, spectral_truncate

G8 = tf.GridSpec(8)
G16 = tf.GridSpec(16)
FIELD_KINDS = [tf.ScalarField, tf.OneFormField, tf.TwoFormField, tf.ThreeFormField,
               tf.SelfDualCoordField]


def scalar_constant(grid, value):
    return tf.ScalarField(grid, np.full(grid.shape, float(value)))


def reference_partials(values, grid):
    """All four spectral partial derivatives, stacked on a new last axis:
    one full complex FFT over the grid axes, then per axis a 2 pi i k
    multiplier with the Nyquist mode zeroed and an inverse complex FFT.
    An independent reference for the differentiation matrices."""
    spec = np.fft.fftn(values, axes=tf.GRID_AXES)
    mult = 2j * np.pi * np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    mult[grid.n // 2] = 0.0
    outs = []
    for ax in tf.GRID_AXES:
        shape = [1] * values.ndim
        shape[ax] = grid.n
        outs.append(np.fft.ifftn(spec * mult.reshape(shape), axes=tf.GRID_AXES).real)
    return np.stack(outs, axis=-1)


def reference_differentials(f, theta, phi):
    """d f, d theta, d phi and delta phi from :func:`reference_partials` and
    the coordinate formulas, delta phi by (delta phi)_j = -sum_i di phi_ij."""
    grid = f.grid
    df = reference_partials(f.values, grid)
    jac = reference_partials(theta.values, grid)  # [..., component j, axis i]
    dtheta = np.stack([jac[..., j, i] - jac[..., i, j] for (i, j) in pl.PAIRS], axis=-1)
    parts = reference_partials(phi.values, grid)  # [..., pair c, axis a]
    pidx = {p: c for c, p in enumerate(pl.PAIRS)}
    dphi = np.stack(
        [
            parts[..., pidx[(j, k)], i] - parts[..., pidx[(i, k)], j] + parts[..., pidx[(i, j)], k]
            for (i, j, k) in pl.TRIPLES
        ],
        axis=-1,
    )
    Aparts = reference_partials(pl.form_to_matrix(phi.values), grid)  # [..., i, j, axis]
    delta = -np.einsum("...iji->...j", Aparts)
    return df, dtheta, dphi, delta


def random_bandlimited_scalar(rng, grid, kmax):
    noise = tf.ScalarField(grid, rng.standard_normal(grid.shape))
    f = spectral_truncate(noise, kmax)
    return tf.ScalarField(grid, f.values / max(1.0, f.max_abs()))


def random_bandlimited(rng, grid, kmax, cls):
    if cls is tf.ScalarField:
        return random_bandlimited_scalar(rng, grid, kmax)
    comps = [random_bandlimited_scalar(rng, grid, kmax).values for _ in range(cls.NCOMP[0])]
    return cls(grid, np.stack(comps, axis=-1))


class TestGridSpec:
    def test_rejects_odd_or_small(self):
        with pytest.raises(ValueError):
            tf.GridSpec(7)
        with pytest.raises(ValueError):
            tf.GridSpec(2)

    def test_shape(self):
        assert G8.shape == (8, 8, 8, 8)
        assert G8.node_count == 4096


class TestFieldsBasics:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            tf.ScalarField(G8, np.zeros((8, 8, 8)))
        with pytest.raises(ValueError, match="non-finite"):
            vals = np.zeros(G8.shape)
            vals[0, 0, 0, 0] = np.nan
            tf.ScalarField(G8, vals)

    def test_immutability(self):
        f = scalar_constant(G8, 1.0)
        with pytest.raises(ValueError):
            f.values[0, 0, 0, 0] = 2.0

    def test_only_read_only_memory_of_its_own_is_shared(self):
        f = scalar_constant(G8, 1.0)
        assert tf.ScalarField(G8, f.values).values is f.values
        # a writable array, or a view whose memory another name may write, is copied
        writable = np.zeros(G8.shape)
        g = tf.ScalarField(G8, writable)
        writable[0, 0, 0, 0] = 1.0
        assert g.values[0, 0, 0, 0] == 0.0
        view = f.values[...]
        assert tf.ScalarField(G8, view).values is not view
        # a transposed view becomes C-contiguous
        spread = tf.ScalarField(G8, np.zeros(G8.shape).T).values
        assert spread.flags.c_contiguous and not spread.flags.writeable


class TestDifferentials:
    def test_single_mode_gradient(self):
        x1 = G16.coords()[0] + np.zeros(G16.shape)
        f = tf.ScalarField(G16, np.sin(2 * np.pi * x1))
        df = tf.d_scalar(f)
        np.testing.assert_allclose(
            df.values[..., 0], 2 * np.pi * np.cos(2 * np.pi * x1), atol=1e-12
        )
        np.testing.assert_allclose(df.values[..., 1:], 0.0, atol=1e-12)

    def test_constant_gradient_vanishes(self):
        df = tf.d_scalar(scalar_constant(G8, 3.0))
        assert df.max_abs() <= 1e-14

    def test_product_of_modes(self):
        xs = G16.coords()
        vals = np.sin(2 * np.pi * 2 * xs[0]) * np.cos(2 * np.pi * 3 * xs[2]) + np.zeros(G16.shape)
        f = tf.ScalarField(G16, vals)
        df = tf.d_scalar(f)
        expect0 = 4 * np.pi * np.cos(4 * np.pi * xs[0]) * np.cos(6 * np.pi * xs[2])
        expect2 = -6 * np.pi * np.sin(4 * np.pi * xs[0]) * np.sin(6 * np.pi * xs[2])
        np.testing.assert_allclose(df.values[..., 0], expect0 + np.zeros(G16.shape), atol=1e-10)
        np.testing.assert_allclose(df.values[..., 2], expect2 + np.zeros(G16.shape), atol=1e-10)

    def test_single_mode_curl(self):
        xs = G16.coords()
        theta_vals = np.zeros(G16.shape + (4,))
        theta_vals[..., 0] = np.sin(2 * np.pi * xs[1])  # sin(2 pi x2) dx1
        theta = tf.OneFormField(G16, theta_vals)
        dtheta = tf.d_oneform(theta)
        # (d theta)_12 = d1 theta_2 - d2 theta_1 = -2 pi cos(2 pi x2)
        np.testing.assert_allclose(
            dtheta.values[..., 0],
            -2 * np.pi * np.cos(2 * np.pi * xs[1]) + np.zeros(G16.shape),
            atol=1e-12,
        )
        np.testing.assert_allclose(dtheta.values[..., 1:], 0.0, atol=1e-12)

    def test_d_squared_zero(self):
        rng = np.random.default_rng(0)
        f = random_bandlimited(rng, G16, 5, tf.ScalarField)
        assert tf.d_oneform(tf.d_scalar(f)).max_abs() <= 1e-12
        theta = random_bandlimited(rng, G16, 5, tf.OneFormField)
        assert tf.d_twoform(tf.d_oneform(theta)).max_abs() <= 1e-12

    def test_constant_twoform_closed(self):
        w = tf.TwoFormField.constant(G8, pl.OMEGA3)
        assert tf.d_twoform(w).max_abs() == 0.0


class TestCodifferential:
    def test_constant_vanishes(self):
        w = tf.TwoFormField.constant(G8, np.arange(6.0))
        assert tf.codiff_twoform(w).max_abs() <= 1e-14

    def test_divergence_formula_oracle(self):
        # (delta phi)_j = -sum_i di phi_ij, the flat-space coordinate formula
        rng = np.random.default_rng(1)
        phi = random_bandlimited(rng, G8, 3, tf.TwoFormField)
        Aparts = reference_partials(pl.form_to_matrix(phi.values), G8)  # [..., i, j, axis]
        expect = -np.einsum("...iji->...j", Aparts)
        got = tf.codiff_twoform(phi)
        np.testing.assert_allclose(got.values, expect, atol=1e-11)

    def test_single_mode_value(self):
        xs = G16.coords()
        theta_vals = np.zeros(G16.shape + (4,))
        theta_vals[..., 0] = np.cos(2 * np.pi * xs[1])
        theta = tf.OneFormField(G16, theta_vals)
        phi = tf.d_oneform(theta)
        delta = tf.codiff_twoform(phi)
        # delta d theta = laplacian theta for a divergence-free single mode
        np.testing.assert_allclose(
            delta.values[..., 0],
            (2 * np.pi) ** 2 * np.cos(2 * np.pi * xs[1]) + np.zeros(G16.shape),
            atol=1e-10,
        )

    def test_adjointness(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            theta = random_bandlimited(rng, G16, 6, tf.OneFormField)
            phi = random_bandlimited(rng, G16, 6, tf.TwoFormField)
            lhs = tf.l2_inner(tf.d_oneform(theta), phi)
            rhs = tf.l2_inner(theta, tf.codiff_twoform(phi))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


#: every grid size the differentiation-matrix tests run at
SIZES = [4, 6, 8, 16]
#: the numpy.fft transforms; the frequency and shift helpers are not ones
FFT_TRANSFORMS = [name for name in np.fft.__all__ if not name.endswith(("freq", "shift"))]


def derivative_operators(grid):
    """Each differential operator of torusfield as (name, input kind, a
    function of the input's nodal values returning nodal values)."""
    return [
        ("d_scalar", tf.ScalarField, lambda v: tf.d_scalar(tf.ScalarField(grid, v)).values),
        ("d_oneform", tf.OneFormField, lambda v: tf.d_oneform(tf.OneFormField(grid, v)).values),
        ("d_twoform", tf.TwoFormField, lambda v: tf.d_twoform(tf.TwoFormField(grid, v)).values),
        ("codiff_twoform", tf.TwoFormField,
         lambda v: tf.codiff_twoform(tf.TwoFormField(grid, v)).values),
        ("d_codiff_values", tf.TwoFormField, lambda v: tf.d_codiff_values(v, grid)),
    ]


def translation_deviation(grid, shift, seed):
    """For each operator, the largest |op(roll x) - roll(op x)| over
    max|op x|, on white noise x rolled by ``shift`` whole nodes."""
    rng = np.random.default_rng(seed)
    devs = {}
    for name, cls, op in derivative_operators(grid):
        x = rng.standard_normal(grid.shape + cls.NCOMP)
        expect = np.roll(op(x), shift, axis=tf.GRID_AXES)
        got = op(np.roll(x, shift, axis=tf.GRID_AXES))
        devs[name] = float(np.max(np.abs(got - expect)) / np.max(np.abs(expect)))
    return devs


class TestDifferentiationMatrix:
    """Every partial is one product with the real n x n matrix D of the
    Fourier multiplier 2 pi i k, Nyquist zeroed, along one grid axis."""

    def test_the_derivatives_make_no_fft_call(self, monkeypatch):
        calls = []

        def counted(name, original):
            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return call

        rng = np.random.default_rng(8)
        inputs = {cls: rng.standard_normal(G8.shape + cls.NCOMP)
                  for cls in (tf.ScalarField, tf.OneFormField, tf.TwoFormField)}
        for name in FFT_TRANSFORMS:
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        # the matrix is built on first use: that build is counted too
        tf._diff_matrix.cache_clear()
        for _, cls, op in derivative_operators(G8):
            op(inputs[cls])
        assert calls == []

    @pytest.mark.parametrize("n", SIZES)
    def test_exactly_antisymmetric_and_circulant(self, n):
        mat = tf._diff_matrix(tf.GridSpec(n))
        assert mat.shape == (n, n) and not mat.flags.writeable
        assert np.array_equal(mat.T, -mat)
        assert np.array_equal(np.roll(mat, 1, axis=(0, 1)), mat)
        assert np.all(np.diag(mat) == 0.0) and np.any(mat != 0.0)

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_the_fft_multiplier_on_every_basis_vector(self, n):
        grid = tf.GridSpec(n)
        k = np.fft.fftfreq(n, d=1.0 / n)
        m = np.where(np.abs(k) == n // 2, 0.0, 2j * np.pi * k)
        mat = tf._diff_matrix(grid)
        for j, e in enumerate(np.eye(n)):
            expect = np.fft.ifft(m * np.fft.fft(e))
            assert np.max(np.abs(mat[:, j] - expect)) <= 1e-14 * np.max(np.abs(m)), j

    @pytest.mark.parametrize("n", SIZES)
    def test_constant_forms_differentiate_to_exact_zero(self, n):
        grid = tf.GridSpec(n)
        rng = np.random.default_rng(n)
        for name, cls, op in derivative_operators(grid):
            for _ in range(3):
                x = np.broadcast_to(rng.standard_normal(cls.NCOMP), grid.shape + cls.NCOMP)
                out = op(x)
                assert out.shape[:4] == grid.shape and np.all(out == 0.0), name

    @pytest.mark.parametrize("shift", [(1, 0, 0, 0), (0, -3, 5, 2), (7, 7, 7, 7)])
    def test_every_operator_commutes_with_whole_node_translations(self, shift):
        devs = translation_deviation(G8, shift, seed=9)
        assert max(devs.values()) <= 1e-14, devs

    def test_a_matrix_that_is_not_circulant_is_caught(self, monkeypatch):
        planted = tf._diff_matrix(G8).copy()
        planted[1, 3] += 1e-6
        monkeypatch.setattr(tf, "_diff_matrix", lambda grid: planted)
        devs = translation_deviation(G8, (1, 0, 0, 0), seed=9)
        assert min(devs.values()) > 1e-10, devs


def legacy_partial(x, mat, axis, out):
    """The derivative product of grid axis ``axis`` as its own routine took
    it beside ``_along``: x @ mat.T of x viewed as (rows, n) on the last grid
    axis, and mat times x viewed as (before, n, after) on the others."""
    n = mat.shape[0]
    if axis == 3:
        np.matmul(x.reshape(-1, n), mat.T, out=out.reshape(-1, n))
    else:
        shape = (x.size // n ** (4 - axis), n, n ** (3 - axis))
        np.matmul(mat, x.reshape(shape), out=out.reshape(shape))


def legacy_apply(values, grid, *tables):
    """torusfield's table application, written out with
    :func:`legacy_partial` for its products."""
    mat = tf._diff_matrix(grid)
    x = np.moveaxis(values, -1, 0)
    for table in tables:
        x = np.subtract(x, x[..., :1, :1, :1, :1], out=np.empty(x.shape))
        out = np.empty((1 + max(e[0] for e in table),) + x.shape[1:])
        part = np.empty(x.shape[1:])
        written = set()
        for o, axis, c, sign in table:
            if o in written:
                legacy_partial(x[c], sign * mat, axis, part)
                out[o] += part
            else:
                legacy_partial(x[c], sign * mat, axis, out[o])
                written.add(o)
        x = out
    return np.moveaxis(x, 0, -1).copy()


class TestOneProduct:
    """``_along`` is the one matrix-along-one-axis product: the derivatives,
    the low-pass and its synthesis all take it."""

    TABLES = {"d_scalar": (tf._D0,), "d_oneform": (tf._D1,), "d_twoform": (tf._D2,),
              "codiff_twoform": (tf._CODIFF,), "d_codiff_values": (tf._CODIFF, tf._D1)}

    @pytest.mark.parametrize("n", SIZES)
    def test_operators_are_byte_equal_to_a_separate_derivative_product(self, n):
        grid = tf.GridSpec(n)
        rng = np.random.default_rng(n)
        for name, cls, op in derivative_operators(grid):
            x = rng.standard_normal(grid.shape + cls.NCOMP)
            expect = legacy_apply(x if cls.NCOMP else x[..., None], grid, *self.TABLES[name])
            assert np.array_equal(op(x), expect), name
        batch = rng.standard_normal((2, 1) + grid.shape + (6,))
        assert np.array_equal(tf.d_codiff_values(batch, grid),
                              legacy_apply(batch, grid, *self.TABLES["d_codiff_values"]))

    @pytest.mark.parametrize("n", SIZES)
    def test_last_axis_product_matches_the_stacked_column_form(self, n):
        rng = np.random.default_rng(n)
        basis = tf._low_pass_basis(n, n // 2 - 1)
        for mat in (tf._diff_matrix(tf.GridSpec(n)), basis.T, basis):
            x = rng.standard_normal((2, n, n, mat.shape[1]))
            stacked = mat @ x.reshape(-1, mat.shape[1], 1)
            got = tf._along(x, mat, 3, None)
            assert got.shape == (2, n, n, mat.shape[0])
            dev = np.max(np.abs(got.reshape(stacked.shape) - stacked))
            assert dev <= 1e-15 * np.max(np.abs(stacked)), (mat.shape, dev)

    def test_writes_into_out_or_into_an_array_of_its_own(self):
        x = np.random.default_rng(3).standard_normal((2, 3, 8, 5))
        mat = tf._diff_matrix(G8)
        for axis in (2, 3):
            picked = x if axis == 2 else x.transpose(0, 1, 3, 2).copy()
            out = np.empty_like(picked)
            assert tf._along(picked, mat, axis, out) is out
            fresh = tf._along(picked, mat, axis, None)
            # an array that owns its memory, so frozen() shares it sealed
            assert fresh.base is None and np.array_equal(fresh, out)
            # an out that cannot be viewed flat would take a copy, not the result
            with pytest.raises(ValueError, match="copy"):
                tf._along(picked, mat, axis, np.empty(picked.shape[::-1]).T)

    @pytest.mark.parametrize("first, shape", [(0, (5,) * 4 + (6,)), (1, (2,) + (5,) * 4)])
    def test_synthesis_is_the_tensor_basis_sum(self, first, shape):
        coeffs = np.random.default_rng(first).standard_normal(shape)
        basis = tf._low_pass_basis(G8.n, 2)
        assert not basis.flags.writeable and tf._low_pass_basis(G8.n, 2) is basis
        spec = "ia,jb,kc,ld,abcd...->ijkl..." if first == 0 else "ia,jb,kc,ld,zabcd->zijkl"
        expect = np.einsum(spec, basis, basis, basis, basis, coeffs)
        got = tf.from_low_pass(coeffs, G8, first, None)
        assert got.shape == expect.shape
        assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


class TestHalfSpectrumMultipliers:
    """The differential operators against per-axis complex-FFT partials."""

    @pytest.mark.parametrize("grid", [G8, G16], ids=["n8", "n16"])
    def test_match_complex_fft_partials(self, grid):
        rng = np.random.default_rng(grid.n)
        kmax = grid.n // 2 - 1
        f = random_bandlimited(rng, grid, kmax, tf.ScalarField)
        theta = random_bandlimited(rng, grid, kmax, tf.OneFormField)
        phi = random_bandlimited(rng, grid, kmax, tf.TwoFormField)
        df, dtheta, dphi, delta = reference_differentials(f, theta, phi)
        np.testing.assert_allclose(tf.d_scalar(f).values, df, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tf.d_oneform(theta).values, dtheta, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tf.d_twoform(phi).values, dphi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tf.codiff_twoform(phi).values, delta, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("grid", [G8, G16], ids=["n8", "n16"])
    @pytest.mark.parametrize("axis", tf.GRID_AXES)
    def test_nyquist_mode_differentiates_to_zero(self, grid, axis):
        # cos(pi n x_a) is the Nyquist mode of axis a
        xs = [c + np.zeros(grid.shape) for c in grid.coords()]
        nyquist = np.cos(np.pi * grid.n * xs[axis])
        f = tf.ScalarField(grid, nyquist)
        assert tf.d_scalar(f).max_abs() <= 1e-12
        theta = tf.OneFormField(grid, np.stack([nyquist] * 4, axis=-1))
        assert tf.d_oneform(theta).max_abs() <= 1e-12
        phi = tf.TwoFormField(grid, np.stack([nyquist] * 6, axis=-1))
        assert tf.d_twoform(phi).max_abs() <= 1e-12
        assert tf.codiff_twoform(phi).max_abs() <= 1e-12
        # a real operator drops the anti-Hermitian part that one odd
        # multiplier leaves on a Nyquist bin, so only a product of two
        # multipliers, as in d delta, shows an unzeroed bin
        assert np.max(np.abs(tf.d_codiff_values(phi.values, grid))) <= 1e-12
        other = xs[(axis + 1) % 4]
        g = nyquist * (1.0 + np.sin(2 * np.pi * other))
        f = tf.ScalarField(grid, g)
        theta = tf.OneFormField(grid, np.stack([g * (c + 1) for c in range(4)], axis=-1))
        phi = tf.TwoFormField(grid, np.stack([g * (c + 1) for c in range(6)], axis=-1))
        df, dtheta, dphi, delta = reference_differentials(f, theta, phi)
        assert np.max(np.abs(tf.d_scalar(f).values[..., axis])) <= 1e-12
        np.testing.assert_allclose(tf.d_scalar(f).values, df, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tf.d_oneform(theta).values, dtheta, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tf.d_twoform(phi).values, dphi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tf.codiff_twoform(phi).values, delta, rtol=0, atol=1e-12)
        expect = tf.d_oneform(tf.OneFormField(grid, delta)).values
        np.testing.assert_allclose(tf.d_codiff_values(phi.values, grid), expect, rtol=0, atol=1e-11)

    def test_batched_d_codiff_matches_field_route(self):
        rng = np.random.default_rng(7)
        phis = [random_bandlimited(rng, G8, 3, tf.TwoFormField) for _ in range(3)]
        batch = np.stack([p.values for p in phis]).reshape((3, 1) + G8.shape + (6,))
        got = tf.d_codiff_values(batch, G8)
        assert got.shape == batch.shape
        for k, p in enumerate(phis):
            expect = tf.d_oneform(tf.codiff_twoform(p)).values
            np.testing.assert_allclose(got[k, 0], expect, rtol=0, atol=1e-11)


class TestIntegrals:
    def test_constant(self):
        assert tf.integrate(scalar_constant(G8, 3.0)) == pytest.approx(3.0)

    def test_single_mode_integrates_to_zero(self):
        xs = G16.coords()
        f = tf.ScalarField(G16, np.cos(2 * np.pi * 3 * xs[3]) + np.zeros(G16.shape))
        assert abs(tf.integrate(f)) <= 1e-14

    def test_l2_inner_constant_omega1(self):
        w = tf.TwoFormField.constant(G8, pl.OMEGA1)
        assert tf.l2_inner(w, w) == pytest.approx(2.0)

    def test_integrate_exact_for_bandlimited(self):
        rng = np.random.default_rng(3)
        f = random_bandlimited(rng, G16, 7, tf.ScalarField)
        mean_mode = float(np.mean(f.values))
        g = tf.ScalarField(G16, f.values - mean_mode + 0.25)
        assert tf.integrate(g) == pytest.approx(0.25, abs=1e-14)

    def test_wedge_integral_values_and_symmetry(self):
        w1 = tf.TwoFormField.constant(G8, pl.OMEGA1)
        w2 = tf.TwoFormField.constant(G8, pl.OMEGA2)
        assert tf.wedge_integral(w1, w1) == pytest.approx(2.0)
        assert tf.wedge_integral(w1, w2) == pytest.approx(0.0)
        rng = np.random.default_rng(4)
        a = random_bandlimited(rng, G8, 3, tf.TwoFormField)
        b = random_bandlimited(rng, G8, 3, tf.TwoFormField)
        assert tf.wedge_integral(a, b) == pytest.approx(tf.wedge_integral(b, a), abs=1e-14)

    def test_self_dual_wedge_equals_l2(self):
        rng = np.random.default_rng(5)
        raw = random_bandlimited(rng, G8, 3, tf.TwoFormField)
        sd = tf.TwoFormField(G8, pl.split_sd(raw.values).plus)
        assert tf.wedge_integral(sd, sd) == pytest.approx(tf.l2_inner(sd, sd), abs=1e-12)


class TestBump:
    CENTER = (0.5, 0.5, 0.5, 0.5)

    def test_center_value(self):
        b = tf.bump_cutoff(G16, self.CENTER, 0.2, 0.7)
        assert b.values[8, 8, 8, 8] == pytest.approx(0.7)

    def test_support(self):
        b = tf.bump_cutoff(G16, self.CENTER, 0.2, 0.7)
        offs = tf.torus_offsets(G16, self.CENTER)
        dist2 = sum(w**2 for w in offs)
        assert np.all(b.values[dist2 >= 0.2**2] == 0.0)
        assert np.all(b.values >= 0.0)
        assert np.all(b.values <= 0.7)

    @pytest.mark.parametrize("radius", [0.05, 0.2, 0.3, 0.49])
    def test_values_never_exceed_the_height(self, radius):
        # exp(1 - 1/(1 - s^2)) <= 1 in floating point as in exact arithmetic,
        # which keeps stage 2's c2 |a| at or below |a|
        for center in (self.CENTER, (0.0, 0.0, 0.0, 0.0), (0.03, 0.97, 0.5, 0.2)):
            b = tf.bump_cutoff(G16, center, radius, 1.0)
            assert b.values.max() <= 1.0

    def test_integral_bounds(self):
        b = tf.bump_cutoff(G16, self.CENTER, 0.2, 0.7)
        total = tf.integrate(b)
        assert 0.0 < total < 0.7 * np.pi**2 * 0.2**4 / 2.0  # volume of the radius-0.2 4-ball

    def test_wrap_around(self):
        b = tf.bump_cutoff(G16, (0.0, 0.0, 0.0, 0.0), 0.2, 1.0)
        # nodes on either side of the seam see the same profile
        assert b.values[1, 0, 0, 0] == pytest.approx(b.values[15, 0, 0, 0])

    @staticmethod
    def full_grid_support(grid, center, radius, height):
        """The support as the nonzero nodes of the bump evaluated on the
        whole grid, with s^2 summed over the four axes from 0."""
        s2 = np.zeros(grid.shape)
        for w in tf.torus_offsets(grid, center):
            s2 = s2 + (w / radius) ** 2
        vals = np.zeros(grid.shape)
        core = s2 < 1.0
        vals[core] = height * np.exp(1.0 - 1.0 / (1.0 - s2[core]))
        rows = np.flatnonzero(vals)
        return rows, vals.ravel()[rows], int(np.count_nonzero(core)) - rows.size

    @pytest.mark.parametrize("n", [8, 16, 24])
    @pytest.mark.parametrize("bump", [
        DEFAULT_BUMP1, DEFAULT_BUMP2,
        ((0.0, 0.0, 0.97, 0.02), 0.3, 0.5),
        ((0.97, 0.02, 0.0, 0.99), 0.25, 0.5),
    ], ids=["default1", "default2", "wrap1", "wrap2"])
    def test_support_is_the_nonzero_nodes_of_the_full_grid_bump(self, n, bump):
        if isinstance(bump, tuple):
            center, radius, height = bump
        else:
            center, radius, height = bump.center, bump.radius, bump.height
        grid = tf.GridSpec(n)
        rows, values = tf.bump_support(grid, center, radius, height)
        expect_rows, expect_values, _ = self.full_grid_support(grid, center, radius, height)
        assert rows.tobytes() == expect_rows.tobytes()
        assert values.tobytes() == expect_values.tobytes()
        assert tf.bump_cutoff(grid, center, radius, height).values.ravel()[rows].tobytes() \
            == values.tobytes()

    def test_nodes_where_the_profile_underflows_are_not_support(self):
        # 9 nodes of this wrapping bump have s < 1, but exp(1 - 1/(1 - s^2))
        # underflows to 0.0 there
        grid, center, radius = tf.GridSpec(24), (0.0, 0.0, 0.97, 0.02), 0.3
        _, _, underflows = self.full_grid_support(grid, center, radius, 0.5)
        assert underflows == 9
        rows, values = tf.bump_support(grid, center, radius, 0.5)
        assert np.all(values > 0.0) and np.all(np.diff(rows) > 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            tf.bump_cutoff(G16, self.CENTER, 0.6, 0.5)
        with pytest.raises(ValueError):
            tf.bump_cutoff(G16, self.CENTER, 0.2, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_center_is_rejected(self, bad):
        # a NaN center compares false everywhere, so it would give an empty bump
        center = (bad, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match=re.escape(f"center must be 4 finite numbers, got {center!r}")):
            tf.bump_cutoff(G16, center, 0.2, 0.7)

    @classmethod
    def derivative_rms_error(cls, grid, radius, height):
        """The rms residual of d_scalar of the bump against its analytic
        gradient.  The gradient is 0 off the bump's support, so it is formed
        on the support's rows alone, and the squared error is summed one
        component at a time: no temporary of the gradient's full size."""
        db = tf.d_scalar(tf.bump_cutoff(grid, cls.CENTER, radius, height))
        rows, profile = tf.bump_support(grid, cls.CENTER, radius, height)
        w = [off.ravel()[i] for off, i in zip(tf.torus_offsets(grid, cls.CENTER),
                                              np.unravel_index(rows, grid.shape))]
        s2 = sum((wa / radius) ** 2 for wa in w)
        factor = -2.0 * profile / (radius**2 * (1.0 - s2) ** 2)
        squares = 0.0
        for a, wa in enumerate(w):
            err = db.values[..., a].flatten()
            err[rows] -= factor * wa
            squares += float(err @ err)
        return float(np.sqrt(squares / db.values.size))

    def test_spectral_derivative_superalgebraic_decay(self):
        # the measurement bump is wide enough that the asymptotic decay
        # regime starts by n = 16; each grid's arrays are freed before the next
        errors = {n: self.derivative_rms_error(tf.GridSpec(n), 0.45, 1.0) for n in (16, 32, 64)}
        assert errors[32] < 0.2 * errors[16]
        assert errors[64] < 0.2 * errors[32]


class TestSpectralTruncate:
    def test_removes_high_modes(self):
        xs = G16.coords()
        f = tf.ScalarField(
            G16,
            np.cos(2 * np.pi * xs[0]) + np.cos(2 * np.pi * 6 * xs[1]) + np.zeros(G16.shape),
        )
        g = spectral_truncate(f, 3)
        np.testing.assert_allclose(
            g.values, np.cos(2 * np.pi * xs[0]) + np.zeros(G16.shape), atol=1e-12
        )

    @staticmethod
    def fft_mask_truncate(field, max_mode):
        """The low-pass as a transform pair: one real FFT over the grid
        axes, every mode with an axis frequency above ``max_mode`` zeroed,
        one inverse FFT."""
        grid = field.grid
        keep = np.ones(1, dtype=bool)
        for k in half_spectrum_wavenumbers(grid):
            keep = keep & (np.abs(k) <= max_mode)
        keep = keep.reshape(keep.shape + (1,) * len(field.NCOMP))
        spec = np.fft.rfftn(field.values, axes=tf.GRID_AXES) * keep
        return np.fft.irfftn(spec, s=grid.shape, axes=tf.GRID_AXES)

    @pytest.mark.parametrize("n", [4, 6, 8, 16])
    def test_equals_the_fft_mask_route(self, n):
        grid = tf.GridSpec(n)
        rng = np.random.default_rng(n)
        for cls in FIELD_KINDS:
            field = cls(grid, rng.standard_normal(grid.shape + cls.NCOMP))
            for max_mode in range(n // 2):
                got = spectral_truncate(field, max_mode)
                assert type(got) is cls
                dev = np.max(np.abs(got.values - self.fft_mask_truncate(field, max_mode)))
                assert dev <= 1e-14, (cls.__name__, max_mode, dev)

    def test_a_batch_is_projected_as_its_fields_are(self):
        noise = np.random.default_rng(4).standard_normal((2,) + G8.shape)
        batch = tf.low_pass(noise.copy(), G8, 2)
        for field, low in zip(noise, batch):
            one = spectral_truncate(tf.ScalarField(G8, field), 2).values
            assert np.max(np.abs(low - one)) <= 1e-15

    @pytest.mark.parametrize("max_mode", [1.5, 2.0, -1, 4, "2"])
    def test_refuses_a_max_mode_that_is_not_an_integer_below_n_half(self, max_mode):
        field = scalar_constant(G8, 1.0)
        with pytest.raises(ValueError, match=re.escape(f"got {max_mode!r}")):
            spectral_truncate(field, max_mode)

    @pytest.mark.parametrize("shift", [(1, 0, 0, 0), (0, -3, 5, 2), (7, 7, 7, 7)])
    def test_commutes_with_whole_node_translations(self, shift):
        rng = np.random.default_rng(5)
        field = tf.TwoFormField(G8, rng.standard_normal(G8.shape + (6,)))
        rolled = tf.TwoFormField(G8, np.roll(field.values, shift, axis=tf.GRID_AXES))
        for max_mode in range(G8.n // 2):
            low = spectral_truncate(field, max_mode).values
            dev = np.abs(spectral_truncate(rolled, max_mode).values
                         - np.roll(low, shift, axis=tf.GRID_AXES))
            assert np.max(dev) <= 1e-14, (max_mode, np.max(dev))

    def test_low_pass_refuses_memory_it_cannot_overwrite(self):
        values = np.random.default_rng(6).standard_normal(G8.shape)
        # a transposed view, and a field's read-only values
        for bad in (values.T, tf.ScalarField(G8, values).values):
            with pytest.raises(ValueError, match="writable and C-contiguous"):
                tf.low_pass(bad, G8, 2)
        low = tf.low_pass(values, G8, 2)
        assert low is values
