"""Spectral calculus: single-mode oracles, structural identities, bump behavior."""

import numpy as np
import pytest

from ajclab import pointlin as pl
from ajclab import torusfield as tf

G8 = tf.GridSpec(8)
G16 = tf.GridSpec(16)


def scalar_constant(grid, value):
    return tf.ScalarField(grid, np.full(grid.shape, float(value)))


def reference_partials(values, grid):
    """All four spectral partial derivatives, stacked on a new last axis:
    one full complex FFT over the grid axes, then per axis a 2 pi i k
    multiplier with the Nyquist mode zeroed and an inverse complex FFT.
    An independent reference for the real half-spectrum multipliers."""
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
    f = tf.spectral_truncate(noise, kmax)
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


class TestHalfSpectrumMultipliers:
    """The rfftn multipliers against per-axis complex-FFT partials."""

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
        # cos(pi n x_a) is the Nyquist mode of axis a; axis 3 is the half axis
        xs = [c + np.zeros(grid.shape) for c in grid.coords()]
        nyquist = np.cos(np.pi * grid.n * xs[axis])
        f = tf.ScalarField(grid, nyquist)
        assert tf.d_scalar(f).max_abs() <= 1e-12
        theta = tf.OneFormField(grid, np.stack([nyquist] * 4, axis=-1))
        assert tf.d_oneform(theta).max_abs() <= 1e-12
        phi = tf.TwoFormField(grid, np.stack([nyquist] * 6, axis=-1))
        assert tf.d_twoform(phi).max_abs() <= 1e-12
        assert tf.codiff_twoform(phi).max_abs() <= 1e-12
        # the inverse real FFT drops the anti-Hermitian part that one odd
        # multiplier leaves on a Nyquist bin, so only a product of two
        # multipliers, as in the fused d delta, shows an unzeroed bin
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

    def test_integral_bounds(self):
        b = tf.bump_cutoff(G16, self.CENTER, 0.2, 0.7)
        total = tf.integrate(b)
        assert 0.0 < total < 0.7 * np.pi**2 * 0.2**4 / 2.0  # volume of the radius-0.2 4-ball

    def test_wrap_around(self):
        b = tf.bump_cutoff(G16, (0.0, 0.0, 0.0, 0.0), 0.2, 1.0)
        # nodes on either side of the seam see the same profile
        assert b.values[1, 0, 0, 0] == pytest.approx(b.values[15, 0, 0, 0])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            tf.bump_cutoff(G16, self.CENTER, 0.6, 0.5)
        with pytest.raises(ValueError):
            tf.bump_cutoff(G16, self.CENTER, 0.2, 0.0)

    def test_spectral_derivative_superalgebraic_decay(self):
        # rms residual against the analytic gradient; the measurement bump is
        # wide enough that the asymptotic decay regime starts by n = 16
        radius, height = 0.45, 1.0
        errors = {}
        for n in (16, 32, 64):
            grid = tf.GridSpec(n)
            b = tf.bump_cutoff(grid, self.CENTER, radius, height)
            db = tf.d_scalar(b)
            offs = tf.torus_offsets(grid, self.CENTER)
            s2 = sum(w**2 for w in offs) / radius**2
            core = s2 < 1.0
            grad = np.zeros(grid.shape + (4,))
            profile = np.zeros(grid.shape)
            profile[core] = height * np.exp(1.0 - 1.0 / (1.0 - s2[core]))
            for a, w in enumerate(offs):
                grad[core, a] = (
                    -2.0 * profile[core] * (w + np.zeros(grid.shape))[core]
                    / (radius**2 * (1.0 - s2[core]) ** 2)
                )
            errors[n] = float(np.sqrt(np.mean((db.values - grad) ** 2)))
        assert errors[32] < 0.2 * errors[16]
        assert errors[64] < 0.2 * errors[32]


class TestSpectralTruncate:
    def test_removes_high_modes(self):
        xs = G16.coords()
        f = tf.ScalarField(
            G16,
            np.cos(2 * np.pi * xs[0]) + np.cos(2 * np.pi * 6 * xs[1]) + np.zeros(G16.shape),
        )
        g = tf.spectral_truncate(f, 3)
        np.testing.assert_allclose(
            g.values, np.cos(2 * np.pi * xs[0]) + np.zeros(G16.shape), atol=1e-12
        )
