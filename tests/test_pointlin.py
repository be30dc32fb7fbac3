"""Pointwise algebra: frozen example values plus independent brute-force oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ajclab import pointlin as pl

#: rows are the anti-self-dual mirror frame of pl.OMEGA_SD
OMEGA_ASD = pl.OMEGA_SD * np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])


def e(i, j):
    """Basis 2-form e_ij as a 6-component vector (1-based indices)."""
    v = np.zeros(6)
    v[pl.PAIRS.index((i - 1, j - 1))] = 1.0
    return v


def levi_civita():
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        sign = 1
        p = list(perm)
        for a in range(4):
            for b in range(a + 1, 4):
                if p[a] > p[b]:
                    sign = -sign
        eps[perm] = sign
    return eps


EPS = levi_civita()


def oracle_wedge(phi, psi):
    """phi ^ psi via a full Levi-Civita contraction of the antisymmetric matrices."""
    A = pl.form_to_matrix(phi)
    B = pl.form_to_matrix(psi)
    return float(np.einsum("ijkl,ij,kl->", EPS, A, B)) / 4.0


def oracle_star(phi):
    """Solve psi ^ (star phi) = <psi, phi> dmu for star phi over the basis."""
    W = np.array([[oracle_wedge(e_i, e_j) for e_j in np.eye(6)] for e_i in np.eye(6)])
    return np.linalg.solve(W, np.asarray(phi, float))


def oracle_pull_back(J, phi):
    A = pl.form_to_matrix(phi)
    out = np.zeros(6)
    for c, (i, j) in enumerate(pl.PAIRS):
        out[c] = sum(J[k, i] * J[l, j] * A[k, l] for k in range(4) for l in range(4))
    return out


def random_acs(rng, size=()):
    """Compatible structures built by deforming J0 with a random constant
    anti-invariant form of wedge norm < 1."""
    ab = rng.uniform(-1, 1, size=size + (2,))
    norm = np.sqrt(np.sum(ab**2, axis=-1, keepdims=True))
    scale = rng.uniform(0.0, 0.9, size=size + (1,)) / np.maximum(norm, 1e-12)
    ab = ab * scale
    alpha = ab[..., :1] * pl.OMEGA2 + ab[..., 1:] * pl.OMEGA3
    return deform_acs(np.broadcast_to(pl.J0, size + (4, 4)), alpha)


def deform_acs(J, alpha):
    return pl.deform_pair(J, alpha)[0]


def random_anti_invariant(rng, J, max_norm=0.9):
    """Random anti-invariant forms for J via projection, rescaled below max_norm."""
    size = J.shape[:-2]
    phi = rng.standard_normal(size + (6,))
    alpha = pl.split_j(J, phi).minus
    nsq = pl.wedge_norm_sq(alpha)
    target = rng.uniform(0.0, max_norm**2, size=size)
    alpha = alpha * np.sqrt(target / np.maximum(nsq, 1e-30))[..., None]
    return alpha


class TestWedge:
    def test_basis_pair(self):
        assert pl.wedge_to_volume(e(1, 2), e(3, 4)) == 1.0

    def test_omega1_square(self):
        assert pl.wedge_to_volume(pl.OMEGA1, pl.OMEGA1) == 2.0

    def test_omega1_omega2_cross(self):
        # derived by expanding in the e_ij basis; cross-checked by the oracle
        assert pl.wedge_to_volume(pl.OMEGA1, pl.OMEGA2) == 0.0
        assert oracle_wedge(pl.OMEGA1, pl.OMEGA2) == 0.0

    def test_matches_oracle_and_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            phi, psi = rng.standard_normal((2, 6))
            w = pl.wedge_to_volume(phi, psi)
            assert w == pytest.approx(oracle_wedge(phi, psi), abs=1e-12)
            assert w == pytest.approx(pl.wedge_to_volume(psi, phi), abs=1e-14)

    @staticmethod
    def sum_over_components(phi, psi):
        """The wedge as one sum over a (..., 6) array of signed products."""
        return np.sum(pl._WEDGE_SIGN * phi * psi[..., pl._WEDGE_PARTNER], axis=-1)

    @pytest.mark.parametrize("layout", ["grid", "views", "broadcast"])
    def test_equals_the_sum_over_components_bit_for_bit(self, layout):
        rng = np.random.default_rng(13)
        phi, psi = rng.standard_normal((2, 6, 6, 6, 6, 6)) * np.exp(
            rng.uniform(-20.0, 20.0, (2, 6, 6, 6, 6, 6)))
        if layout == "views":
            # a strided slab, and components gathered from a transposed array
            phi = phi[::2, :, 1:]
            psi = np.moveaxis(np.ascontiguousarray(np.moveaxis(psi, -1, 0)), 0, -1)[::2, :, :-1]
        elif layout == "broadcast":
            psi = np.broadcast_to(psi[0, 0, 0, 0], phi.shape)
        got = pl.wedge_to_volume(phi, psi)
        assert got.shape == phi.shape[:-1]
        assert got.tobytes() == self.sum_over_components(phi, psi).tobytes()

    def test_signed_zeros_sum_as_the_sum_over_components(self):
        # every sign pattern of +-0.0 in both forms, the all -0.0 products
        # included: the sum starts from +0.0, so no result is -0.0
        signs = np.array(list(itertools.product((0.0, -0.0), repeat=12)))
        phi, psi = signs[:, :6], signs[:, 6:]
        products = pl._WEDGE_SIGN * phi * psi[:, pl._WEDGE_PARTNER]
        assert np.any(np.all(np.signbit(products), axis=-1))
        got = pl.wedge_to_volume(phi, psi)
        assert got.tobytes() == self.sum_over_components(phi, psi).tobytes()
        assert not np.any(np.signbit(got))

    def test_swapped_arguments_sum_in_another_order(self):
        # psi ^ phi adds the same products in reverse order, so the two can
        # differ by rounding; the battery's symmetry check measures that
        rng = np.random.default_rng(14)
        phi, psi = rng.standard_normal((2, 4096, 6))
        forward, backward = pl.wedge_to_volume(phi, psi), pl.wedge_to_volume(psi, phi)
        assert np.any(forward != backward)
        np.testing.assert_allclose(forward, backward, rtol=0.0, atol=1e-14)

    def test_a_single_point_gives_a_scalar(self):
        assert np.ndim(pl.wedge_to_volume(pl.OMEGA2, pl.OMEGA2)) == 0


class TestHodgeStar:
    def test_e12(self):
        np.testing.assert_allclose(pl.hodge_star(e(1, 2)), e(3, 4))

    def test_self_dual_frame_fixed(self):
        for w in pl.OMEGA_SD:
            np.testing.assert_allclose(pl.hodge_star(w), w)
        for w in OMEGA_ASD:
            np.testing.assert_allclose(pl.hodge_star(w), -w)

    def test_e13_sign_via_oracle(self):
        np.testing.assert_allclose(pl.hodge_star(e(1, 3)), -e(2, 4))
        np.testing.assert_allclose(oracle_star(e(1, 3)), -e(2, 4), atol=1e-14)

    def test_involutive_and_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            phi = rng.standard_normal(6)
            np.testing.assert_allclose(pl.hodge_star(pl.hodge_star(phi)), phi)
            np.testing.assert_allclose(pl.hodge_star(phi), oracle_star(phi), atol=1e-12)


class TestSplitSd:
    def test_omega2_pure(self):
        s = pl.split_sd(pl.OMEGA2)
        np.testing.assert_allclose(s.plus, pl.OMEGA2)
        np.testing.assert_allclose(s.minus, 0.0)

    def test_e12(self):
        s = pl.split_sd(e(1, 2))
        np.testing.assert_allclose(s.plus, (e(1, 2) + e(3, 4)) / 2)
        np.testing.assert_allclose(s.minus, (e(1, 2) - e(3, 4)) / 2)

    def test_reconstruction_and_cross_term(self):
        rng = np.random.default_rng(2)
        phi = rng.standard_normal(6)
        s = pl.split_sd(phi)
        np.testing.assert_allclose(s.plus + s.minus, phi, atol=1e-14)
        assert pl.wedge_to_volume(s.plus, s.minus) == pytest.approx(0.0, abs=1e-12)


class TestPullBack:
    def test_fixes_own_fundamental_form(self):
        np.testing.assert_allclose(pl.pull_back(pl.J0, pl.OMEGA1), pl.OMEGA1, atol=1e-14)
        np.testing.assert_allclose(
            oracle_pull_back(pl.J0, pl.OMEGA1), pl.OMEGA1, atol=1e-14
        )

    def test_negates_omega2(self):
        np.testing.assert_allclose(pl.pull_back(pl.J0, pl.OMEGA2), -pl.OMEGA2, atol=1e-14)
        np.testing.assert_allclose(
            oracle_pull_back(pl.J0, pl.OMEGA2), -pl.OMEGA2, atol=1e-14
        )

    def test_identity_map(self):
        phi = np.arange(6.0)
        np.testing.assert_allclose(pl.pull_back(np.eye(4), phi), phi)

    def test_matches_oracle_for_random_endo(self):
        rng = np.random.default_rng(3)
        J = rng.standard_normal((4, 4))
        phi = rng.standard_normal(6)
        np.testing.assert_allclose(
            pl.pull_back(J, phi), oracle_pull_back(J, phi), atol=1e-12
        )


class TestSplitJ:
    def test_omega2_anti_invariant(self):
        s = pl.split_j(pl.J0, pl.OMEGA2)
        np.testing.assert_allclose(s.plus, 0.0, atol=1e-14)
        np.testing.assert_allclose(s.minus, pl.OMEGA2, atol=1e-14)

    def test_omega1_invariant(self):
        s = pl.split_j(pl.J0, pl.OMEGA1)
        np.testing.assert_allclose(s.plus, pl.OMEGA1, atol=1e-14)
        np.testing.assert_allclose(s.minus, 0.0, atol=1e-14)

    def test_anti_self_dual_forms_invariant(self):
        phi = e(1, 2) - e(3, 4)
        s = pl.split_j(pl.J0, phi)
        np.testing.assert_allclose(s.plus, phi, atol=1e-14)
        np.testing.assert_allclose(s.minus, 0.0, atol=1e-14)

    def test_rejects_non_structure(self):
        with pytest.raises(ValueError, match="-Id"):
            pl.split_j(np.eye(4), pl.OMEGA1)

    def test_structure_threshold_is_1e_9(self):
        # ((1 + s) J0)^2 = -(1 + s)^2 Id differs from -Id by about 2 s
        pl.split_j((1.0 + 0.25e-9) * pl.J0, pl.OMEGA2)
        with pytest.raises(ValueError, match="-Id"):
            pl.split_j((1.0 + 1e-9) * pl.J0, pl.OMEGA2)


class TestFundamentalForm:
    def test_standard(self):
        # F(e1,e2) = g(e2,e2) = 1, F(e3,e4) = 1, expanded from the definition
        np.testing.assert_allclose(pl.fundamental_form(pl.J0), pl.OMEGA1)
        F = np.zeros(6)
        for c, (i, j) in enumerate(pl.PAIRS):
            F[c] = np.dot(pl.J0[:, i], np.eye(4)[:, j])
        np.testing.assert_allclose(F, pl.OMEGA1)

    def test_linearity_in_sign(self):
        np.testing.assert_allclose(pl.fundamental_form(-pl.J0), -pl.OMEGA1)

    def test_norm_two_for_random_structures(self):
        rng = np.random.default_rng(4)
        J = random_acs(rng, (32,))
        F = pl.fundamental_form(J)
        np.testing.assert_allclose(pl.form_inner(F, F), 2.0, atol=1e-12)

    def test_rejects_non_compatible(self):
        with pytest.raises(ValueError):
            pl.fundamental_form(2.0 * pl.J0)


class TestAcsFromSdForm:
    def test_omega1_gives_standard(self):
        np.testing.assert_allclose(pl.acs_from_sd_form(pl.OMEGA1), pl.J0, atol=1e-14)

    def test_round_trip_omega2(self):
        J = pl.acs_from_sd_form(pl.OMEGA2)
        np.testing.assert_allclose(pl.fundamental_form(J), pl.OMEGA2, atol=1e-14)

    def test_agrees_with_deformation(self):
        t = 0.5
        F = (1 - t**2) / (1 + t**2) * pl.OMEGA1 + 2 * t / (1 + t**2) * pl.OMEGA2
        J_direct = pl.acs_from_sd_form(F)
        J_deform = deform_acs(pl.J0, t * pl.OMEGA2)
        np.testing.assert_allclose(J_direct, J_deform, atol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="self-dual"):
            pl.acs_from_sd_form(e(1, 2) - e(3, 4) + pl.OMEGA1)
        with pytest.raises(ValueError, match="wedge-normalized"):
            pl.acs_from_sd_form(2.0 * pl.OMEGA1)


class TestKEndo:
    """K_alpha = form_to_matrix(alpha), the endomorphism with g(X, K Y) = alpha(X, Y)."""

    def test_omega2_action(self):
        K = pl.form_to_matrix(pl.OMEGA2)
        basis = np.eye(4)
        np.testing.assert_allclose(K @ basis[2], basis[0])   # K e3 = e1
        np.testing.assert_allclose(K @ basis[0], -basis[2])  # K e1 = -e3
        np.testing.assert_allclose(K @ basis[3], -basis[1])  # K e4 = -e2
        np.testing.assert_allclose(K @ basis[1], basis[3])   # K e2 = e4

    def test_defining_identity(self):
        rng = np.random.default_rng(5)
        alpha = rng.standard_normal(6)
        K = pl.form_to_matrix(alpha)
        for i, j in pl.PAIRS:
            assert np.eye(4)[i] @ K @ np.eye(4)[j] == alpha[pl.PAIRS.index((i, j))]
            assert np.eye(4)[j] @ K @ np.eye(4)[i] == -alpha[pl.PAIRS.index((i, j))]

    def test_zero_and_skew(self):
        np.testing.assert_allclose(pl.form_to_matrix(np.zeros(6)), 0.0)
        rng = np.random.default_rng(6)
        K = pl.form_to_matrix(rng.standard_normal(6))
        np.testing.assert_allclose(K + K.T, 0.0)


class TestSelfDualCoords:
    """The structure and its deformation in the coordinates y of its fundamental form."""

    def test_frame_structures(self):
        for y, form in zip(np.eye(3), pl.OMEGA_SD):
            np.testing.assert_array_equal(pl.acs_from_coords(y), pl.acs_from_sd_form(form))
        np.testing.assert_array_equal(pl.acs_from_coords([1.0, 0.0, 0.0]), pl.J0)

    def test_frame_structures_are_quaternionic(self):
        # exact: J_k J_l + J_l J_k = -2 delta_kl Id and J_k^T = -J_k
        Js = [pl.acs_from_coords(y) for y in np.eye(3)]
        for k, l in itertools.product(range(3), repeat=2):
            anti = Js[k] @ Js[l] + Js[l] @ Js[k]
            assert np.array_equal(anti, -2.0 * (k == l) * np.eye(4))
        for J in Js:
            assert np.array_equal(J.T, -J)

    def test_unit_defect_of_y_is_the_structure_defect(self):
        # hence J^2 + Id = (1 - |y|^2) Id = Id - J^T J for any y, unit or not
        y = np.random.default_rng(11).uniform(-1.0, 1.0, (64, 3))
        J = pl.acs_from_coords(y)
        gap = (1.0 - np.sum(y * y, axis=-1))[:, None, None] * np.eye(4)
        np.testing.assert_allclose(J @ J + np.eye(4), gap, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(np.eye(4) - np.swapaxes(J, -1, -2) @ J, gap, rtol=0.0, atol=1e-15)

    def test_half_omega2_case(self):
        a = np.array([0.0, 0.5, 0.0])
        y = pl.deform_coords(np.array([1.0, 0.0, 0.0]), a, pl.coords_norm_sq(a))
        np.testing.assert_allclose(y, [0.6, 0.8, 0.0], atol=1e-15)

    @pytest.mark.parametrize("layout", ["grid", "broadcast y", "support rows"])
    def test_equals_the_broadcast_formula_bit_for_bit(self, layout):
        def broadcast_formula(y, a):
            nsq = np.sum(a * a, axis=-1, keepdims=True)
            return ((1.0 - nsq) * y + 2.0 * a) / (1.0 + nsq)

        rng = np.random.default_rng(12)
        shape = (8, 8, 8, 8, 3)
        y = rng.standard_normal(shape)
        y /= np.linalg.norm(y, axis=-1, keepdims=True)
        a = 0.6 * rng.uniform(-1.0, 1.0, shape)
        if layout == "broadcast y":
            # the constant e1 of a random structure, with component-major a
            y = np.broadcast_to([1.0, 0.0, 0.0], shape)
            a = np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)
        elif layout == "support rows":
            rows = np.flatnonzero(rng.uniform(size=shape[:-1]) < 0.1)
            y, a = y.reshape(-1, 3)[rows], a.reshape(-1, 3)[rows]
        got = pl.deform_coords(y, a, pl.coords_norm_sq(a))
        assert got.shape == np.broadcast_shapes(y.shape, a.shape)
        assert got.tobytes() == broadcast_formula(y, a).tobytes()

    def test_matches_deform_pair(self):
        rng = np.random.default_rng(10)
        J = random_acs(rng, (64,))
        alpha = random_anti_invariant(rng, J)
        y = pl.fundamental_form(J) @ pl.OMEGA_SD.T / 2.0
        a = alpha @ pl.OMEGA_SD.T / 2.0
        y_new = pl.deform_coords(y, a, pl.coords_norm_sq(a))
        J_pair, F_pair = pl.deform_pair(J, alpha)
        np.testing.assert_allclose(pl.acs_from_coords(y), J, atol=1e-12)
        np.testing.assert_allclose(pl.acs_from_coords(y_new), J_pair, atol=1e-12)
        np.testing.assert_allclose(y_new @ pl.OMEGA_SD, F_pair, atol=1e-12)


class TestWedgeNormSq:
    def test_omega2(self):
        assert pl.wedge_norm_sq(pl.OMEGA2) == 1.0

    def test_homogeneity(self):
        assert pl.wedge_norm_sq(0.7 * pl.OMEGA2) == pytest.approx(0.49)

    def test_mixture(self):
        alpha = 0.3 * pl.OMEGA2 + 0.4 * pl.OMEGA3
        assert pl.wedge_norm_sq(alpha) == pytest.approx(0.25)

    def test_rejects_non_self_dual(self):
        with pytest.raises(ValueError, match="self-dual"):
            pl.wedge_norm_sq(e(1, 2))


class TestDeformAcs:
    """The structure half of deform_pair."""

    def test_zero_deformation(self):
        np.testing.assert_allclose(deform_acs(pl.J0, np.zeros(6)), pl.J0)

    def test_half_omega2_case(self):
        # closed form with |alpha|^2 = 0.25: (0.6) J0 - (1.6) K_{0.5 omega2}
        J = deform_acs(pl.J0, 0.5 * pl.OMEGA2)
        expected = 0.6 * pl.J0 - 1.6 * pl.form_to_matrix(0.5 * pl.OMEGA2)
        np.testing.assert_allclose(J, expected, atol=1e-12)
        np.testing.assert_allclose(J @ J, -np.eye(4), atol=1e-12)

    def test_near_unit_norm_stays_valid(self):
        t = 1.0 - 1e-6
        J = deform_acs(pl.J0, t * pl.OMEGA2)
        np.testing.assert_allclose(J @ J, -np.eye(4), atol=1e-9)
        F = pl.fundamental_form(J)
        # the fundamental form approaches the omega2 direction
        assert abs(F @ pl.OMEGA2) > abs(F @ pl.OMEGA1)

    def test_rejects_large_norm(self):
        with pytest.raises(ValueError, match=">= 1"):
            deform_acs(pl.J0, 1.5 * pl.OMEGA2)

    def test_rejects_invariant_direction(self):
        with pytest.raises(ValueError, match="anti-invariant"):
            deform_acs(pl.J0, 0.5 * pl.OMEGA1)


class TestFDeformed:
    """The fundamental-form half of deform_pair."""

    def test_zero(self):
        np.testing.assert_allclose(pl.deform_pair(pl.J0, np.zeros(6))[1], pl.OMEGA1)

    def test_half_omega2_value(self):
        F = pl.deform_pair(pl.J0, 0.5 * pl.OMEGA2)[1]
        np.testing.assert_allclose(F, 0.6 * pl.OMEGA1 + 0.8 * pl.OMEGA2, atol=1e-14)

    def test_unit_wedge_norm(self):
        rng = np.random.default_rng(7)
        J = random_acs(rng, (64,))
        alpha = random_anti_invariant(rng, J)
        F = pl.deform_pair(J, alpha)[1]
        np.testing.assert_allclose(pl.wedge_norm_sq(F), 1.0, atol=1e-12)


class TestJActAnti:
    def test_omega2_to_omega3(self):
        np.testing.assert_allclose(pl.j_act_anti(pl.J0, pl.OMEGA2), pl.OMEGA3, atol=1e-14)
        # expand the definition -(alpha)(J e_i, e_j) entrywise
        A = pl.form_to_matrix(pl.OMEGA2)
        out = np.zeros(6)
        for c, (i, j) in enumerate(pl.PAIRS):
            out[c] = -sum(pl.J0[k, i] * A[k, j] for k in range(4))
        np.testing.assert_allclose(out, pl.OMEGA3)

    def test_square_is_minus_id(self):
        np.testing.assert_allclose(pl.j_act_anti(pl.J0, pl.OMEGA3), -pl.OMEGA2, atol=1e-14)

    def test_zero(self):
        np.testing.assert_allclose(pl.j_act_anti(pl.J0, np.zeros(6)), 0.0)

    def test_rejects_invariant(self):
        with pytest.raises(ValueError, match="anti-invariant"):
            pl.j_act_anti(pl.J0, pl.OMEGA1)

    def test_output_anti_invariant_for_random_structures(self):
        rng = np.random.default_rng(8)
        J = random_acs(rng, (16,))
        alpha = random_anti_invariant(rng, J)
        out = pl.j_act_anti(J, alpha)
        np.testing.assert_allclose(pl.split_j(J, out).plus, 0.0, atol=1e-10)
        np.testing.assert_allclose(pl.j_act_anti(J, out), -alpha, atol=1e-10)


coeff = st.floats(-0.65, 0.65)


class TestDeformationProperties:
    @settings(max_examples=60, deadline=None)
    @given(a=coeff, b=coeff, phi=st.lists(st.floats(-5, 5), min_size=6, max_size=6))
    def test_splittings_reconstruct_and_behave(self, a, b, phi):
        J = deform_acs(pl.J0, a * pl.OMEGA2 + b * pl.OMEGA3)
        phi = np.array(phi)
        sj = pl.split_j(J, phi)
        sd = pl.split_sd(phi)
        scale = max(1.0, np.max(np.abs(phi)))
        np.testing.assert_allclose(sj.plus + sj.minus, phi, atol=1e-10 * scale)
        np.testing.assert_allclose(sd.plus + sd.minus, phi, atol=1e-10 * scale)
        np.testing.assert_allclose(pl.pull_back(J, sj.plus), sj.plus, atol=1e-10 * scale)
        np.testing.assert_allclose(pl.pull_back(J, sj.minus), -sj.minus, atol=1e-10 * scale)

    @settings(max_examples=60, deadline=None)
    @given(a=coeff, b=coeff, phi=st.lists(st.floats(-5, 5), min_size=6, max_size=6))
    def test_plane_relations(self, a, b, phi):
        J = deform_acs(pl.J0, a * pl.OMEGA2 + b * pl.OMEGA3)
        F = pl.fundamental_form(J)
        phi = np.array(phi)
        scale = max(1.0, np.max(np.abs(phi)))
        # invariant part = span(F) + anti-self-dual plane
        plus_sd = pl.split_sd(pl.split_j(J, phi).plus).plus
        resid = plus_sd - (pl.form_inner(plus_sd, F) / 2.0) * F
        np.testing.assert_allclose(resid, 0.0, atol=1e-10 * scale)
        # anti-invariant part is self-dual and orthogonal to F
        minus = pl.split_j(J, phi).minus
        np.testing.assert_allclose(minus - pl.hodge_star(minus), 0.0, atol=1e-10 * scale)
        assert abs(pl.form_inner(minus, F)) <= 1e-10 * scale

    @settings(max_examples=60, deadline=None)
    @given(a=coeff, b=coeff, c=coeff, d=coeff)
    def test_anti_invariant_forms_are_never_anti_self_dual(self, a, b, c, d):
        J = deform_acs(pl.J0, a * pl.OMEGA2 + b * pl.OMEGA3)
        alpha = pl.split_j(J, c * pl.OMEGA2 + d * pl.OMEGA3).minus
        np.testing.assert_allclose(pl.split_sd(alpha).minus, 0.0, atol=1e-10)

    def test_invertibility_determinant_bound(self):
        rng = np.random.default_rng(9)
        J = random_acs(rng, (256,))
        alpha = random_anti_invariant(rng, J, max_norm=0.97)
        nsq = pl.wedge_norm_sq(alpha)
        T = np.eye(4) + J @ pl.form_to_matrix(alpha)
        det = np.linalg.det(T)
        assert np.all(det >= (1.0 - nsq) ** 2 - 1e-10)
