"""Gram method, volume estimates, the elliptic oracle, and subspace relations."""

import json
import math
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elliptic_reference as reference
from spectral_reference import spectral_truncate
from constant_fields import constant_twoform, from_values
from ajclab import battery, cohomlab, hermitian as hm, pointlin as pl, torusfield as tf
from ajclab.config import LabConfig
from ajclab.reporting import to_json

G4 = tf.GridSpec(4)
G6 = tf.GridSpec(6)
G8 = tf.GridSpec(8)
GOLDEN = Path(__file__).with_name("data") / "golden_gram.json"

BUMP1 = hm.BumpSpec((0.5, 0.5, 0.5, 0.5), 0.3, 0.5)
BUMP2 = hm.BumpSpec((1 / 3, 1 / 3, 1 / 3, 1 / 3), 0.25, 0.5)


def constant_triple(grid, coords):
    """Triple with constant fundamental form sum_k coords_k omega_k."""
    F = constant_twoform(grid, np.asarray(coords, float) @ pl.OMEGA_SD)
    return hm.triple_from_form_field(F)


E1, E2, E3 = np.eye(3)


class TestHarmonicBasis:
    """The constant forms omega_k that coordinates w refer to."""

    def test_cup_orthonormal_and_closed(self):
        forms = [constant_twoform(G8, w) for w in pl.OMEGA_SD]
        for i, wi in enumerate(forms):
            for j, wj in enumerate(forms):
                expect = 2.0 if i == j else 0.0
                assert tf.wedge_integral(wi, wj) == pytest.approx(expect, abs=1e-14)
            assert tf.d_twoform(wi).max_abs() == 0.0


class TestFOmega:
    def test_standard_values(self):
        triple = hm.standard_acs(G8)
        np.testing.assert_allclose(cohomlab.f_omega(triple, E1).values, 2.0)
        np.testing.assert_allclose(cohomlab.f_omega(triple, E2).values, 0.0)

    def test_deformed_constant(self):
        triple = constant_triple(G8, [0.6, 0.8, 0.0])
        np.testing.assert_allclose(cohomlab.f_omega(triple, E2).values, 1.6, atol=1e-12)

    def test_matches_form_inner_product(self):
        triple = hm.random_compatible_acs(G8, seed=9, amplitude=0.5, bandlimit=2)
        w = np.array([0.3, -0.5, 0.8])
        expected = pl.form_inner(w @ pl.OMEGA_SD, triple.F.values)
        np.testing.assert_allclose(cohomlab.f_omega(triple, w).values, expected, atol=1e-14)


class TestGram:
    def test_standard_structure(self):
        report = cohomlab.gram_matrix(hm.standard_acs(G8))
        np.testing.assert_allclose(report.matrix, np.diag([4.0, 0.0, 0.0]), atol=1e-12)
        assert report.h_minus == 2
        # kernel spans the (omega2, omega3) coordinate plane
        span = report.null_coords
        assert np.allclose(np.abs(span), np.array([[0, 0, 1], [0, 1, 0]]), atol=1e-12)

    def test_rank_one_constant_form(self):
        report = cohomlab.gram_matrix(constant_triple(G8, [0.6, 0.8, 0.0]))
        assert report.h_minus == 2
        # kernel is the orthogonal complement of the (0.6, 0.8, 0) direction
        for v in report.null_coords:
            assert abs(v @ np.array([0.6, 0.8, 0.0])) <= 1e-12

    def test_generic_structure_trivial_kernel(self):
        triple = hm.random_compatible_acs(tf.GridSpec(16), seed=1, amplitude=0.3, bandlimit=2)
        report = cohomlab.gram_matrix(triple)
        assert report.h_minus == 0
        assert report.lambda_min() > 10.0 * report.threshold

    def test_psd_and_symmetric(self):
        triple = hm.random_compatible_acs(G8, seed=9, amplitude=0.5, bandlimit=2)
        report = cohomlab.gram_matrix(triple)
        np.testing.assert_allclose(report.matrix, report.matrix.T, atol=1e-14)
        assert report.eigenvalues[0] >= -1e-12

    @pytest.mark.parametrize("tol_null", [np.nan, -1.0, 0.0, 1.0, np.inf])
    def test_tol_null_outside_the_unit_interval_rejected(self, tol_null):
        # a NaN or negative threshold would count no eigenvalue as null
        with pytest.raises(ValueError, match=re.escape(f"tol_null must lie in (0, 1), got {tol_null}")):
            cohomlab.gram_matrix(hm.standard_acs(G8), tol_null=tol_null)

    def test_each_entry_is_within_4_gamma_n_of_an_exact_node_sum(self):
        base = hm.standard_acs(G8)
        structures = [base, *hm.two_stage_deform(base, BUMP1, BUMP2)[:2],
                      hm.random_compatible_acs(G8, seed=9, amplitude=0.5, bandlimit=2)]
        for triple in structures:
            G = cohomlab.gram_matrix(triple).matrix
            dev = np.max(np.abs(G - exact_gram(triple.planes.reshape(3, -1))))
            assert dev <= gram_rounding_bound(G8.node_count), dev

    def test_a_gram_that_drops_one_node_is_outside_the_bound(self):
        triple = hm.random_compatible_acs(G8, seed=9, amplitude=0.5, bandlimit=2)
        planes = triple.planes.reshape(3, -1)
        G = cohomlab.gram_matrix(SimpleNamespace(grid=G8, planes=planes[:, 1:])).matrix
        assert np.max(np.abs(G - exact_gram(planes))) > 1e3 * gram_rounding_bound(G8.node_count)

    def test_matches_f_function_integrals(self):
        triple = hm.random_compatible_acs(G8, seed=9, amplitude=0.5, bandlimit=2)
        fs = [cohomlab.f_omega(triple, w) for w in np.eye(3)]
        expected = [[tf.integrate(tf.ScalarField(G8, fk.values * fl.values)) for fl in fs]
                    for fk in fs]
        np.testing.assert_allclose(cohomlab.gram_matrix(triple).matrix, expected, atol=1e-14)


def exact_gram(planes):
    """G = 4 sum_x y y^T / N from math.fsum of the products, each split
    into an exact pair p + e (Dekker's two-product with Veltkamp's split),
    for the (3, N) ``planes`` of a structure."""
    def split(x):
        c = 134217729.0 * x
        hi = c - (c - x)
        return hi, x - hi

    def exact_sum(a, b):
        p = a * b
        (ah, al), (bh, bl) = split(a), split(b)
        return math.fsum(np.concatenate([p, ((ah * bh - p) + ah * bl + al * bh) + al * bl]))

    return np.array([[4.0 * exact_sum(a, b) / a.size for b in planes] for a in planes])


def gram_rounding_bound(nodes):
    """ROADMAP item 11's rounding bound on a Gram entry: a dot product of N
    terms errs by at most gamma_N sum |y_k y_l| <= gamma_N N, so G_kl = 4
    sum / N by 4 gamma_N; the scalings by 4 / N of G and of
    :func:`exact_gram` add a few roundings of at most 4 u each."""
    u = np.finfo(float).eps / 2.0
    return 4.0 * nodes * u / (1.0 - nodes * u) + 16.0 * u


def test_gram_report_json_keeps_field_order_and_plain_types():
    data = to_json(cohomlab.gram_matrix(hm.standard_acs(G8)))
    assert list(data) == ["grid_n", "matrix", "eigenvalues", "eigenvectors", "h_minus",
                          "null_coords", "threshold", "tol_null"]

    def leaves(value):
        if isinstance(value, list):
            return [leaf for item in value for leaf in leaves(item)]
        return [value]

    assert {type(leaf) for v in data.values() for leaf in leaves(v)} == {int, float}
    assert type(data["h_minus"]) is int and type(data["null_coords"]) is list


class TestKernelBasis:
    """The kernel rows depend on the kernel alone, in a fixed axis order."""

    DIAGONAL = np.ones(3) / np.sqrt(3.0)

    @settings(max_examples=60, deadline=None)
    @given(theta=st.floats(0.0, 2.0 * np.pi), reflect=st.booleans())
    def test_rotated_kernel_eigenvectors_give_the_same_rows(self, theta, reflect):
        # y = (1, 1, 1)/sqrt(3) has a 2-dimensional kernel, in which LAPACK
        # may return any orthonormal pair
        triple = constant_triple(G4, self.DIAGONAL)
        expected = cohomlab.gram_matrix(triple)
        assert expected.h_minus == 2
        c, s = np.cos(theta), np.sin(theta)
        turn = np.array([[c, -s], [s, c]]) @ np.diag([1.0, -1.0 if reflect else 1.0])
        eigh = np.linalg.eigh

        def rotated(G):
            eigenvalues, eigenvectors = eigh(G)
            eigenvectors = eigenvectors.copy()
            eigenvectors[:, :2] = eigenvectors[:, :2] @ turn
            return eigenvalues, eigenvectors

        with mock.patch.object(np.linalg, "eigh", rotated):
            report = cohomlab.gram_matrix(triple)
        np.testing.assert_allclose(report.null_coords, expected.null_coords, rtol=0, atol=1e-15)

    def test_standard_rows_are_omega3_then_omega2(self):
        rows = cohomlab.gram_matrix(hm.standard_acs(G8)).null_coords
        np.testing.assert_array_equal(rows, [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert not np.signbit(rows).any()

    def test_stage1_row_is_omega2(self):
        stage1, _, _ = hm.one_bump_deform(hm.standard_acs(G8), BUMP1)
        rows = cohomlab.gram_matrix(stage1).null_coords
        np.testing.assert_array_equal(rows, [[0.0, 1.0, 0.0]])
        assert not np.signbit(rows).any()

    @pytest.mark.parametrize("coords", [DIAGONAL, [0.6, 0.8, 0.0], [0.0, 0.28, 0.96]],
                             ids=["diagonal", "e1-e2", "e2-e3"])
    def test_rows_are_orthonormal(self, coords):
        report = cohomlab.gram_matrix(constant_triple(G4, coords))
        rows = report.null_coords
        assert rows.shape == (report.h_minus, 3) == (2, 3)
        np.testing.assert_allclose(rows @ rows.T, np.eye(2), rtol=0, atol=1e-15)
        np.testing.assert_allclose(rows @ np.asarray(coords), 0.0, rtol=0, atol=1e-14)


class TestSelectNullForm:
    def test_wedge_normalized(self):
        report = cohomlab.gram_matrix(hm.standard_acs(G8))
        alpha = constant_twoform(G8, cohomlab.select_null_form(report) @ pl.OMEGA_SD)
        assert tf.wedge_integral(alpha, alpha) == pytest.approx(1.0, abs=1e-12)

    def test_empty_kernel_rejected(self):
        triple = hm.random_compatible_acs(tf.GridSpec(16), seed=1, amplitude=0.3, bandlimit=2)
        with pytest.raises(ValueError, match="empty"):
            cohomlab.select_null_form(cohomlab.gram_matrix(triple))

    @pytest.mark.parametrize("seed", [None, *range(24)],
                             ids=lambda s: "standard" if s is None else f"bump{s}")
    def test_squared_norm_is_a_half(self, seed):
        # stage 2 renormalizes with sqrt(1 - c2^2 |a|^2) and needs c2^2 |a|^2 < 1;
        # with the bump's c2 <= 1 this |a|^2 = 1/2 keeps it at or below 1/2
        report = (cohomlab.gram_matrix(hm.standard_acs(G8)) if seed is None
                  else random_bump_stage1(seed)[1])
        w = cohomlab.select_null_form(report)
        assert abs(float(w @ w) - 0.5) <= 4 * np.spacing(0.5)

    @pytest.mark.parametrize("seed", ["golden", "default", *range(24)],
                             ids=lambda s: s if isinstance(s, str) else f"bump{s}")
    def test_stage1_sup_norm_is_at_most_height_over_sqrt2(self, seed):
        # a = c1 w with c1 <= height and |w|^2 = 1/2, so stage 1 needs no
        # rescaling to keep |a| < 1
        named = {"golden": (BUMP1, G8), "default": (LabConfig().bump1, tf.GridSpec(16))}
        bump, grid = named[seed] if seed in named else random_bump(seed)
        record = hm.one_bump_deform(hm.standard_acs(grid), bump)[1].to_list()[0]
        assert record["sup_norm"] <= bump.height / np.sqrt(2.0) * (1.0 + 4 * np.finfo(float).eps)


class TestVMeasure:
    def test_never_vanishing(self):
        assert cohomlab.v_measure(hm.standard_acs(G8), E1, 1e-6) == 1.0

    def test_identically_zero(self):
        assert cohomlab.v_measure(hm.standard_acs(G8), E2, 1e-6) == 0.0

    def test_bump_localized_and_monotone(self):
        base = hm.standard_acs(tf.GridSpec(16))
        stage1, _, _ = hm.one_bump_deform(base, hm.BumpSpec((0.5,) * 4, 0.15, 0.5))
        report = cohomlab.gram_matrix(stage1)
        killed = report.eigenvectors[:, np.argsort(report.eigenvalues)[1]]
        vals = [cohomlab.v_measure(stage1, killed, e) for e in (1e-8, 1e-4, 1e-1)]
        assert 0.0 < vals[0] <= 1.0
        assert vals[0] >= vals[1] >= vals[2]

    def test_eps_validation(self):
        with pytest.raises(ValueError, match="eps"):
            cohomlab.v_measure(hm.standard_acs(G8), E1, 0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match=f"eps must be positive and finite, got {eps}"):
            cohomlab.v_measure(hm.standard_acs(G8), E1, eps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_direction_rejected(self, bad):
        # 0 * inf in y @ w is the NaN that numpy warns about
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="f_omega has non-finite values"):
            cohomlab.v_measure(hm.standard_acs(G8), np.array([0.5, bad, 0.0]), 1e-6)


#: the directions of the former sampled delta estimate on a 2-dimensional span
SAMPLED_DIRECTIONS = 64


def span_basis(report):
    """The orthonormal rows of the non-null span, as delta_j_estimate takes them."""
    V = report.eigenvectors[:, report.h_minus:]
    return cohomlab._projector_rows(V @ V.T)


def sampled_delta(triple, report, eps):
    """The former estimate, kept as a reference: the minimum of v_measure
    over both points of S^0 (l = 1) or over 64 equally spaced directions of
    S^1 (l = 2), each direction c taken as c @ basis / sqrt(2)."""
    basis = span_basis(report)
    if len(basis) == 1:
        directions = np.array([[1.0], [-1.0]])
    else:
        theta = 2.0 * np.pi * np.arange(SAMPLED_DIRECTIONS) / SAMPLED_DIRECTIONS
        directions = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return min(cohomlab.v_measure(triple, c @ basis / np.sqrt(2.0), eps) for c in directions)


def scanned_delta(triple, report, eps, count):
    """The minimum of v_measure's count over ``count`` equally spaced
    directions of the half circle (v(-w) = v(w)) of a 2-dimensional span,
    computed a block of directions at a time."""
    basis = span_basis(report)
    ys = triple.y.reshape(-1, 3)
    theta = np.pi * np.arange(count) / count
    best = ys.shape[0]
    for block in np.array_split(theta, -(-count // 1000)):
        w = np.stack([np.cos(block), np.sin(block)], axis=-1) @ basis / np.sqrt(2.0)
        # doubling w doubles each rounded product and sum exactly
        f = np.abs(ys @ (2.0 * w.T))
        cut = eps * np.maximum(1.0, f.max(axis=0))
        best = min(best, int(np.count_nonzero(f > cut, axis=0).min()))
    return best / ys.shape[0]


def random_bump(seed):
    """A seeded random bump and a grid of n = 8, 12 or 16."""
    rng = np.random.default_rng(seed)
    grid = tf.GridSpec(int(rng.choice([8, 12, 16])))
    bump = hm.BumpSpec(tuple(rng.uniform(0.0, 1.0, 4)), float(rng.uniform(0.1, 0.45)),
                       float(rng.uniform(0.1, 1.0)))
    return bump, grid


def random_bump_stage1(seed):
    """Stage 1 of the standard structure under :func:`random_bump`, with its
    Gram report."""
    bump, grid = random_bump(seed)
    stage1, _, (_, report1) = hm.one_bump_deform(hm.standard_acs(grid), bump)
    return stage1, report1


def construction_inputs():
    """(key, index, triple) of the inputs of both cut-off stages of the
    constructions whose logs tests/test_golden.py pins: the golden one at
    n = 8 and the default config's at n = 16.  Stage 2's input is stage 1."""
    for key, bump, grid in (("n8/golden", BUMP1, G8),
                            ("n16/default", LabConfig().bump1, tf.GridSpec(16))):
        base = hm.standard_acs(grid)
        yield key, 0, base
        yield key, 1, hm.one_bump_deform(base, bump)[0]


class TestDeltaEstimate:
    @staticmethod
    def delta(triple, eps=1e-6):
        return cohomlab.delta_j_estimate(triple, cohomlab.gram_matrix(triple), eps)

    def test_standard_is_one(self):
        assert self.delta(hm.standard_acs(G8)) == 1.0

    def test_constant_form_is_one(self):
        assert self.delta(constant_triple(G8, [0.6, 0.0, 0.8])) == 1.0

    def test_range_and_positivity(self):
        # the standard structure has a 1-dimensional non-null span, the
        # golden stage 1 a 2-dimensional one
        standard = hm.standard_acs(G8)
        stage1 = hm.one_bump_deform(standard, BUMP1)[0]
        for triple, span in ((standard, 1), (stage1, 2)):
            assert 3 - cohomlab.gram_matrix(triple).h_minus == span
            assert 0.0 < self.delta(triple) <= 1.0

    @pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0], ids=["nan", "inf", "zero"])
    @pytest.mark.parametrize("span", [1, 2])
    def test_eps_validation(self, eps, span):
        standard = hm.standard_acs(G8)
        triple = standard if span == 1 else hm.one_bump_deform(standard, BUMP1)[0]
        with pytest.raises(ValueError, match=f"eps must be positive and finite, got {eps}"):
            self.delta(triple, eps)

    def test_three_dimensional_span_rejected(self):
        triple = hm.random_compatible_acs(G8, seed=11, amplitude=0.3, bandlimit=2)
        assert cohomlab.gram_matrix(triple).h_minus == 0
        with pytest.raises(ValueError, match="dimension 1 or 2, not 3"):
            self.delta(triple)

    def test_non_finite_structure_rejected(self):
        stage1 = hm.one_bump_deform(hm.standard_acs(G8), BUMP1)[0]
        report = cohomlab.gram_matrix(stage1)
        planes = stage1.planes.copy()
        planes[:, 1, 2, 3, 4] = np.nan
        broken = SimpleNamespace(planes=planes)
        with pytest.raises(ValueError, match="f_omega has non-finite values"):
            cohomlab.delta_j_estimate(broken, report, 1e-6)

    @pytest.mark.parametrize("key", ["n8/golden", "n16/default"])
    def test_pinned_constructions_equal_the_sampled_minimum(self, key):
        pinned = json.loads(GOLDEN.read_text())["deform_logs"][key]
        for name, stage, triple in construction_inputs():
            if name == key:
                report = cohomlab.gram_matrix(triple)
                certified = cohomlab.delta_j_estimate(triple, report, 1e-6)
                assert certified == sampled_delta(triple, report, 1e-6)
                assert certified == pinned[stage]["delta_estimate"]

    def test_arcs_past_the_fold(self):
        # off the bump the default stage 1 is y = omega1, which the span
        # basis (omega3, omega1) sees as (p, q) = (0, sqrt(2)) up to 1e-15:
        # those arcs are centred on the fold 0 = pi and wrap past it, and
        # the deepest overlap, at theta = 0, needs them
        base = hm.standard_acs(tf.GridSpec(16))
        bump = LabConfig().bump1
        stage1 = hm.one_bump_deform(base, bump)[0]
        report = cohomlab.gram_matrix(stage1)
        np.testing.assert_allclose(span_basis(report), [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
                                   rtol=0, atol=1e-15)
        off = bump.build(stage1.grid).values == 0.0
        np.testing.assert_array_equal(stage1.y[off], [[1.0, 0.0, 0.0]] * int(off.sum()))
        certified = cohomlab.delta_j_estimate(stage1, report, 1e-6)
        assert certified == 1.0 - off.mean() == sampled_delta(stage1, report, 1e-6)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["after-the-fold", "before-the-fold"])
    def test_an_overlap_across_the_fold(self, sign):
        # y = (cos b, 0, sin b) has (p, q) = sqrt(2) (sin b, cos b) on the span
        # basis (omega3, omega1), so at eps = 0.1 it fails the arc of
        # half-width arcsin(0.1) around theta = -b mod pi.  The arcs of the
        # 100 nodes at b = 0 wrap past the fold, those of the 100 nodes at
        # b = -0.15 sign overlap them on one side of it, and the 56 nodes at
        # b = pi/2 fail far from both.  After the fold the deepest overlap
        # starts at a start it holds only through an arc's wrapped part.
        betas = np.repeat([0.0, -0.15 * sign, np.pi / 2], [100, 100, 56]).reshape(G4.shape)
        planes = np.stack([np.cos(betas), np.zeros(G4.shape), np.sin(betas)])
        triple = hm.HermitianTriple(G4, planes)
        report = cohomlab.gram_matrix(triple)
        np.testing.assert_allclose(span_basis(report), [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
                                   rtol=0, atol=1e-15)
        certified = cohomlab.delta_j_estimate(triple, report, 0.1)
        assert certified == 56 / 256 == sampled_delta(triple, report, 0.1)

    @pytest.mark.parametrize("eps", [1.0, 2.0])
    def test_a_cut_at_the_sup_fails_every_node(self, eps):
        # r = sqrt(2) at every node of a stage 1, so eps >= 1 leaves no arc
        stage1 = hm.one_bump_deform(hm.standard_acs(G8), BUMP1)[0]
        report = cohomlab.gram_matrix(stage1)
        certified = cohomlab.delta_j_estimate(stage1, report, eps)
        assert certified == 0.0 == sampled_delta(stage1, report, eps)

    @pytest.mark.parametrize("seed", range(24))
    @pytest.mark.parametrize("eps", [1e-6, 1e-2], ids=["eps1e-6", "eps1e-2"])
    def test_certified_is_at_most_sampled_on_random_bumps(self, seed, eps):
        stage1, report = random_bump_stage1(seed)
        assert report.h_minus == 1
        assert cohomlab.delta_j_estimate(stage1, report, eps) <= sampled_delta(stage1, report, eps)

    def test_a_structure_with_many_distinct_arc_starts(self):
        # a non-radial h = 1 structure: y = (cos b, 0, sin b) for a band-limited
        # b has 65536 distinct arc starts at n = 16, one per node, far more
        # than a radial stage 1 (26 at n = 24 and n = 32)
        G16 = tf.GridSpec(16)
        noise = tf.ScalarField(G16, np.random.default_rng(5).standard_normal(G16.shape))
        beta = spectral_truncate(noise, 3).values
        beta = beta * (1.2 / np.max(np.abs(beta)))
        planes = np.stack([np.cos(beta), np.zeros(G16.shape), np.sin(beta)])
        triple = hm.HermitianTriple(G16, planes)
        report = cohomlab.gram_matrix(triple)
        assert report.h_minus == 1
        pinned = {1e-6: 0.99993896484375, 1e-2: 0.968994140625, 0.3: 0.2558441162109375}
        for eps, value in pinned.items():
            certified = cohomlab.delta_j_estimate(triple, report, eps)
            assert certified == value
            assert certified <= sampled_delta(triple, report, eps)

    @pytest.mark.parametrize("eps", [1e-6, 1e-2, 0.3])
    def test_certified_is_at_most_a_dense_scan(self, eps):
        structures = [hm.one_bump_deform(hm.standard_acs(G8), BUMP1)[0], random_bump_stage1(11)[0]]
        for triple in structures:
            assert triple.grid == G8
            report = cohomlab.gram_matrix(triple)
            certified = cohomlab.delta_j_estimate(triple, report, eps)
            assert certified <= scanned_delta(triple, report, eps, 20_001)


def circle_structure(grid, beta):
    """An h = 1 structure: y = cos(theta) u + sin(theta) w on the great
    circle orthogonal to the unit vector along ``beta``, for an orthonormal
    pair (u, w) orthogonal to it, with theta = sin 2 pi x0 + cos 2 pi (x1 + x2) / 2.
    Where y swings across the circle, a per-node pivot axis of the
    frame changes between nodes."""
    beta = np.asarray(beta, float) / np.linalg.norm(beta)
    u = np.cross(beta, np.eye(3)[np.argmin(np.abs(beta))])
    u /= np.linalg.norm(u)
    w = np.cross(beta, u)
    x0, x1, x2, _ = grid.coords()
    theta = (np.sin(2 * np.pi * x0) + 0.5 * np.cos(2 * np.pi * (x1 + x2)))[..., None]
    y = np.cos(theta) * u + np.sin(theta) * w + np.zeros(grid.shape + (3,))
    return hm.HermitianTriple(grid, np.moveaxis(y, -1, 0))


#: the circles' normals: the cube diagonal and a generic direction
CIRCLE_NORMALS = {"diagonal": (1.0, 1.0, 1.0), "generic": (1.0, 2.0, 0.5)}


class TestEllipticOracle:
    @pytest.mark.parametrize("normal", list(CIRCLE_NORMALS))
    def test_circle_matches_gram(self, normal):
        triple = circle_structure(G6, CIRCLE_NORMALS[normal])
        assert cohomlab.gram_matrix(triple).h_minus == 1
        assert cohomlab.elliptic_kernel_dim(triple, G6).kernel_dim == 1

    @pytest.mark.parametrize("normal", list(CIRCLE_NORMALS))
    def test_circle_frame_holds_the_kernel(self, normal):
        # the pivot is the circle's normal beta, and v2 = -beta at every node
        triple = circle_structure(G6, CIRCLE_NORMALS[normal])
        beta = cohomlab.gram_matrix(triple).null_coords[0]
        report = cohomlab.elliptic_kernel_dim(triple, G6)
        assert abs(report.pivot @ beta) == pytest.approx(1.0, abs=1e-12)
        assert report.clearance == pytest.approx(1.0, abs=1e-12)
        _, v2, *_ = hm.anti_invariant_frame(triple)
        assert float(np.max(np.abs(v2 + report.pivot))) <= 1e-12

    def test_baseline_kernel_two(self):
        report = cohomlab.elliptic_kernel_dim(hm.standard_acs(G6), G6)
        assert report.kernel_dim == 2
        assert report.lambda_gap == pytest.approx((2.0 * np.pi) ** 2 / 2.0, rel=1e-12)
        assert report.threshold == cohomlab.ORACLE_TAU * report.lambda_gap
        # e1 lifts to zero; the lifted e2 and e3 are the kernel
        assert len(report.ritz_values) == 2
        assert float(np.max(np.abs(report.ritz_values))) <= 1e-10
        assert np.all(report.lower_bounds[:2] <= report.threshold)
        assert report.lower_bounds[2] > 1e5 * report.threshold

    def test_one_bump_matches_gram(self):
        base = hm.standard_acs(G6)
        stage1, _, _ = hm.one_bump_deform(base, BUMP1)
        report = cohomlab.elliptic_kernel_dim(stage1, G6)
        assert report.kernel_dim == cohomlab.gram_matrix(stage1).h_minus
        assert report.kernel_dim <= 1

    def test_random_matches_gram(self):
        triple = hm.random_compatible_acs(G6, seed=2, amplitude=0.3, bandlimit=2)
        report = cohomlab.elliptic_kernel_dim(triple, G6)
        assert report.kernel_dim == cohomlab.gram_matrix(triple).h_minus == 0

    def test_decides_random_structures_of_low_clearance(self):
        # amplitude 0.99 tilts y by up to 89 degrees: the least clearances
        # seen, still far above the frame's bound
        for seed in (1, 3):
            triple = hm.random_compatible_acs(G8, seed=seed, amplitude=0.99, bandlimit=2)
            report = cohomlab.elliptic_kernel_dim(triple, G8)
            assert cohomlab.MIN_CLEARANCE < report.clearance < 0.2
            assert report.kernel_dim == cohomlab.gram_matrix(triple).h_minus == 0

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="oracle"):
            cohomlab.elliptic_kernel_dim(hm.standard_acs(G8), G6)

    def test_decides_a_grid_the_dense_matrix_did_not_fit(self):
        # at n = 10 the dense matrix would have dimension 2 * 9^4 = 13122
        G10 = tf.GridSpec(10)
        report = cohomlab.elliptic_kernel_dim(hm.standard_acs(G10), G10)
        assert report.kernel_dim == 2 == len(report.ritz_values)
        assert report.lower_bounds[2] == pytest.approx(report.lambda_gap, rel=1e-12)

    def test_peak_memory_at_n16(self):
        # the closed-form symbol replaced a read-off that peaked at 50 MB here
        G16 = tf.GridSpec(16)
        triple = hm.random_compatible_acs(G16, seed=4, amplitude=0.5, bandlimit=3)
        tracemalloc.start()
        try:
            cohomlab.elliptic_kernel_dim(triple, G16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6, peak

    def test_undecided_count_names_both_counts(self, monkeypatch):
        # Ritz values that stop counting the kernel leave the lower bounds' 2
        monkeypatch.setattr(cohomlab, "_ritz_values", lambda frames, grid: np.ones(2))
        with pytest.raises(pl.ConsistencyError, match="at most 2 .* at least 0"):
            cohomlab.elliptic_kernel_dim(hm.standard_acs(G4), G4)


def bound_structure(grid, kind):
    """The oracle tests' structures, and the two circles, on ``grid``."""
    base = hm.standard_acs(grid)
    if kind in CIRCLE_NORMALS:
        return circle_structure(grid, CIRCLE_NORMALS[kind])
    return {
        "standard": lambda: base,
        "stage1": lambda: hm.one_bump_deform(base, BUMP1)[0],
        "random": lambda: hm.random_compatible_acs(grid, 2, 0.3, grid.n // 2 - 1),
    }[kind]()


class TestCertifiedBounds:
    """The certificate's bounds enclose the dense reference's spectrum: the
    j-th lower bound is at most its j-th eigenvalue, which is at most the
    j-th Ritz value.  The slack, 1e-10 of the largest eigenvalue, covers the
    rounding of the eigenvalues near 0."""

    @pytest.mark.parametrize("kind", ["standard", "stage1", "random", *CIRCLE_NORMALS])
    @pytest.mark.parametrize("grid", [G4, G6], ids=["n4", "n6"])
    def test_bounds_enclose_the_dense_spectrum(self, grid, kind):
        triple = bound_structure(grid, kind)
        report = cohomlab.elliptic_kernel_dim(triple, grid)
        dense = reference.spectrum(triple)
        slack = 1e-10 * dense[-1]
        assert np.all(report.lower_bounds <= dense[:8] + slack)
        assert np.all(dense[: len(report.ritz_values)] <= report.ritz_values + slack)
        assert report.kernel_dim == np.sum(dense <= report.threshold)
        assert report.kernel_dim == cohomlab.gram_matrix(triple).h_minus


def mode_basis(grid):
    """Rows are nodal values of the oracle's former real trigonometric
    basis, orthonormal under the node mean: row 0 is the constant 1; then,
    for one representative m of each +-m pair with every axis frequency
    below n/2 in magnitude (the first nonzero entry positive),
    sqrt(2) cos(2 pi m . x) and sqrt(2) sin(2 pi m . x).  Returns the
    rows and the mode of each row."""
    kmax = grid.n // 2 - 1
    ks = np.arange(-kmax, kmax + 1)
    grid_modes = np.stack(np.meshgrid(ks, ks, ks, ks, indexing="ij"), axis=-1).reshape(-1, 4)
    X = np.stack([c + np.zeros(grid.shape) for c in grid.coords()], axis=-1).reshape(-1, 4)
    modes, rows = [np.zeros(4, int)], [np.ones(len(X))]
    for k in grid_modes:
        nz = k[k != 0]
        if len(nz) == 0 or nz[0] < 0:
            continue  # keep one representative of each +-k pair, plus skip 0
        phase = 2.0 * np.pi * (X @ k)
        modes += [k, k]
        rows += [np.sqrt(2.0) * np.cos(phase), np.sqrt(2.0) * np.sin(phase)]
    return np.array(rows), np.array(modes)


def separable_change_of_basis(grid):
    """Q = B_e (e (x) e (x) e (x) e) for the Euclidean-normalized mode basis
    B_e = B / sqrt(N) and e = reference.line_basis(n), contracted one grid
    axis at a time; an orthogonal (R, R) matrix when both bases span the
    same modes."""
    B, _ = mode_basis(grid)
    X = (B / np.sqrt(grid.node_count)).reshape((len(B),) + grid.shape)
    e = reference.line_basis(grid.n)
    for _ in range(4):
        X = np.tensordot(X, e, axes=([1], [0]))
    return X.reshape(len(B), -1)


class TestSectionSpectra:
    """The sections B[r] of the column assembly's mode basis carry the
    spectra of its mode table: the constant, then a cos/sin pair per mode."""

    def test_basis_rows_follow_the_mode_table(self):
        B, modes = mode_basis(G6)
        assert B.shape == (len(modes), G6.node_count) == (5**4, 6**4)
        X = np.stack([c + np.zeros(G6.shape) for c in G6.coords()], axis=-1).reshape(-1, 4)
        np.testing.assert_array_equal(B[0], 1.0)
        phase = 2.0 * np.pi * (X @ modes[1])
        np.testing.assert_array_equal(modes[1], modes[2])
        np.testing.assert_allclose(B[1], np.sqrt(2.0) * np.cos(phase), atol=1e-14)
        np.testing.assert_allclose(B[2], np.sqrt(2.0) * np.sin(phase), atol=1e-14)
        np.testing.assert_allclose(B @ B.T / G6.node_count, np.eye(len(B)), atol=1e-12)


class TestSeparableBasis:
    """The oracle's basis e (x) e (x) e (x) e spans the modes of the former
    mode basis, so its matrix is orthogonally similar to the former one."""

    @pytest.mark.parametrize("grid", [G4, G6, G8], ids=["n4", "n6", "n8"])
    def test_line_basis_is_orthonormal_and_spans_the_modes(self, grid):
        e = reference.line_basis(grid.n)
        assert e.shape == (grid.n, grid.n - 1)
        np.testing.assert_allclose(e.T @ e, np.eye(grid.n - 1), rtol=0, atol=1e-14)
        Q = separable_change_of_basis(grid)
        assert Q.shape == ((grid.n - 1) ** 4,) * 2
        assert float(np.max(np.abs(Q @ Q.T - np.eye(len(Q))))) <= 1e-13


#: the calculus's own delta and d, kept for the planted faults that wrap them
codiff_twoform = tf.codiff_twoform
d_oneform = tf.d_oneform


def assert_symbol_battery_fails(monkeypatch, fault):
    """With torusfield's d delta made d delta + ``fault``, the symbol
    battery's one check fails at every grid of the tier-1 run: codiff_twoform
    hands its input's nodal values on, and d_oneform adds ``fault`` of them
    to its output."""
    inputs = []

    def recording(phi):
        inputs.append(phi.values)
        return codiff_twoform(phi)

    def faulty(theta):
        return from_values(tf.TwoFormField, theta.grid,
                           d_oneform(theta).values + fault(inputs.pop()))

    monkeypatch.setattr(tf, "codiff_twoform", recording)
    monkeypatch.setattr(tf, "d_oneform", faulty)
    for n in (4, 6, 8, 16):
        (check,) = battery.run_symbol_battery(n, seed=3)
        assert not check.passed and check.measured > 1e4 * check.tolerance, (n, check)


class TestScalarKernel:
    """On self-dual forms P^+ d delta P^+ = Delta / 2, so d delta reaches the
    oracle as one scalar operator C = -1/2 sum_a D_a^2, whose Dirichlet form
    it takes.  The Weyl lower bound rests on C's closed-form symbol
    (reference.kernel_symbol), tested here.  That d delta is C is the
    battery's identity (battery.run_symbol_battery), so the faults it must
    catch are planted there."""

    def test_kernel_is_half_the_laplacian_impulse_response(self):
        # the symbol of the impulse response: |2 pi k|^2 / 2 with Nyquist zeroed
        k = np.fft.fftfreq(G6.n, d=1.0 / G6.n)
        axis = np.where(np.abs(k) == G6.n // 2, 0.0, (2.0 * np.pi * k) ** 2)
        expect = sum(axis.reshape([-1 if a == ax else 1 for a in range(4)]) for ax in range(4)) / 2.0
        got = reference.kernel_symbol(G6)
        assert float(np.max(np.abs(got - expect))) <= 1e-12 * float(np.max(expect))
        assert cohomlab.LAMBDA_GAP == pytest.approx((2.0 * np.pi) ** 2 / 2.0, rel=1e-15)

    @pytest.mark.parametrize("n", [4, 6, 8, 16], ids=lambda n: f"n{n}")
    def test_closed_form_matches_the_impulse_read_off(self, n):
        grid = tf.GridSpec(n)
        symbol = reference.kernel_symbol(grid)
        read_off = np.fft.fftn(reference.impulse_kernel(grid)).real
        assert float(np.max(np.abs(symbol - read_off))) <= 1e-12 * float(np.max(symbol))

    @pytest.mark.parametrize("n", [4, 6, 8, 16], ids=lambda n: f"n{n}")
    def test_closed_form_vanishes_on_the_corners_alone(self, n):
        symbol = reference.kernel_symbol(tf.GridSpec(n))
        corners = np.zeros(symbol.shape, dtype=bool)
        corners[:: n // 2, :: n // 2, :: n // 2, :: n // 2] = True
        assert np.count_nonzero(corners) == 16
        assert np.all(symbol[corners] == 0.0)
        assert float(np.min(symbol[~corners])) == cohomlab.LAMBDA_GAP
        np.testing.assert_array_equal(symbol, np.roll(np.flip(symbol), 1, axis=tf.GRID_AXES))

    def test_mixing_operator_rejected(self, monkeypatch):
        def mixing(values):
            # adds the omega1 coordinate of a form to its omega2 coordinate
            return values @ np.outer(pl.OMEGA1, pl.OMEGA2) / 2.0

        assert_symbol_battery_fails(monkeypatch, mixing)

    def test_operator_with_a_mass_rejected(self, monkeypatch):
        def massive(values):
            # d delta + 1 on self-dual coordinates: the symbol no longer vanishes
            return values

        assert_symbol_battery_fails(monkeypatch, massive)

    def test_no_inverse_transform_and_no_d_codiff_call(self, monkeypatch):
        calls = []

        def counted(name, original):
            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return call

        for module, name in [(np.fft, "irfftn"), (np.fft, "ifftn"), (tf, "codiff_twoform"),
                             (tf, "d_oneform")]:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        report = cohomlab.elliptic_kernel_dim(hm.standard_acs(G6), G6)
        assert report.kernel_dim == 2
        assert calls == []


def counted_fft_calls(monkeypatch, extra):
    """Record, in a list that is returned, every call of a ``numpy.fft``
    function and of the ``(module, name)`` pairs ``extra``.  The
    differentiation matrix is built on first use, so its cache is cleared
    and its build is counted too."""
    calls = []

    def counted(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    for module, name in [(np.fft, name) for name in np.fft.__all__] + extra:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    tf._diff_matrix.cache_clear()
    return calls


class TestTransformCount:
    """The oracle's one transform is the fftn of _corner_capture: its Ritz
    values take C through D.  The symbol battery makes none."""

    @pytest.mark.parametrize("kind", ["standard", "random"])
    def test_an_oracle_call_makes_one_fftn_call(self, monkeypatch, kind):
        triple = bound_structure(G6, kind)
        calls = counted_fft_calls(monkeypatch, [(tf, "codiff_twoform"), (tf, "d_oneform")])
        cohomlab.elliptic_kernel_dim(triple, G6)
        assert calls == ["fftn"]

    def test_the_symbol_battery_makes_no_fft_call(self, monkeypatch):
        calls = counted_fft_calls(monkeypatch, [])
        (check,) = battery.run_symbol_battery(6, seed=3)
        assert check.passed and calls == []


def ritz_structures(grid):
    """The standard structure, stage 1 and three random structures on ``grid``."""
    base = hm.standard_acs(grid)
    return {
        "standard": base,
        "stage1": hm.one_bump_deform(base, BUMP1)[0],
        **{f"random/{seed}": hm.random_compatible_acs(grid, seed, 0.5, 2) for seed in (1, 2, 3)},
    }


def ritz_deviation(triple):
    """The largest |Ritz value - reference| over the oracle's trial space,
    relative to the larger of LAMBDA_GAP and the largest |reference|: the
    oracle's Dirichlet form through D against reference.fft_ritz_values,
    the same Ritz values through complex spectra and the closed-form
    symbol.  The floor keeps the kernel's Ritz values, 0 by one route and
    rounding by the other, relative to the gap that decides them."""
    frames = np.stack(hm.anti_invariant_frame(triple)[:2])
    got = cohomlab._ritz_values(frames, triple.grid)
    expect = reference.fft_ritz_values(frames, reference.kernel_symbol(triple.grid))
    assert got.shape == expect.shape
    scale = max(cohomlab.LAMBDA_GAP, float(np.max(np.abs(expect))))
    return float(np.max(np.abs(got - expect))) / scale


class TestRitzReference:
    """The oracle's Ritz values equal the transform reference's to 1e-13.

    By Parseval the two K are equal, as D is exactly F^-1 diag(m) F; what
    remains is rounding, at most 1e-15 relative in a probe.  This test is
    the one that catches a fault in D itself, such as D scaled by
    (1 + 1e-6): the symbol battery cannot, since both of its sides now use
    D, and so both scale alike."""

    @pytest.mark.parametrize("n", [6, 8, 16], ids=lambda n: f"n{n}")
    def test_matches_the_transform_reference(self, n):
        for kind, triple in ritz_structures(tf.GridSpec(n)).items():
            assert ritz_deviation(triple) <= 1e-13, kind

    def test_a_scaled_differentiation_matrix_is_caught(self, monkeypatch):
        diff_matrix = tf._diff_matrix

        def scaled(grid):
            return (1.0 + 1e-6) * diff_matrix(grid)

        structures = ritz_structures(G8)
        monkeypatch.setattr(cohomlab, "_diff_matrix", scaled)
        for seed in (1, 2, 3):
            assert ritz_deviation(structures[f"random/{seed}"]) > 1e-7, seed
        # the symbol battery passes with the same scaled D
        monkeypatch.setattr(tf, "_diff_matrix", scaled)
        (check,) = battery.run_symbol_battery(8, seed=3)
        assert check.passed


class TestFramePairing:
    """The oracle pairs d delta psi with the frames directly: they are
    anti-invariant and P^- is an orthogonal projection, so
    <P^- phi, frame_j> = <phi, frame_j> at every node."""

    @pytest.fixture(scope="class")
    def structures(self):
        stage1, stage2, _ = hm.two_stage_deform(hm.standard_acs(G8), BUMP1, BUMP2)
        return {
            "random": hm.random_compatible_acs(G8, seed=5, amplitude=0.5, bandlimit=2),
            "stage1": stage1,
            "stage2": stage2,
        }

    @pytest.mark.parametrize("kind", ["random", "stage1", "stage2"])
    def test_projection_drops_out_of_the_frame_pairing(self, structures, kind):
        triple = structures[kind]
        phi = np.random.default_rng(4).standard_normal(G8.shape + (6,))
        minus = pl.split_j(triple.J.values, phi).minus
        for v in hm.anti_invariant_frame(triple)[:2]:
            frame = v @ pl.OMEGA_SD
            dev = np.abs(pl.form_inner(minus, frame) - pl.form_inner(phi, frame))
            assert float(dev.max()) <= 1e-13

    def test_stage2_is_built(self, structures):
        assert cohomlab.gram_matrix(structures["stage2"]).h_minus == 0


def column_elliptic_matrix(triple, grid):
    """The oracle matrix assembled one column at a time in the mode basis
    B of :func:`mode_basis`: d delta through the field functions, then the
    4x4 involution's P^-, then the pairing with the frames."""
    B, _ = mode_basis(grid)
    R, N = B.shape
    frames = np.stack(hm.anti_invariant_frame(triple)[:2]) @ pl.OMEGA_SD
    J = triple.J.values
    M = np.empty((2 * R, 2 * R))
    for i in range(2):
        for m in range(R):
            psi = from_values(tf.TwoFormField, grid,
                              B[m].reshape(grid.shape)[..., None] * frames[i])
            out = tf.d_oneform(tf.codiff_twoform(psi))
            minus = pl.split_j(J, out.values).minus
            for j in range(2):
                q = np.sum(minus * frames[j], axis=-1).reshape(-1) / 2.0
                M[j * R : (j + 1) * R, i * R + m] = B @ q / N
    return M


def oracle_structures_n4():
    base = hm.standard_acs(G4)
    stage1, _, _ = hm.one_bump_deform(base, BUMP1)
    return {
        "standard": base,
        "stage1": stage1,
        "random": hm.random_compatible_acs(G4, seed=3, amplitude=0.3, bandlimit=1),
    }


class TestSymmetrize:
    # 10 rows in blocks of 3 leave a last block of 1
    @pytest.mark.parametrize("rows", [1, 3, 10])
    def test_matches_the_full_size_symmetrization(self, rows):
        A = np.random.default_rng(7).standard_normal((10, 10))
        M = A.copy()
        defect = reference.symmetrize(M, rows)
        np.testing.assert_array_equal(M, (A + A.T) / 2.0)
        assert defect == float(np.max(np.abs(A - A.T)))


class TestEllipticAssembly:
    """The separable assembly against the column-by-column one, carried to
    the separable basis by Q_2 = I_2 (x) Q."""

    @pytest.fixture(scope="class")
    def cases(self):
        Q2 = np.kron(np.eye(2), separable_change_of_basis(G4))
        return {k: (t, Q2.T @ column_elliptic_matrix(t, G4) @ Q2)
                for k, t in oracle_structures_n4().items()}

    # the reference's symmetrization in row blocks: on 162 rows, blocks of
    # 8 leave a last block of 2, blocks of 13 one of 6, and 200 exceeds the
    # matrix
    @pytest.mark.parametrize("block", [1, 8, 13, 200])
    @pytest.mark.parametrize("kind", ["standard", "stage1", "random"])
    def test_matches_column_assembly(self, cases, kind, block):
        triple, expect = cases[kind]
        got = reference.elliptic_matrix(triple, G4)
        assert got.shape == expect.shape == (162, 162)
        scale = float(np.max(np.abs(expect)))
        assert float(np.max(np.abs(got - expect))) <= 1e-12 * scale
        defect = reference.symmetrize(got, block)
        assert defect <= 1e-12 * scale
        assert float(np.max(np.abs(got - (expect + expect.T) / 2.0))) <= 1e-12 * scale

    def test_stage1_is_deformed(self, cases):
        assert cohomlab.gram_matrix(cases["stage1"][0]).h_minus == 1

    def test_non_adjoint_operator_rejected(self, monkeypatch):
        def skewed(values):
            # a first-order shift: its adjoint is the opposite shift
            return 10.0 * np.roll(values, 1, axis=-2)

        assert_symbol_battery_fails(monkeypatch, skewed)


class TestIntersection:
    def test_same_structure(self):
        report = cohomlab.gram_matrix(hm.standard_acs(G8))
        assert cohomlab.intersection_dim(report, report) == 2

    def test_one_bump_bound(self):
        base = hm.standard_acs(G8)
        stage1, _, _ = hm.one_bump_deform(base, BUMP1)
        reports = [cohomlab.gram_matrix(t) for t in (base, stage1)]
        assert cohomlab.intersection_dim(*reports) <= 1

    def test_transverse_constant_forms(self):
        base = cohomlab.gram_matrix(hm.standard_acs(G8))
        other = cohomlab.gram_matrix(constant_triple(G8, [0.0, 1.0, 0.0]))
        # kernels span (omega2, omega3) and (omega1, omega3): intersection omega3
        assert cohomlab.intersection_dim(base, other) == 1

    def test_reports_from_different_grids_are_rejected(self):
        coarse = cohomlab.gram_matrix(hm.standard_acs(G4))
        fine = cohomlab.gram_matrix(hm.standard_acs(G8))
        with pytest.raises(ValueError, match="grid mismatch"):
            cohomlab.intersection_dim(coarse, fine)

    def test_containment_angle(self):
        base_report = cohomlab.gram_matrix(hm.standard_acs(G8))
        stage1, _, _ = hm.one_bump_deform(hm.standard_acs(G8), BUMP1)
        inner = cohomlab.gram_matrix(stage1)
        assert cohomlab.null_containment_angle(inner, base_report) < 1e-3

    def test_empty_kernels(self):
        base = cohomlab.gram_matrix(hm.standard_acs(G8))
        generic = cohomlab.gram_matrix(hm.random_compatible_acs(G8, seed=9, amplitude=0.5,
                                                                bandlimit=2))
        assert generic.h_minus == 0
        assert cohomlab.intersection_dim(base, generic) == 0
        assert cohomlab.intersection_dim(generic, base) == 0
        assert cohomlab.intersection_dim(generic, generic) == 0
        assert cohomlab.null_containment_angle(generic, base) == 0.0
        assert cohomlab.null_containment_angle(generic, generic) == 0.0
        # a sine within an ulp of 1 moves its arcsine by up to 1.5e-8
        assert cohomlab.null_containment_angle(base, generic) == pytest.approx(np.pi / 2, abs=1e-7)

    def test_smaller_outer_kernel(self):
        base = cohomlab.gram_matrix(hm.standard_acs(G8))
        stage1, _, _ = hm.one_bump_deform(hm.standard_acs(G8), BUMP1)
        inner = cohomlab.gram_matrix(stage1)
        assert inner.h_minus == 1
        assert cohomlab.null_containment_angle(base, inner) == pytest.approx(np.pi / 2, abs=1e-7)
        assert cohomlab.intersection_dim(base, inner) == cohomlab.intersection_dim(inner, base) == 1
