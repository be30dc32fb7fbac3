"""Structure fields, deformations, and the two-stage cut-off pipeline."""

import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from constant_fields import constant_twoform, from_values
from ajclab import cohomlab, fieldio, hermitian as hm, pointlin as pl, torusfield as tf
from ajclab.config import DEFAULT_BUMP1, DEFAULT_BUMP2
from ajclab.reporting import to_json

G8 = tf.GridSpec(8)
BUMP1 = hm.BumpSpec((0.5, 0.5, 0.5, 0.5), 0.3, 0.5)
BUMP2 = hm.BumpSpec((0.25, 0.25, 0.25, 0.25), 0.25, 0.5)
#: rows are the anti-self-dual mirror frame of pl.OMEGA_SD
OMEGA_ASD = pl.OMEGA_SD * np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])


def deform_pair_nodewise(J, alpha):
    """pl.deform_pair, with its conjugation cross-check, at every node of a field."""
    shape = J.shape[:-2]
    J_out, F_out = pl.deform_pair(J.reshape(-1, 4, 4), alpha.reshape(-1, 6))
    return J_out.reshape(shape + (4, 4)), F_out.reshape(shape + (6,))


def write_kind_file(path, kind, values):
    """A G8 field file of a retired kind, such as endo (a 4x4 field) or
    twoform (a fundamental form): an AJC1 header, then the per-node
    components of ``values`` as component-major payload rows."""
    with open(path, "wb") as fh:
        fh.write(f"{fieldio.MAGIC} {kind} {G8.n}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(values.reshape(G8.node_count, -1).T, dtype="<f8"))


def edit_payload(path, change):
    """Edit a field file's raw (component, node) payload in place, bypassing
    field validation."""
    raw = path.read_bytes()
    body = raw.find(b"\n") + 1
    payload = np.frombuffer(raw, dtype="<f8", offset=body).reshape(-1, G8.node_count).copy()
    change(payload)
    path.write_bytes(raw[:body] + payload.tobytes())


def constant(a):
    """A constant field of self-dual coordinates on G8."""
    return np.broadcast_to(np.asarray(a, float), G8.shape + (3,))


class TestStandard:
    def test_constant_form(self):
        triple = hm.standard_acs(G8)
        np.testing.assert_allclose(triple.F.values - pl.OMEGA1, 0.0)
        sq = triple.J.values @ triple.J.values
        assert float(np.max(np.abs(sq + np.eye(4)))) <= 1e-14

    def test_gram_kernel_dimension(self):
        assert cohomlab.gram_matrix(hm.standard_acs(G8)).h_minus == 2

    def test_invalid_field_rejected(self):
        vals = np.broadcast_to(np.eye(4), G8.shape + (4, 4))
        with pytest.raises(ValueError, match="J\\^2"):
            from_values(hm.AcsField, G8, vals)

    @pytest.mark.parametrize("bad, message", [
        (1.01 * pl.J0, "J\\^2"),
        # squares to -Id but stretches e1 and shrinks e2
        (np.array([[0, -2, 0, 0], [0.5, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]), "not orthogonal"),
    ])
    def test_bad_node_in_last_chunk_rejected(self, bad, message):
        grid = tf.GridSpec(10)  # 10^4 nodes: chunks of 4096, 4096 and 1808
        assert grid.node_count % hm._ACS_CHUNK != 0
        vals = np.array(np.broadcast_to(pl.J0, grid.shape + (4, 4)))
        from_values(hm.AcsField, grid, vals)
        vals[9, 9, 9, 9] = bad
        with pytest.raises(ValueError, match=message):
            from_values(hm.AcsField, grid, vals)

    def test_j_is_built_and_checked_without_a_second_full_size_array(self):
        # J's planes, F's planes and the finiteness mask: the chunked check
        # views the planes, so no reshape of them is copied
        triple = hm.random_compatible_acs(tf.GridSpec(16), seed=1, amplitude=0.5, bandlimit=3)
        tracemalloc.start()
        try:
            nbytes = triple.J.planes.nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * nbytes, peak / nbytes

    def test_triple_cache_validated(self):
        planes = np.array(np.moveaxis(constant([1.0, 0.0, 0.0]), -1, 0))
        planes[:, 1, 2, 3, 4] = [1.0, 1e-4, 0.0]
        with pytest.raises(ValueError, match=r"unit vector at node \(1, 2, 3, 4\)"):
            hm.HermitianTriple(G8, planes)
        with pytest.raises(ValueError, match="shape"):
            hm.HermitianTriple(G8, planes[:2])
        with pytest.raises(ValueError, match="shape"):
            hm.HermitianTriple(G8, np.moveaxis(planes, 0, -1))
        planes[:, 0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            hm.HermitianTriple(G8, planes)
        triple = hm.standard_acs(G8)
        with pytest.raises(ValueError, match="read-only"):
            triple.y[0, 0, 0, 0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            triple.planes[0, 0, 0, 0, 0] = 0.0
        # writable planes are copied, so a later write to them leaves the triple as built
        planes = np.array(triple.planes)
        copied = hm.HermitianTriple(G8, planes)
        planes[:, 0, 0, 0, 0] = [0.0, 1.0, 0.0]
        assert copied.y.tobytes() == triple.y.tobytes()

    def test_fundamental_form_keeps_its_fresh_product(self, monkeypatch):
        handed = []
        two_form = hm.TwoFormField

        def recorded(grid, planes):
            handed.append(planes)
            return two_form(grid, planes)

        monkeypatch.setattr(hm, "TwoFormField", recorded)
        triple = hm.random_compatible_acs(G8, seed=2, amplitude=0.3, bandlimit=2)
        F = triple.F
        # the one fresh product is the field's planes, shared, not copied
        assert F.planes is handed[0] and not F.planes.flags.writeable
        assert np.shares_memory(F.values, F.planes)
        assert F.values.tobytes() == (triple.y @ pl.OMEGA_SD).tobytes()


class TestStructurePlanes:
    """A structure stores y as three contiguous component planes, the
    layout of the y file, and y is their components-last view."""

    @staticmethod
    def structures(io_triples, tmp_path):
        sidecar = hm.save_triple(io_triples["stage2"], tmp_path, "stage2", params={},
                                 log=hm.DeformLog())
        ab = np.random.default_rng(4).uniform(-0.2, 0.2, (2,) + G8.shape)
        a = np.stack([np.zeros(G8.shape), *ab], axis=-1)
        return {**io_triples, "loaded": hm.load_triple(sidecar),
                "deformed": hm.deform_field(io_triples["standard"], a),
                "built": hm.HermitianTriple(G8, np.array(io_triples["random"].planes))}

    def test_every_structure_keeps_read_only_contiguous_planes(self, io_triples, tmp_path):
        for label, triple in self.structures(io_triples, tmp_path).items():
            planes = triple.planes
            assert planes.shape == (3,) + G8.shape and planes.dtype == float, label
            assert planes.flags.c_contiguous and not planes.flags.writeable, label
            assert planes.base is None, label
            y = triple.y
            assert y.shape == G8.shape + (3,) and y.base is planes, label
            assert all(np.array_equal(y[..., k], planes[k]) for k in range(3)), label

    def test_y_is_read_only_and_follows_the_planes(self):
        triple = hm.random_compatible_acs(G8, seed=2, amplitude=0.3, bandlimit=2)
        assert not triple.y.flags.writeable
        assert np.shares_memory(triple.y, triple.planes)
        assert triple.y.tobytes() == np.moveaxis(triple.planes, 0, -1).tobytes()


class TestAntiInvariantField:
    """A tangent vector a of S^2 at y is the anti-invariant form a @ OMEGA_SD."""

    def test_constant_coefficients(self):
        for a, form in (([0, 1, 0], pl.OMEGA2), ([0, 0, 1], pl.OMEGA3)):
            np.testing.assert_array_equal(np.asarray(a, float) @ pl.OMEGA_SD, form)
            np.testing.assert_allclose(pl.split_j(pl.J0, form).minus, form, atol=1e-14)

    def test_pointwise_norm(self):
        alpha = np.array([0.0, 0.3, 0.4]) @ pl.OMEGA_SD
        assert pl.wedge_norm_sq(alpha) == pytest.approx(0.25, abs=1e-14)

    def test_anti_invariance_at_all_nodes(self):
        triple = hm.standard_acs(G8)
        rng = np.random.default_rng(0)
        a = np.zeros(G8.shape + (3,))
        a[..., 1:] = rng.standard_normal(G8.shape + (2,))
        plus = pl.split_j(triple.J.values, a @ pl.OMEGA_SD).plus
        assert float(np.max(np.abs(plus))) <= 1e-12

    def test_deformed_structure_needs_frame(self):
        deformed = hm.random_compatible_acs(G8, seed=3, amplitude=0.3, bandlimit=2)
        with pytest.raises(ValueError, match="anti-invariant"):
            hm.deform_field(deformed, constant([0.0, 0.1, 0.0]))
        v1, *_ = hm.anti_invariant_frame(deformed)
        a = 0.1 * v1
        plus = pl.split_j(deformed.J.values, a @ pl.OMEGA_SD).plus
        assert float(np.max(np.abs(plus))) <= 1e-10
        hm.deform_field(deformed, a)

    def test_frame_is_wedge_unit_and_orthogonal(self):
        deformed = hm.random_compatible_acs(G8, seed=4, amplitude=0.4, bandlimit=2)
        u1, u2 = (v @ pl.OMEGA_SD for v in hm.anti_invariant_frame(deformed)[:2])
        np.testing.assert_allclose(pl.wedge_norm_sq(u1), 1.0, atol=1e-12)
        np.testing.assert_allclose(pl.wedge_norm_sq(u2), 1.0, atol=1e-12)
        np.testing.assert_allclose(pl.form_inner(u1, u2), 0.0, atol=1e-12)
        np.testing.assert_allclose(pl.form_inner(u1, deformed.F.values), 0.0, atol=1e-12)

    def test_pivot_is_the_eigenvector_of_largest_clearance(self):
        deformed = hm.random_compatible_acs(G8, seed=4, amplitude=0.4, bandlimit=2)
        y = deformed.y.reshape(-1, 3)
        v1, v2, pivot, clearance = hm.anti_invariant_frame(deformed)
        v1, v2 = v1.reshape(-1, 3), v2.reshape(-1, 3)
        second = y.T @ y / len(y)
        np.testing.assert_allclose(second @ pivot, (pivot @ second @ pivot) * pivot, atol=1e-14)
        _, axes = np.linalg.eigh(second)
        clearances = np.linalg.norm(np.cross(y[:, None, :], axes.T), axis=-1).min(axis=0)
        assert clearance == pytest.approx(clearances.max(), abs=1e-12)
        assert clearance == pytest.approx(np.linalg.norm(np.cross(y, pivot), axis=-1).min(), abs=1e-12)
        # one pivot for every node: v1 is orthogonal to it and v2 . p = -|y x p|
        assert float(np.max(np.abs(v1 @ pivot))) <= 1e-14
        np.testing.assert_allclose(v2 @ pivot, -np.linalg.norm(np.cross(y, pivot), axis=-1),
                                   atol=1e-14)

    def test_frame_refuses_a_y_that_meets_every_candidate_pivot(self):
        # y runs through e1, e1, e1, e2, e2, e3 along the first axis: mean(y y^T) =
        # diag(1/2, 1/3, 1/6), and y meets each of its eigenvectors; the pivot
        # is the first of equal clearances, e3, which y meets first at x0 = 5
        g6 = tf.GridSpec(6)
        y = np.eye(3)[[0, 0, 0, 1, 1, 2]].reshape(6, 1, 1, 1, 3) + np.zeros(g6.shape + (3,))
        triple = hm.HermitianTriple(g6, np.moveaxis(y, -1, 0))
        with pytest.raises(pl.ConsistencyError,
                           match=r"clearance 0\.000e\+00 .* at node \(5, 0, 0, 0\) \(bound 1e-03\)"):
            hm.anti_invariant_frame(triple)


class TestDeformField:
    def test_zero_is_identity(self):
        triple = hm.standard_acs(G8)
        out = hm.deform_field(triple, np.zeros(G8.shape + (3,)))
        np.testing.assert_allclose(out.J.values, triple.J.values)

    def test_constant_deformation_value(self):
        triple = hm.standard_acs(G8)
        out = hm.deform_field(triple, constant([0.0, 0.5, 0.0]))
        np.testing.assert_allclose(
            out.F.values, np.broadcast_to(0.6 * pl.OMEGA1 + 0.8 * pl.OMEGA2, G8.shape + (6,)),
            atol=1e-12,
        )

    def test_identity_off_support(self):
        triple = hm.standard_acs(G8)
        c1 = tf.bump_cutoff(G8, (0.5,) * 4, 0.2, 0.5)
        out = hm.deform_field(triple, c1.values[..., None] * np.array([0.0, 1.0, 0.0]))
        outside = c1.values == 0.0
        assert np.array_equal(out.J.values[outside], triple.J.values[outside])
        assert np.array_equal(out.F.values[outside], triple.F.values[outside])

    def test_norm_violation_reports_node(self):
        triple = hm.standard_acs(G8)
        c1 = tf.bump_cutoff(G8, (0.5,) * 4, 0.2, 1.0)
        with pytest.raises(ValueError, match=r"node \(4, 4, 4, 4\)"):
            hm.deform_field(triple, c1.values[..., None] * np.array([0.0, 1.2, 0.0]))

    def test_non_anti_invariant_rejected(self):
        triple = hm.standard_acs(G8)
        with pytest.raises(ValueError, match="anti-invariant"):
            hm.deform_field(triple, constant([0.5, 0.0, 0.0]))

    def test_invariant_part_that_breaks_the_unit_norm_is_named(self):
        # inside FORM_TOL, but |y'|^2 - 1 = 9.6e-9 exceeds ACS_TOL
        triple = hm.standard_acs(G8)
        with pytest.raises(ValueError, match=r"invariant part 5\.000e-09 at node \(0, 0, 0, 0\)"):
            hm.deform_field(triple, constant([0.5e-8, 0.5, 0.0]))

    def test_anti_invariance_threshold_is_1e_8(self):
        # |a| = 0.99 keeps the output's |y|^2 - 1 (about 4 (a . y) (1 - |a|^2)) below 1e-9
        triple = hm.standard_acs(G8)
        hm.deform_field(triple, constant([0.5e-8, 0.99, 0.0]))
        with pytest.raises(ValueError, match="anti-invariant"):
            hm.deform_field(triple, constant([2e-8, 0.99, 0.0]))


class TestRandomCompatible:
    def test_deterministic(self):
        a = hm.random_compatible_acs(G8, seed=1, amplitude=0.3, bandlimit=2)
        b = hm.random_compatible_acs(G8, seed=1, amplitude=0.3, bandlimit=2)
        assert np.array_equal(a.J.values, b.J.values)

    def test_small_amplitude_near_standard(self):
        out = hm.random_compatible_acs(G8, seed=1, amplitude=1e-8, bandlimit=2)
        assert float(np.max(np.abs(out.J.values - pl.J0))) < 1e-7

    def test_sup_norm_matches_amplitude(self):
        out = hm.random_compatible_acs(G8, seed=2, amplitude=0.3, bandlimit=2)
        base = hm.standard_acs(G8)
        # recover the deformation norm from the fundamental form coordinates
        y = out.F.values @ pl.OMEGA_SD.T / 2.0
        t = np.sqrt((1.0 - y[..., 0]) / (1.0 + y[..., 0]))  # |alpha| pointwise
        assert float(t.max()) == pytest.approx(0.3, abs=1e-10)
        del base

    @pytest.mark.parametrize("amplitude", [0.3, 0.97, 0.99])
    def test_sup_norm_is_the_amplitude_itself(self, amplitude):
        # y = deform_coords(e1, a) with a . e1 = 0 has y0 = (1 - |a|^2) / (1 + |a|^2)
        y = hm.random_compatible_acs(G8, seed=3, amplitude=amplitude, bandlimit=2).y
        t = np.sqrt((1.0 - y[..., 0]) / (1.0 + y[..., 0]))
        assert abs(float(t.max()) - amplitude) <= 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="amplitude"):
            hm.random_compatible_acs(G8, 1, 1.5, 2)
        with pytest.raises(ValueError, match="bandlimit"):
            hm.random_compatible_acs(G8, 1, 0.3, 6)
        # the low-pass keeps modes 1 .. bandlimit, so 1.5 would be neither 1 nor 2
        with pytest.raises(ValueError, match=r"bandlimit must be an integer .* got 1\.5"):
            hm.random_compatible_acs(G8, 1, 0.3, 1.5)

    def test_draws_no_transform_and_validates_its_structure_once(self, monkeypatch):
        def no_fft(*args, **kwargs):
            raise AssertionError("random_compatible_acs called np.fft")

        for name in ("fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, no_fft)
        checked, deformed = [], []
        unit_defect, deform_coords = hm._unit_defect, pl.deform_coords

        def counted(grid, planes, rows):
            checked.append(planes)
            return unit_defect(grid, planes, rows)

        def recorded(y, a, nsq):
            deformed.append(deform_coords(y, a, nsq))
            return deformed[-1]

        monkeypatch.setattr(hm, "_unit_defect", counted)
        monkeypatch.setattr(pl, "deform_coords", recorded)
        triple = hm.random_compatible_acs(G8, seed=3, amplitude=0.4, bandlimit=2)
        assert len(checked) == 1 and checked[0] is triple.planes
        # the fresh planes of the deformed y are kept as they are, not copied again
        assert triple.planes is deformed[0] and not triple.planes.flags.writeable


class TestTripleFromForm:
    def test_round_trip(self):
        triple = hm.random_compatible_acs(G8, seed=5, amplitude=0.5, bandlimit=2)
        rebuilt = hm.triple_from_form_field(triple.F)
        np.testing.assert_allclose(rebuilt.J.values, triple.J.values, atol=1e-10)

    def test_constant_omega2(self):
        F = constant_twoform(G8, pl.OMEGA2)
        triple = hm.triple_from_form_field(F)
        np.testing.assert_allclose(
            pl.fundamental_form(triple.J.values), F.values, atol=1e-12
        )

    def test_self_duality_threshold_is_1e_8(self):
        # an anti-self-dual part d/2 (e12 - e34) is a self-duality defect d
        def form(defect):
            return constant_twoform(G8, pl.OMEGA1 + defect / 2.0 * OMEGA_ASD[0])

        assert np.array_equal(hm.triple_from_form_field(form(0.5e-8)).y, hm.standard_acs(G8).y)
        with pytest.raises(ValueError, match="not self-dual"):
            hm.triple_from_form_field(form(2e-8))

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_each_anti_self_dual_direction_is_a_defect(self, k):
        values = np.array(np.broadcast_to(pl.OMEGA1, G8.shape + (6,)))
        values[1, 2, 3, 4] += 1e-7 * OMEGA_ASD[k]
        with pytest.raises(ValueError, match=r"not self-dual at node \(1, 2, 3, 4\) \(defect 2\.000e-07\)"):
            hm.triple_from_form_field(from_values(tf.TwoFormField, G8, values))

    @staticmethod
    def form(change):
        triple = hm.random_compatible_acs(G8, seed=7, amplitude=0.4, bandlimit=2)
        return from_values(tf.TwoFormField, G8, change(np.array(triple.F.values)))

    def test_rejects_scaled_form(self):
        with pytest.raises(ValueError, match="unit vector"):
            hm.triple_from_form_field(self.form(lambda F: 1.01 * F))

    def test_rejects_anti_self_dual_part(self):
        with pytest.raises(ValueError, match="not self-dual"):
            hm.triple_from_form_field(self.form(lambda F: F + 1e-3 * OMEGA_ASD[1]))

    def test_rejects_any_form_row_changed_at_one_node(self):
        # each row of F = y @ OMEGA_SD has a star partner, so a lone change is anti-self-dual
        for row in range(6):
            def nudge(F):
                F.reshape(-1, 6)[1000 + row, row] += 2e-8
                return F

            node = tuple(int(i) for i in np.unravel_index(1000 + row, G8.shape))
            with pytest.raises(ValueError, match=rf"not self-dual at node {re.escape(str(node))}"):
                hm.triple_from_form_field(self.form(nudge))


class TestTwoStage:
    def test_pipeline_kills_kernel(self):
        base = hm.standard_acs(G8)
        stage1, stage2, log = hm.two_stage_deform(base, BUMP1, BUMP2)
        h1 = cohomlab.gram_matrix(stage1).h_minus
        h2 = cohomlab.gram_matrix(stage2).h_minus
        assert h1 <= 1
        assert h2 == 0
        stages = [rec["stage"] for rec in log.to_list()]
        assert stages == ["cutoff-1", "cutoff-2"]
        assert log.to_list()[1]["wedge_square_residual"] <= 1e-9

    def test_gram_matrix_once_per_structure(self, monkeypatch):
        calls = []
        gram_matrix = cohomlab.gram_matrix

        def counted(triple, **kwargs):
            calls.append(triple)
            return gram_matrix(triple, **kwargs)

        base = hm.standard_acs(G8)
        monkeypatch.setattr(cohomlab, "gram_matrix", counted)
        stage1, stage2, log = hm.two_stage_deform(base, BUMP1, BUMP2)
        assert [id(t) for t in calls] == [id(base), id(stage1), id(stage2)]
        monkeypatch.undo()

        # the log is the one the public routes give
        def untimed(record):
            return {k: v for k, v in record.items() if k != "runtime_ms"}

        record1, record2 = log.to_list()
        assert untimed(record1) == untimed(hm.one_bump_deform(base, BUMP1)[1].to_list()[0])
        for record, triple in ((record1, base), (record2, stage1)):
            assert record["delta_estimate"] == cohomlab.delta_j_estimate(
                triple, cohomlab.gram_matrix(triple), 1e-6
            )
            assert record["h_before"] == cohomlab.gram_matrix(triple).h_minus
        assert record2["h_after"] == cohomlab.gram_matrix(stage2).h_minus

    def test_steps_are_looked_up_as_module_attributes(self, monkeypatch):
        # a wrapper set on hm.one_bump_deform or cohomlab.delta_j_estimate sees every call
        calls = []
        for module, name in ((hm, "one_bump_deform"), (cohomlab, "delta_j_estimate")):
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        hm.two_stage_deform(hm.standard_acs(G8), BUMP1, BUMP2)
        assert calls == ["one_bump_deform", "delta_j_estimate", "delta_j_estimate"]

    def test_one_bump_returns_the_gram_report_of_its_result(self):
        base = hm.standard_acs(G8)
        stage1, _, (report0, report1) = hm.one_bump_deform(base, BUMP1)
        assert to_json(report0) == to_json(cohomlab.gram_matrix(base))
        assert to_json(report1) == to_json(cohomlab.gram_matrix(stage1))

    def test_second_stage_reports_at_the_tol_null_of_its_input(self):
        base = hm.standard_acs(G8)
        stage1, log, (_, report1) = hm.one_bump_deform(base, BUMP1, tol_null=1e-6)
        stage2, report2 = hm.second_bump_deform(stage1, report1, BUMP2, log, 1e-6)
        assert report2.tol_null == 1e-6
        assert to_json(report2) == to_json(cohomlab.gram_matrix(stage2, tol_null=1e-6))
        assert log.to_list()[1]["h_after"] == report2.h_minus == 0

    def test_second_stage_on_an_exhausted_kernel_returns_its_input(self):
        stage1, _, (_, report1) = hm.one_bump_deform(hm.standard_acs(G8), BUMP1)
        exhausted = dataclasses.replace(report1, h_minus=0, null_coords=np.zeros((0, 3)))
        log = hm.DeformLog()
        stage2, report2 = hm.second_bump_deform(stage1, exhausted, BUMP2, log, 1e-6)
        assert stage2 is stage1 and report2 is exhausted
        assert log.to_list() == [
            {"stage": "cutoff-2", "skipped": "stage 1 already exhausted the kernel"}
        ]

    def test_stage1_unchanged_off_support(self):
        base = hm.standard_acs(G8)
        stage1, _, _ = hm.one_bump_deform(base, BUMP1)
        c1 = BUMP1.build(G8)
        outside = c1.values == 0.0
        assert np.array_equal(stage1.J.values[outside], base.J.values[outside])

    def test_requires_nontrivial_kernel(self):
        generic = hm.random_compatible_acs(G8, seed=1, amplitude=0.3, bandlimit=2)
        with pytest.raises(ValueError, match="at least one"):
            hm.one_bump_deform(generic, BUMP1)

    def test_gate_rejects_oversized_support(self):
        base = hm.standard_acs(G8)
        stage1, _, _ = hm.one_bump_deform(base, BUMP1)
        huge = hm.BumpSpec((0.25,) * 4, 0.45, 0.5)
        with pytest.raises(ValueError, match="delta"):
            hm.two_stage_deform(base, BUMP1, huge)


class TestSupportPath:
    """The cut-off stages change only the nodes of their bump's support."""

    #: no node of G8 lies within 0.05 of (0.5625,)*4, which is 0.125 from the nearest
    EMPTY = hm.BumpSpec((0.5625,) * 4, 0.05, 0.5)
    #: bumps whose supports wrap around the torus
    WRAP1 = hm.BumpSpec((0.0, 0.0, 0.97, 0.02), 0.3, 0.5)
    WRAP2 = hm.BumpSpec((0.97, 0.02, 0.0, 0.99), 0.25, 0.5)

    @staticmethod
    def reference_stages(base, bump1, bump2):
        """The stage formulas on the whole grid: y1 = deform_coords(y, a1) with
        a1 the bump-truncated null direction, and y2 = f1 y1 + c2 w2 with its
        rational cross-check route."""
        w1 = cohomlab.select_null_form(cohomlab.gram_matrix(base))
        a1 = bump1.build(base.grid).values[..., None] * w1
        stage1 = hm.HermitianTriple(base.grid, pl.deform_coords(base.y, a1, pl.coords_norm_sq(a1)))
        y1 = stage1.y
        w2 = cohomlab.select_null_form(cohomlab.gram_matrix(stage1))
        c2 = bump2.build(base.grid).values
        f1 = np.sqrt(1.0 - c2**2 * float(w2 @ w2))
        y2 = f1[..., None] * y1 + c2[..., None] * w2
        beta = (c2 / (1.0 + f1))[..., None] * w2
        alt = np.moveaxis(pl.deform_coords(y1, beta, pl.coords_norm_sq(beta)), 0, -1)
        return y1, y2, float(np.max(np.abs(alt - y2)))

    def test_empty_support_leaves_the_structure_unchanged(self):
        assert not np.any(self.EMPTY.build(G8).values)
        base = hm.standard_acs(G8)
        stage1, log, (report0, report1) = hm.one_bump_deform(base, self.EMPTY)
        assert stage1.y.tobytes() == base.y.tobytes()
        record = log.to_list()[0]
        assert record["sup_norm"] == 0.0 and record["support_volume"] == 0.0
        assert "rescale_factor" not in record
        assert record["h_after"] == record["h_before"] == report1.h_minus == report0.h_minus == 2

        stage1, log, (_, report1) = hm.one_bump_deform(base, BUMP1)
        stage2, report2 = hm.second_bump_deform(stage1, report1, self.EMPTY, log, 1e-6)
        assert stage2.y.tobytes() == stage1.y.tobytes()
        record = log.to_list()[1]
        assert record["sup_norm"] == 0.0 and record["route_disagreement"] == 0.0
        assert record["h_after"] == record["h_before"] == report2.h_minus == report1.h_minus

    def test_wrapping_bumps_match_the_whole_grid_formulas(self):
        base = hm.standard_acs(G8)
        for bump in (self.WRAP1, self.WRAP2):
            support = np.argwhere(bump.build(G8).values > 0.0)
            assert support.min() == 0 and support.max() == G8.n - 1
        stage1, stage2, log = hm.two_stage_deform(base, self.WRAP1, self.WRAP2)
        y1, y2, route = self.reference_stages(base, self.WRAP1, self.WRAP2)
        assert stage1.y.tobytes() == y1.tobytes()
        assert stage2.y.tobytes() == y2.tobytes()
        record1, record2 = log.to_list()
        assert record2["route_disagreement"] == route
        residual = float(np.max(np.abs(2.0 * np.sum(y2 * y2, axis=-1) - 2.0)))
        assert record2["wedge_square_residual"] == residual
        assert record1["h_after"] >= 1 and record2["h_after"] < record1["h_after"]

    @pytest.mark.parametrize("bad, match", [
        ([0.0, 1.2, 0.0], r"wedge norm\^2 1\.440000 >= 1 at node \(4, 5, 3, 4\)"),
        ([0.5, 0.0, 0.0], r"not anti-invariant at node \(4, 5, 3, 4\)"),
        ([0.5e-8, 0.5, 0.0], r"invariant part 5\.000e-09 at node \(4, 5, 3, 4\) moves .* "
                             r"unit vector at node \(4, 5, 3, 4\)"),
    ], ids=["norm", "invariant", "off-the-sphere"])
    def test_checks_on_support_rows_name_the_grid_node(self, bad, match):
        rows = np.flatnonzero(BUMP1.build(G8).values)
        flat = np.ravel_multi_index((4, 5, 3, 4), G8.shape)
        k = int(np.searchsorted(rows, flat))
        assert rows[k] == flat
        y = hm.standard_acs(G8).y.reshape(-1, 3)[rows]
        a = np.zeros_like(y)
        a[k] = bad
        with pytest.raises(ValueError, match=match):
            hm._deform(G8, y, a, rows, lambda out: hm._require_unit(G8, out, rows))

    @pytest.mark.parametrize("a1, a2, nsq", [
        ("0x1.fef09ef3532f1p-1", "0x1.0770e17577743p-4", np.nextafter(1.0, 0.0)),
        ("0x1.146741e7d41d3p-1", "0x1.aefb4ddb2a2bap-1", 1.0),
    ], ids=["one-minus-ulp", "one"])
    def test_norm_bound_is_checked_on_the_norm_the_deformation_uses(self, a1, a2, nsq):
        rows = np.flatnonzero(BUMP1.build(G8).values)
        y = hm.standard_acs(G8).y.reshape(-1, 3)[rows]
        a = np.zeros_like(y)
        a[7] = [0.0, float.fromhex(a1), float.fromhex(a2)]
        assert pl.coords_norm_sq(a)[7] == nsq

        def finish(out):
            return hm._require_unit(G8, out, rows)

        if nsq < 1.0:
            got = hm._deform(G8, y, a, rows, finish)
            assert got.tobytes() == pl.deform_coords(y, a, pl.coords_norm_sq(a)).tobytes()
        else:
            node = tuple(int(i) for i in np.unravel_index(rows[7], G8.shape))
            with pytest.raises(ValueError, match=re.escape(
                    f"deformation form has wedge norm^2 1.000000 >= 1 at node {node}")):
                hm._deform(G8, y, a, rows, finish)

    def test_stages_build_no_full_grid_bump(self, monkeypatch):
        def no_bump_field(*args):
            raise AssertionError("a cut-off stage evaluated its bump on the whole grid")

        monkeypatch.setattr(hm, "bump_cutoff", no_bump_field)
        stage1, stage2, log = hm.two_stage_deform(hm.standard_acs(G8), BUMP1, BUMP2)
        assert [record["stage"] for record in log] == ["cutoff-1", "cutoff-2"]
        assert stage2 is not stage1

    def test_each_stage_keeps_the_array_it_scatters(self, monkeypatch):
        scattered = []
        scatter = hm._scatter

        def recorded(y, rows, values):
            scattered.append(scatter(y, rows, values))
            return scattered[-1]

        monkeypatch.setattr(hm, "_scatter", recorded)
        stage1, stage2, _ = hm.two_stage_deform(hm.standard_acs(G8), BUMP1, BUMP2)
        assert len(scattered) == 2
        for stage, y in zip((stage1, stage2), scattered):
            assert y.base is None and not y.flags.writeable
            assert np.shares_memory(stage.y, y)

    def test_each_stage_deforms_the_support_rows_alone(self, monkeypatch):
        rows = []
        deform_coords = pl.deform_coords

        def counted(y, a, nsq):
            rows.append(y.size // 3)
            return deform_coords(y, a, nsq)

        monkeypatch.setattr(pl, "deform_coords", counted)
        hm.two_stage_deform(hm.standard_acs(G8), BUMP1, BUMP2)
        support = [int(np.count_nonzero(bump.build(G8).values)) for bump in (BUMP1, BUMP2)]
        assert rows == support
        assert 0 < max(support) < G8.node_count


class TestDeformPairAgreement:
    """The derived J and F of constructed fields against the 4x4 algebra."""

    @staticmethod
    def assert_agrees(triple, J, alpha):
        J_pair, F_pair = deform_pair_nodewise(J, alpha)
        assert float(np.max(np.abs(J_pair - triple.J.values))) <= pl.AGREEMENT_TOL
        assert float(np.max(np.abs(F_pair - triple.F.values))) <= pl.AGREEMENT_TOL

    def test_random_structure(self):
        triple = hm.random_compatible_acs(G8, seed=1, amplitude=0.3, bandlimit=2)
        y = triple.y
        # the anti-invariant a with which the standard structure deforms to y
        a = np.concatenate([np.zeros(G8.shape + (1,)), y[..., 1:]], axis=-1) / (1.0 + y[..., :1])
        J0 = np.broadcast_to(pl.J0, G8.shape + (4, 4))
        self.assert_agrees(triple, J0, a @ pl.OMEGA_SD)

    def test_two_stage_construction(self):
        base = hm.standard_acs(G8)
        stage1, stage2, _ = hm.two_stage_deform(base, BUMP1, BUMP2)
        w1 = cohomlab.select_null_form(cohomlab.gram_matrix(base))
        a1 = BUMP1.build(G8).values[..., None] * w1
        self.assert_agrees(stage1, base.J.values, a1 @ pl.OMEGA_SD)
        w2 = cohomlab.select_null_form(cohomlab.gram_matrix(stage1))
        c2 = BUMP2.build(G8).values
        f1 = np.sqrt(1.0 - c2**2 * float(w2 @ w2))
        beta = (c2 / (1.0 + f1))[..., None] * w2
        self.assert_agrees(stage2, stage1.J.values, beta @ pl.OMEGA_SD)


class TestBlockedUnitCheck:
    """The whole-grid unit check at n=24, where y spans 21 row blocks of
    ``hm._UNIT_BLOCK`` nodes, the last one partial."""

    G24 = tf.GridSpec(24)

    def test_the_grid_spans_blocks_and_ends_in_a_partial_one(self):
        assert self.G24.node_count > 2 * hm._UNIT_BLOCK
        assert self.G24.node_count % hm._UNIT_BLOCK != 0

    def unit_rows(self):
        """The standard structure's y as a writable (N, 3) copy."""
        return np.array(hm.standard_acs(self.G24).y.reshape(-1, 3))

    def planes(self, y):
        """The planes of the (N, 3) rows ``y``."""
        return np.moveaxis(y.reshape(self.G24.shape + (3,)), -1, 0)

    def test_the_worst_node_past_the_first_block_is_named(self):
        y = self.unit_rows()
        y[100] *= 1.0 + 1e-6
        flat = 2 * hm._UNIT_BLOCK + 7
        y[flat] *= 1.01
        node = tuple(int(i) for i in np.unravel_index(flat, self.G24.shape))
        with pytest.raises(ValueError, match=re.escape(
                f"y is not a unit vector at node {node} (||y|^2 - 1| = 2.010e-02, tol 1.0e-09)")):
            hm.HermitianTriple(self.G24, self.planes(y))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_node_in_the_last_block_is_refused(self, value):
        # a Python max() over the block maxima would drop the NaN and pass
        y = self.unit_rows()
        y[-1, 2] = value
        with pytest.raises(ValueError, match="y has non-finite values"):
            hm.HermitianTriple(self.G24, self.planes(y))

    def test_stage_2_logs_twice_its_unit_defect(self):
        _, stage2, log = hm.two_stage_deform(hm.standard_acs(self.G24), DEFAULT_BUMP1,
                                             DEFAULT_BUMP2)
        residual = log.to_list()[1]["wedge_square_residual"]
        assert residual == 2.0 * stage2.unit_defect
        y2 = stage2.y
        assert residual == float(np.max(np.abs(2.0 * np.sum(y2 * y2, axis=-1) - 2.0)))

    def test_two_stage_deform_checks_each_structure_on_the_whole_grid_once(self, monkeypatch):
        checked = []
        unit_defect = hm._unit_defect

        def counted(grid, planes, rows):
            checked.append((planes, rows))
            return unit_defect(grid, planes, rows)

        monkeypatch.setattr(hm, "_unit_defect", counted)
        base = hm.standard_acs(self.G24)
        stage1, stage2, _ = hm.two_stage_deform(base, DEFAULT_BUMP1, DEFAULT_BUMP2)
        whole = [planes for planes, rows in checked if rows is None]
        assert len(whole) == 3
        assert all(planes is triple.planes for planes, triple in zip(whole, (base, stage1, stage2)))
        # and stage 2's route cross-check, on its support rows alone
        (rows,) = [rows for _, rows in checked if rows is not None]
        assert 0 < rows.size < self.G24.node_count


@pytest.fixture(scope="module")
def g24_stage2():
    """Stage 2 of the default construction at n = 24, where the unit check
    spans 21 column blocks."""
    return hm.two_stage_deform(hm.standard_acs(tf.GridSpec(24)), DEFAULT_BUMP1, DEFAULT_BUMP2)[1]


@pytest.fixture(scope="module")
def io_triples():
    """The structures whose files are pinned to the generic field route."""
    base = hm.standard_acs(G8)
    stage1, stage2, _ = hm.two_stage_deform(base, BUMP1, BUMP2)
    return {
        "standard": base,
        "random": hm.random_compatible_acs(G8, seed=7, amplitude=0.4, bandlimit=2),
        "stage1": stage1,
        "stage2": stage2,
    }


#: the placement rule of J = sum_k y_k J_k written out entry by entry, as a
#: reference independent of form_to_matrix: (row-major entry of J, component
#: of F = y @ OMEGA_SD, sign) with J[j, i] = F_ij and J[i, j] = -F_ij for each
#: pair i < j; the four diagonal entries (0, 5, 10 and 15) are +0
J_ENTRIES = tuple((4 * j + i, c, 1.0) for c, (i, j) in enumerate(pl.PAIRS)) + tuple(
    (4 * i + j, c, -1.0) for c, (i, j) in enumerate(pl.PAIRS)
)


class TestJPlacement:
    @pytest.mark.parametrize("label", ["standard", "random", "stage2"])
    def test_table_reproduces_acs_from_coords(self, io_triples, label):
        # bytes, so the standard structure's signed zeros count
        y = io_triples[label].y
        J = pl.acs_from_coords(y)
        F = (y @ pl.OMEGA_SD).reshape(-1, 6).T
        rows = np.zeros((16, F.shape[1]))
        for entry, comp, sign in J_ENTRIES:
            rows[entry] = sign * F[comp]
        assert np.ascontiguousarray(rows.T).tobytes() == J.tobytes()

    @pytest.mark.parametrize("label", ["standard", "random", "stage2"])
    def test_the_structure_places_its_planes_as_acs_from_coords(self, io_triples, label):
        # J's and F's planes are built components-first, with the values of
        # the components-last routes to the bit
        triple = io_triples[label]
        assert triple.J.values.tobytes() == pl.acs_from_coords(triple.y).tobytes()
        assert triple.F.values.tobytes() == (triple.y @ pl.OMEGA_SD).tobytes()


class TestTripleIO:
    def test_save_load_round_trip(self, tmp_path):
        triple = hm.random_compatible_acs(G8, seed=7, amplitude=0.4, bandlimit=2)
        log = hm.DeformLog()
        log.append({"stage": "random", "seed": 7})
        sidecar = hm.save_triple(triple, tmp_path, "sample", params={"seed": 7}, log=log)
        back = hm.load_triple(sidecar)
        assert np.array_equal(back.J.values, triple.J.values)
        assert np.array_equal(back.F.values, triple.F.values)

    @pytest.mark.parametrize("label", ["standard", "random", "stage1", "stage2"])
    def test_files_match_the_generic_field_route(self, io_triples, label, tmp_path):
        triple = io_triples[label]
        sidecar = hm.save_triple(triple, tmp_path / "out", label, params={}, log=hm.DeformLog())
        assert sorted(p.name for p in sidecar.parent.iterdir()) == [
            f"{label}.json", f"{label}.y.field"
        ]
        meta = json.loads(sidecar.read_text())
        assert (meta["format"], meta["files"]) == (3, {"y": f"{label}.y.field"})
        fieldio.serialize_field(from_values(tf.SelfDualCoordField, G8, triple.y),
                                tmp_path / "generic.y")
        written = (tmp_path / "out" / f"{label}.y.field").read_bytes()
        assert written == (tmp_path / "generic.y").read_bytes()
        # bytes, so the standard structure's signed zeros in F and J count
        back = hm.load_triple(sidecar)
        assert back.y.tobytes() == triple.y.tobytes()
        assert back.F.values.tobytes() == triple.F.values.tobytes()
        assert back.J.values.tobytes() == triple.J.values.tobytes()

    def test_y_file_is_sdcoords_component_major(self, io_triples, tmp_path):
        triple = io_triples["stage2"]
        hm.save_triple(triple, tmp_path, "stage2", params={}, log=hm.DeformLog())
        raw = (tmp_path / "stage2.y.field").read_bytes()
        header = f"AJC1 sdcoords {G8.n}\n".encode("ascii")
        assert raw[: len(header)] == header
        assert len(raw) - len(header) == 24 * G8.node_count
        rows = np.frombuffer(raw, dtype="<f8", offset=len(header)).reshape(3, G8.node_count)
        for k in range(3):
            assert rows[k].tobytes() == np.ascontiguousarray(triple.y[..., k]).tobytes()

    def test_load_copies_the_y_file_once(self, g24_stage2, tmp_path, monkeypatch):
        # the file is read straight into the field's planes, and the triple
        # shares them: a load holds one array of y's size at its peak, with
        # the unit check's blocks and the field's finiteness mask beside it,
        # where a copy of the planes would make it two.  At n = 24 the unit
        # check spans 21 blocks, so its temporaries stay small
        read_planes = []
        original = hm.deserialize_field

        def recorded(*args, **kwargs):
            field = original(*args, **kwargs)
            read_planes.append(field.planes)
            return field

        monkeypatch.setattr(hm, "deserialize_field", recorded)
        sidecar = hm.save_triple(g24_stage2, tmp_path, "stage2", params={}, log=hm.DeformLog())
        tracemalloc.start()
        try:
            back = hm.load_triple(sidecar)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(read_planes) == 1 and back.planes is read_planes[0]
        assert back.planes.base is None and back.planes.flags.c_contiguous
        assert peak <= 1.25 * back.planes.nbytes, peak / back.planes.nbytes
        assert back.planes.tobytes() == g24_stage2.planes.tobytes()

    def test_save_writes_the_planes_as_they_are(self, g24_stage2, tmp_path, monkeypatch):
        # the field that is written shares the structure's planes, and a save
        # holds no full-size array beside them: the finiteness mask of the
        # field and the unit check's blocks, an eighth of the planes or so
        written = []
        original = hm.serialize_field

        def recorded(field, path):
            written.append(field.planes)
            return original(field, path)

        monkeypatch.setattr(hm, "serialize_field", recorded)
        hm.save_triple(g24_stage2, tmp_path, "warm", params={}, log=hm.DeformLog())
        tracemalloc.start()
        try:
            hm.save_triple(g24_stage2, tmp_path, "stage2", params={}, log=hm.DeformLog())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(written) == 2 and all(planes is g24_stage2.planes for planes in written)
        assert peak <= 0.25 * g24_stage2.planes.nbytes, peak / g24_stage2.planes.nbytes
        header = b"AJC1 sdcoords 24\n"
        assert (tmp_path / "stage2.y.field").read_bytes() == header + g24_stage2.planes.tobytes()

    @pytest.mark.parametrize(
        "change, match",
        [(lambda y: 1.01 * y, r"y is not a unit vector at node \(\d, \d, \d, \d\)"),
         (lambda y: np.where(y > 0.9, np.nan, y), "non-finite")],
        ids=["scaled", "nan"],
    )
    def test_save_rejects_an_invalid_structure(self, change, match, tmp_path):
        triple = hm.random_compatible_acs(G8, seed=7, amplitude=0.4, bandlimit=2)
        # bypass the validation at construction, as a caller mutating the planes would
        object.__setattr__(triple, "planes", change(triple.planes))
        with pytest.raises(ValueError, match=match):
            hm.save_triple(triple, tmp_path, "bad", params={}, log=hm.DeformLog())
        assert not (tmp_path / "bad.y.field").exists()
        assert not (tmp_path / "bad.json").exists()

    def test_a_save_over_an_existing_set_replaces_its_y_file(self, io_triples, tmp_path):
        # a new file in place of the old: a hard link keeps the old bytes, and
        # a symlink at the path is replaced, not written through
        hm.save_triple(io_triples["stage1"], tmp_path, "set", params={}, log=hm.DeformLog())
        path = tmp_path / "set.y.field"
        old = path.read_bytes()
        (tmp_path / "link").hardlink_to(path)
        sidecar = hm.save_triple(io_triples["stage2"], tmp_path, "set", params={},
                                 log=hm.DeformLog())
        assert (tmp_path / "link").read_bytes() == old
        assert hm.load_triple(sidecar).y.tobytes() == io_triples["stage2"].y.tobytes()
        target = tmp_path / "target"
        target.write_bytes(b"kept")
        path.unlink()
        path.symlink_to(target)
        hm.save_triple(io_triples["stage1"], tmp_path, "set", params={}, log=hm.DeformLog())
        assert target.read_bytes() == b"kept"
        assert not path.is_symlink() and path.read_bytes() == old

    def test_save_writes_nothing_when_the_sidecar_cannot_be_encoded(self, tmp_path):
        # the sidecar is encoded before the y file is written, so none is left without it
        triple = hm.standard_acs(G8)
        with pytest.raises(TypeError, match="int64"):
            hm.save_triple(triple, tmp_path, "x", params={"seed": np.int64(3)}, log=hm.DeformLog())
        assert list(tmp_path.iterdir()) == []

    def test_save_structure_threshold_is_1e_9(self, tmp_path):
        # |y|^2 - 1 = d is a J^2 + Id defect d
        def scaled(defect):
            triple = hm.random_compatible_acs(G8, seed=7, amplitude=0.4, bandlimit=2)
            object.__setattr__(triple, "planes", np.sqrt(1.0 + defect) * triple.planes)
            return triple

        hm.save_triple(scaled(0.5e-9), tmp_path, "inside", params={}, log=hm.DeformLog())
        assert (tmp_path / "inside.y.field").exists()
        assert (tmp_path / "inside.json").exists()
        with pytest.raises(ValueError, match="y is not a unit vector"):
            hm.save_triple(scaled(2e-9), tmp_path, "outside", params={}, log=hm.DeformLog())
        assert not (tmp_path / "outside.y.field").exists()
        assert not (tmp_path / "outside.json").exists()

    def test_save_rejects_a_stem_that_load_would_refuse(self, tmp_path):
        # load_triple refuses a sidecar naming sub/x.y.field, so no such set is written
        (tmp_path / "sub").mkdir()
        triple = hm.standard_acs(G8)
        with pytest.raises(ValueError, match=r"needs a plain file name in files\.y, got 'sub/x\.y\.field'"):
            hm.save_triple(triple, tmp_path, "sub/x", params={}, log=hm.DeformLog())
        assert [p.name for p in tmp_path.rglob("*")] == ["sub"]

    def test_save_rejects_a_stem_with_a_nul_byte(self, tmp_path):
        # no file system takes the name, and load_triple would refuse it
        with pytest.raises(ValueError, match=r"files\.y, got 'bad\\x00\.y\.field'"):
            hm.save_triple(hm.standard_acs(G8), tmp_path, "bad\x00", params={}, log=hm.DeformLog())
        assert list(tmp_path.iterdir()) == []

    def test_round_trip_builds_no_4x4_structure(self, io_triples, tmp_path, monkeypatch):
        # nor a fundamental form: the y file path never leaves y
        triple = io_triples["stage2"]

        def forbidden(*args, **kwargs):
            raise AssertionError("a 4x4 J or a form was built on the file path")

        for name in ("acs_from_coords", "require_acs", "acs_defect"):
            monkeypatch.setattr(pl, name, forbidden)
        monkeypatch.setattr(hm.HermitianTriple, "F", property(forbidden))
        monkeypatch.setattr(hm, "triple_from_form_field", forbidden)
        back = hm.load_triple(
            hm.save_triple(triple, tmp_path, "stage2", params={}, log=hm.DeformLog())
        )
        assert back.y.tobytes() == triple.y.tobytes()


class TestLoadBoundary:
    """The sidecar and the file around y, as load_triple checks them on a
    format-3 set as save_triple writes it."""

    @pytest.fixture
    def sidecar(self, tmp_path):
        triple = hm.random_compatible_acs(G8, seed=7, amplitude=0.4, bandlimit=2)
        return hm.save_triple(triple, tmp_path, "sample", params={}, log=hm.DeformLog())

    def test_rejects_scaled_form(self, sidecar):
        # y holds the coordinates of F = y @ OMEGA_SD, so this scales the form
        def scale(payload):
            payload *= 1.01

        edit_payload(sidecar.parent / "sample.y.field", scale)
        with pytest.raises(ValueError, match="unit vector"):
            hm.load_triple(sidecar)

    def test_rejects_an_endo_file_in_the_y_slot(self, sidecar):
        triple = hm.random_compatible_acs(G8, seed=7, amplitude=0.4, bandlimit=2)
        write_kind_file(sidecar.parent / "sample.y.field", "endo", triple.J.values)
        with pytest.raises(fieldio.FieldFormatError, match="unknown field kind 'endo'"):
            hm.load_triple(sidecar)

    def test_rejects_a_truncated_y_file(self, sidecar):
        path = sidecar.parent / "sample.y.field"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(fieldio.FieldFormatError, match="payload"):
            hm.load_triple(sidecar)

    def test_rejects_nan_in_the_f_file(self, sidecar):
        # the structure file is y now; poison its last component at the first node
        def poison(payload):
            payload[2, 0] = np.nan

        edit_payload(sidecar.parent / "sample.y.field", poison)
        path = sidecar.parent / "sample.y.field"
        with pytest.raises(fieldio.FieldFormatError, match=rf"^{re.escape(str(path))}: .*non-finite"):
            hm.load_triple(sidecar)

    @staticmethod
    def assert_malformed(sidecar, text, match):
        sidecar.write_text(text)
        with pytest.raises(fieldio.FieldFormatError, match=re.escape(str(sidecar))) as info:
            hm.load_triple(sidecar)
        assert match in str(info.value)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda meta: "{not json", "malformed sidecar: Expecting property name"),
            (lambda meta: [meta], "not a JSON object"),
            (lambda meta: {k: v for k, v in meta.items() if k != "grid_n"},
             "integer grid_n, got None"),
            (lambda meta: {k: v for k, v in meta.items() if k != "files"}, "files.y, got None"),
            # a files table that names a J file and no structure file
            (lambda meta: {**meta, "files": {"J": "sample.J.field"}}, "files.y, got None"),
            (lambda meta: {**meta, "files": {"y": "../sample.y.field"}},
             "files.y, got '../sample.y.field'"),
            (lambda meta: {**meta, "grid_n": "8"}, "integer grid_n, got '8'"),
            (lambda meta: {**meta, "grid_n": 7}, "grid size must be even"),
            # the sets written before structure files held y, whose file was F
            (lambda meta: {**meta, "format": 1,
                           "files": {"J": "sample.J.field", "F": "sample.F.field"}},
             "format 1 is not 3"),
            (lambda meta: {**meta, "format": 2, "files": {"F": "sample.F.field"}},
             "format 2 is not 3"),
            (lambda meta: {**meta, "format": 4}, "format 4 is not 3"),
        ],
        ids=["not-json", "not-object", "no-grid-n", "no-files", "no-f-file", "parent-directory",
             "string-grid-n", "odd-grid-n", "format-1", "format-2", "format-4"],
    )
    def test_rejects_a_malformed_sidecar(self, sidecar, edit, match):
        meta = edit(json.loads(sidecar.read_text()))
        self.assert_malformed(sidecar, meta if isinstance(meta, str) else json.dumps(meta), match)

    def test_rejects_a_sidecar_that_is_not_utf8(self, sidecar):
        sidecar.write_bytes(b"\xff")
        with pytest.raises(fieldio.FieldFormatError, match=re.escape(str(sidecar))) as info:
            hm.load_triple(sidecar)
        assert "malformed sidecar" in str(info.value)

    def test_a_sidecar_path_that_cannot_be_read_keeps_its_own_error(self):
        # no sidecar is read, so none is called malformed
        with pytest.raises(ValueError, match="embedded null byte") as info:
            hm.load_triple("side\x00car.json")
        assert not isinstance(info.value, fieldio.FieldFormatError)
        assert "malformed sidecar" not in str(info.value)

    @pytest.mark.parametrize("absolute", [True, False], ids=["absolute", "in-a-directory"])
    def test_rejects_an_f_file_outside_the_sidecar_directory(self, sidecar, absolute):
        # a valid structure file in another directory, so only the name can be refused
        other = sidecar.parent / "elsewhere"
        other.mkdir()
        (other / "sample.y.field").write_bytes((sidecar.parent / "sample.y.field").read_bytes())
        name = str(other / "sample.y.field") if absolute else "elsewhere/sample.y.field"
        meta = json.loads(sidecar.read_text())
        meta["files"]["y"] = name
        self.assert_malformed(sidecar, json.dumps(meta), f"files.y, got {name!r}")


class TestLoadYBoundary:
    """The y file that a format-3 sidecar names: its name, kind, grid and
    values, as load_triple checks them."""

    @pytest.fixture
    def sidecar(self, tmp_path):
        triple = hm.random_compatible_acs(G8, seed=7, amplitude=0.4, bandlimit=2)
        return hm.save_triple(triple, tmp_path, "sample", params={}, log=hm.DeformLog())

    @staticmethod
    def assert_rejected(sidecar, match):
        path = sidecar.parent / "sample.y.field"
        with pytest.raises(fieldio.FieldFormatError, match=rf"^{re.escape(str(path))}: {match}"):
            hm.load_triple(sidecar)

    def test_rejects_nan_in_the_y_file(self, sidecar):
        def poison(payload):
            payload[1, 1234] = np.nan

        edit_payload(sidecar.parent / "sample.y.field", poison)
        self.assert_rejected(sidecar, ".*non-finite")

    def test_rejects_a_non_unit_node(self, sidecar):
        def scale(payload):
            payload[:, 1234] *= 1.001

        edit_payload(sidecar.parent / "sample.y.field", scale)
        node = tuple(int(i) for i in np.unravel_index(1234, G8.shape))
        with pytest.raises(ValueError, match=rf"not a unit vector at node {re.escape(str(node))}"):
            hm.load_triple(sidecar)

    def test_rejects_a_y_file_of_another_grid(self, sidecar):
        g4 = tf.GridSpec(4)
        fieldio.serialize_field(from_values(tf.SelfDualCoordField, g4, hm.standard_acs(g4).y),
                                sidecar.parent / "sample.y.field")
        self.assert_rejected(sidecar, "grid n=4, expected n=8")

    def test_rejects_a_twoform_file_in_the_y_slot(self, sidecar):
        # the kind a format-2 set's F file had, which no reader accepts now
        triple = hm.random_compatible_acs(G8, seed=7, amplitude=0.4, bandlimit=2)
        write_kind_file(sidecar.parent / "sample.y.field", "twoform", triple.F.values)
        self.assert_rejected(sidecar, "unknown field kind 'twoform'")

    @pytest.mark.parametrize(
        "files",
        [{}, {"F": "sample.y.field"}, {"y": ".."}, {"y": "elsewhere/sample.y.field"}, {"y": 3},
         "absolute", {"y": "sample.y.field\u0000"}],
        ids=["no-y-file", "f-file-only", "parent-directory", "in-a-directory", "not-a-string",
             "absolute", "nul-byte"],
    )
    def test_rejects_a_y_name_that_is_not_a_plain_file_name(self, sidecar, files):
        if files == "absolute":
            # the set's own valid y file, so only the name can be refused
            files = {"y": str(sidecar.parent / "sample.y.field")}
        meta = json.loads(sidecar.read_text())
        TestLoadBoundary.assert_malformed(sidecar, json.dumps({**meta, "files": files}),
                                          f"files.y, got {files.get('y')!r}")
