"""Translations of the grid by whole nodes, and orientation-preserving
permutations of its axes, are exact symmetries of the torus: they must
leave h unchanged, Gram eigenvalues equal within the rounding bound of the
node mean, and the low-pass and the derivatives equivariant.  A constant
rotation of the self-dual coordinates y must rotate the Gram matrix and
leave the elliptic oracle's count, bounds and Ritz values unchanged within
a stated rounding bound.  v_measure and delta_J count nodes, so moving the
nodes by a roll or an axis permutation must leave them equal bit for bit,
given the same Gram report."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from ajclab import cohomlab, hermitian as hm, pointlin as pl, torusfield as tf

G8 = tf.GridSpec(8)
BUMP1 = hm.BumpSpec((0.5, 0.5, 0.5, 0.5), 0.3, 0.5)
#: the last one takes stage 1's bump centre to node 0
SHIFTS = [(1, 0, 0, 0), (0, 3, 0, 5), (7, 2, 4, 1), (4, 4, 4, 4)]


def gamma(count: int) -> float:
    """Higham's gamma_N = N u / (1 - N u) for the unit roundoff u."""
    nu = count * np.finfo(float).eps / 2.0
    return nu / (1.0 - nu)


@pytest.fixture(scope="module")
def structures():
    """Two random structures (h = 0) and stage 1 (h = 1)."""
    return {
        "random/1": hm.random_compatible_acs(G8, seed=1, amplitude=0.6, bandlimit=2),
        "random/2": hm.random_compatible_acs(G8, seed=2, amplitude=0.6, bandlimit=2),
        "stage1": hm.one_bump_deform(hm.standard_acs(G8), BUMP1)[0],
    }


def translation_defects(triple, shift, gram):
    """Whether the Gram reports of ``triple`` and of its translate by
    ``shift`` nodes give the same h, and their largest eigenvalue gap."""
    rolled = hm.HermitianTriple(triple.grid, np.roll(triple.y, shift, axis=tf.GRID_AXES))
    before, after = gram(triple), gram(rolled)
    gap = float(np.max(np.abs(before.eigenvalues - after.eigenvalues)))
    return before.h_minus == after.h_minus, gap


@pytest.mark.parametrize("shift", SHIFTS)
@pytest.mark.parametrize("label", ["random/1", "random/2", "stage1"])
def test_a_translated_structure_keeps_h_and_its_gram_spectrum(structures, label, shift):
    same_h, gap = translation_defects(structures[label], shift, cohomlab.gram_matrix)
    assert same_h
    # each entry of G = 4 mean(y y^T) is a node sum with rounding error at most 4 gamma_N
    assert gap <= 4.0 * gamma(G8.node_count), gap


def test_a_gram_mean_that_drops_a_node_is_caught(structures):
    def gram_dropping_node_0(triple):
        return cohomlab.gram_matrix(SimpleNamespace(grid=triple.grid, y=triple.y.reshape(-1, 3)[1:]))

    for label, triple in structures.items():
        _, gap = translation_defects(triple, SHIFTS[-1], gram_dropping_node_0)
        assert gap > 4.0 * gamma(G8.node_count), label


#: the orientation-preserving (even) permutations p of the four axes, each
#: acting as the isometry x -> (x_p[0], x_p[1], x_p[2], x_p[3])
EVEN_PERMUTATIONS = [p for p in itertools.permutations(range(4))
                     if np.linalg.det(np.eye(4)[list(p)]) > 0]
#: (x0 <-> x1, x2 <-> x3)
SWAP = (1, 0, 3, 2)


def self_dual_action(perm):
    """The 3 x 3 matrix S with y' = y S for the pull-back of self-dual
    coordinates y by the isometry of ``perm``: dx_i goes to dx_perm[i]."""
    P = np.zeros((4, 4))
    P[list(perm), range(4)] = 1.0
    return pl.matrix_to_form(P @ pl.form_to_matrix(pl.OMEGA_SD) @ P.T) @ pl.OMEGA_SD.T / 2.0


def node_order(perm):
    """The transpose of the grid axes that takes nodal values f to f o Phi
    for the isometry Phi of ``perm``."""
    return tuple(int(a) for a in np.argsort(perm))


def permuted(triple, perm):
    y = np.transpose(triple.y, node_order(perm) + (4,)) @ self_dual_action(perm)
    return hm.HermitianTriple(triple.grid, y)


def test_the_swap_acts_on_self_dual_coordinates_by_a_sign():
    assert len(EVEN_PERMUTATIONS) == 12
    assert np.array_equal(self_dual_action(SWAP), np.diag([-1.0, -1.0, 1.0]))
    for perm in EVEN_PERMUTATIONS:
        S = self_dual_action(perm)
        # a signed permutation of the self-dual frame, of determinant 1
        assert np.array_equal(np.abs(S) @ np.ones(3), np.ones(3)) and set(S.ravel()) <= {-1, 0, 1}
        assert round(np.linalg.det(S)) == 1, perm


def permutation_defects(triple, perm, gram):
    """Whether the Gram reports of ``triple`` and of its pull-back by the
    axis permutation ``perm`` give the same h, and their largest eigenvalue
    gap."""
    before, after = gram(triple), gram(permuted(triple, perm))
    gap = float(np.max(np.abs(before.eigenvalues - after.eigenvalues)))
    return before.h_minus == after.h_minus, gap


@pytest.mark.parametrize("perm", EVEN_PERMUTATIONS, ids=str)
@pytest.mark.parametrize("label", ["random/1", "random/2", "stage1"])
def test_a_permuted_structure_keeps_h_and_its_gram_spectrum(structures, label, perm):
    same_h, gap = permutation_defects(structures[label], perm, cohomlab.gram_matrix)
    assert same_h
    # G goes to S^T G S: the same spectrum, summed in another node order
    assert gap <= 4.0 * gamma(G8.node_count), gap


@pytest.mark.parametrize("label", ["random/1", "random/2", "stage1"])
def test_the_swapped_structure_keeps_the_elliptic_count(structures, label):
    triple = structures[label]
    before = cohomlab.elliptic_kernel_dim(triple, G8)
    after = cohomlab.elliptic_kernel_dim(permuted(triple, SWAP), G8)
    assert after.kernel_dim == before.kernel_dim


def test_a_gram_mean_that_drops_one_axis_slice_is_caught(structures):
    def gram_dropping_slice_0(triple):
        y = triple.y[1:].reshape(-1, 3)
        return cohomlab.gram_matrix(SimpleNamespace(grid=triple.grid, y=y))

    # stage 1's bump is radial about (1/2, ..., 1/2) and misses the slice
    for label in ("random/1", "random/2"):
        _, gap = permutation_defects(structures[label], SWAP, gram_dropping_slice_0)
        assert gap > 4.0 * gamma(G8.node_count), label


def permutation_deviation(perm, seed):
    """For the low-pass (worst over every degree) and for d_scalar, the
    largest |op(f o Phi) - (op f) o Phi| over max|op f|, on white noise f
    and the isometry Phi of ``perm``; the partial of f o Phi along axis k is
    that of f along axis perm^-1[k]."""
    order = node_order(perm)
    x = np.random.default_rng(seed).standard_normal(G8.shape)
    moved = x.transpose(order).copy()
    devs = {"low_pass": 0.0}
    for max_mode in range(G8.n // 2):
        expect = tf.low_pass(x.copy(), G8, max_mode).transpose(order)
        got = tf.low_pass(moved.copy(), G8, max_mode)
        devs["low_pass"] = max(devs["low_pass"], float(
            np.max(np.abs(got - expect)) / np.max(np.abs(expect))))
    df = tf.d_scalar(tf.ScalarField(G8, x)).values
    expect = df.transpose(order + (4,))[..., list(order)]
    got = tf.d_scalar(tf.ScalarField(G8, moved)).values
    devs["d_scalar"] = float(np.max(np.abs(got - expect)) / np.max(np.abs(expect)))
    return devs


@pytest.mark.parametrize("perm", EVEN_PERMUTATIONS, ids=str)
def test_low_pass_and_d_scalar_commute_with_axis_permutations(perm):
    devs = permutation_deviation(perm, seed=3)
    assert max(devs.values()) <= 1e-14, devs


def test_a_last_axis_product_on_the_wrong_axis_is_caught(monkeypatch):
    along = tf._along

    def last_axis_read_first(x, mat, axis, out):
        # the last-axis product with x read as (size, rows), not (rows, size)
        if axis != x.ndim - 1:
            return along(x, mat, axis, out)
        out = np.empty(x.shape[:-1] + (mat.shape[0],)) if out is None else out
        np.matmul(x.reshape(x.shape[-1], -1).T, mat.T, out=out.reshape(-1, mat.shape[0]))
        return out

    monkeypatch.setattr(tf, "_along", last_axis_read_first)
    devs = permutation_deviation(SWAP, seed=3)
    assert min(devs.values()) > 1e-10, devs


def test_a_derivative_with_minus_d_on_one_axis_is_caught(monkeypatch):
    monkeypatch.setattr(tf, "_D0", ((0, 0, 0, -1.0),) + tf._D0[1:])
    devs = permutation_deviation(SWAP, seed=3)
    assert devs["d_scalar"] > 1e-10, devs


def rotation(seed):
    """A random constant R in SO(3): the Q factor of a normal 3 x 3 matrix,
    with the signs that make it unique and then det(R) = 1."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def rotation_defects(triple, R):
    """For the structure y and its rotation R y, the largest |G' - R G R^T|
    of their Gram matrices, whether the elliptic oracle gives the same
    count, and how far its certified lower bounds and its Ritz values move,
    relative to LAMBDA_GAP and to the largest Ritz value."""
    rotated = hm.HermitianTriple(triple.grid, triple.y @ R.T)
    gram = np.max(np.abs(cohomlab.gram_matrix(rotated).matrix
                         - R @ cohomlab.gram_matrix(triple).matrix @ R.T))
    before, after = (cohomlab.elliptic_kernel_dim(t, triple.grid) for t in (triple, rotated))
    lower = np.max(np.abs(after.lower_bounds - before.lower_bounds)) / cohomlab.LAMBDA_GAP
    ritz = np.max(np.abs(after.ritz_values - before.ritz_values)) / np.max(before.ritz_values)
    return float(gram), after.kernel_dim == before.kernel_dim, float(lower), float(ritz)


#: how far a constant rotation may move the oracle's Ritz values, relative
#: to the largest.  The frame of R y is rounded anew at every node, a few u
#: each, and C amplifies that by its largest symbol value (710 at n = 8)
#: and the trial Gram by the inverse of its smallest kept eigenvalue (1/7.9
#: for stage 1 at n = 8): the worst move seen over these rotations is
#: 2.5e-11, stage 1's largest Ritz value.  A lower bound moves only by the
#: rounding of the corner capture's node sums.
RITZ_ROTATION_TOL = 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("label", ["random/1", "random/2", "stage1"])
def test_a_rotated_structure_keeps_both_routes(structures, label, seed):
    # y -> R y rotates the frame and G, and the oracle acts on each
    # self-dual coordinate alone: its count, bounds and Ritz values stay
    gram, same_count, lower, ritz = rotation_defects(structures[label], rotation(seed))
    # each entry of G is a node mean with error at most 4 gamma_N, and
    # R G R^T weighs 9 of them by |R_ij R_lk|, which sum to at most 3
    assert gram <= 16.0 * gamma(G8.node_count), gram
    assert same_count
    assert lower <= gamma(G8.node_count), lower
    assert ritz <= RITZ_ROTATION_TOL, ritz


def test_a_ritz_route_that_drops_a_self_dual_component_is_caught(structures, monkeypatch):
    ritz_values = cohomlab._ritz_values

    def dropping_the_last_component(frames, grid):
        return ritz_values(frames * np.array([1.0, 1.0, 0.0]), grid)

    monkeypatch.setattr(cohomlab, "_ritz_values", dropping_the_last_component)
    for label in ("random/1", "random/2"):
        _, same_count, _, ritz = rotation_defects(structures[label], rotation(0))
        assert same_count and ritz > 1e4 * RITZ_ROTATION_TOL, label


#: the nodal cut's eps, as the cut-off stages take it
EPS = 1e-6


def node_relabelings(triple):
    """``triple``'s y moved by each whole-node roll of SHIFTS and by the node
    order of each even permutation, as (name, triple): the same nodal values
    at other nodes, with no action on the self-dual frame."""
    y = triple.y
    moves = [(f"roll {s}", np.roll(y, s, axis=tf.GRID_AXES)) for s in SHIFTS]
    moves += [(f"perm {p}", np.transpose(y, node_order(p) + (4,))) for p in EVEN_PERMUTATIONS]
    return [(name, hm.HermitianTriple(triple.grid, moved)) for name, moved in moves]


def counted_measures(triple, report, w):
    """v_measure of ``w`` and delta_J under ``report``, at EPS."""
    return cohomlab.v_measure(triple, w, EPS), cohomlab.delta_j_estimate(triple, report, EPS)


def relabeling_deviations(triple, measures):
    """The relabelings of ``triple`` whose ``measures``, a function of a
    triple returning numbers, differ from those of ``triple`` in any bit."""
    expect = measures(triple)
    return [name for name, moved in node_relabelings(triple) if measures(moved) != expect]


def stage1_counts(grid):
    """Stage 1 of BUMP1 at ``grid``, its Gram report, and the null form w of
    the standard structure that it deformed along: <omega_w, F> is nonzero
    on the bump's support alone, so v_measure of w counts the support."""
    base = hm.standard_acs(grid)
    stage1 = hm.one_bump_deform(base, BUMP1)[0]
    w = cohomlab.select_null_form(cohomlab.gram_matrix(base))
    return stage1, cohomlab.gram_matrix(stage1), w


@pytest.mark.parametrize("n", [8, 16])
def test_v_and_delta_j_count_nodes_bit_for_bit(n):
    # both read y node by node, then take a max, count or sort: a roll or an
    # axis permutation of the nodes must leave them equal to the bit, given
    # the same Gram report
    triple, report, w = stage1_counts(tf.GridSpec(n))
    v, delta = counted_measures(triple, report, w)
    assert 0.0 < delta <= v < 0.1, (v, delta)
    assert relabeling_deviations(triple, lambda t: counted_measures(t, report, w)) == []


def test_a_count_that_loses_its_last_nodes_is_caught():
    # a sweep that drops the nodes past the first three quarters, as a chunked
    # loop that forgets its last chunk would, sees the bump move in and out
    triple, report, w = stage1_counts(tf.GridSpec(16))

    def losing_the_tail(t):
        y = t.y.reshape(-1, 3)
        return counted_measures(SimpleNamespace(grid=t.grid, y=y[: 3 * len(y) // 4]), report, w)

    # every roll along the first axis moves bump nodes across the lost slices
    lost = relabeling_deviations(triple, losing_the_tail)
    assert {f"roll {s}" for s in SHIFTS if s[0]} <= set(lost), lost
