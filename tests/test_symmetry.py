"""Translations of the grid by whole nodes are exact symmetries of the
torus: they must leave h unchanged, and Gram eigenvalues equal within the
rounding bound of the node mean."""

from types import SimpleNamespace

import numpy as np
import pytest

from ajclab import cohomlab, hermitian as hm, torusfield as tf

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
