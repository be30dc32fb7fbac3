"""The spectral calculus battery: the law of its random fields, and its
checks run directly at several grids."""

import numpy as np
import pytest

from ajclab import battery, torusfield as tf

G16 = tf.GridSpec(16)
KINDS = [tf.ScalarField, tf.OneFormField, tf.TwoFormField, tf.ThreeFormField]


@pytest.mark.parametrize("cls", KINDS, ids=lambda c: c.__name__)
def test_draw_is_bandlimited_and_normalized(cls):
    field = battery._bandlimited(np.random.default_rng(3), G16, cls)
    assert type(field) is cls and field.values.shape == G16.shape + cls.NCOMP
    # the unnormalized draw exceeds 1, so the division by max|v| is active:
    # coefficients of unit variance would leave the field about 180x smaller
    assert field.max_abs() == 1.0
    low = tf.spectral_truncate(field, G16.n // 2 - 2)
    assert np.max(np.abs(low.values - field.values)) <= 1e-14 * field.max_abs()


def test_self_conjugate_plane_has_the_power_of_the_others():
    # irfftn keeps only the Hermitian part of the k4 = 0 plane; without its
    # sqrt(2) that plane would carry half the power of the k4 >= 1 planes
    keep = np.ones(1, dtype=bool)
    for k in G16.wavenumbers():
        keep = keep & (np.abs(k) <= G16.n // 2 - 2)
    plane0 = keep.copy()
    plane0[..., 1:] = False
    plane0[0, 0, 0, 0] = False  # the k = 0 mode, real only
    rest = keep.copy()
    rest[..., 0] = False
    rng = np.random.default_rng(11)
    ratios = []
    for _ in range(4):
        phi = battery._bandlimited(rng, G16, tf.TwoFormField)
        power = np.abs(np.fft.rfftn(phi.values, axes=tf.GRID_AXES)) ** 2
        ratios.append(np.mean(power[plane0]) / np.mean(power[rest]))
    assert abs(np.mean(ratios) - 1.0) < 0.1, ratios


def test_smallest_grids_draw():
    rng = np.random.default_rng(5)
    # n = 4 keeps only k = 0: a constant field
    f = battery._bandlimited(rng, tf.GridSpec(4), tf.TwoFormField)
    spread = np.ptp(f.values.reshape(-1, 6), axis=0)
    assert np.all(spread <= 1e-15 * f.max_abs())
    grid = tf.GridSpec(6)
    for cls in KINDS:
        field = battery._bandlimited(rng, grid, cls)
        low = tf.spectral_truncate(field, 1)
        assert np.max(np.abs(low.values - field.values)) <= 1e-14 * max(1.0, field.max_abs())


@pytest.mark.parametrize("grid_n, count", [(16, 5), (4, 3), (6, 3), (8, 3)])
def test_calculus_battery_passes(grid_n, count):
    checks = battery.run_calculus_battery(grid_n, count, seed=17)
    assert len(checks) == 5
    assert all(c.passed for c in checks), checks


def test_calculus_battery_is_a_function_of_its_seed():
    first = battery.run_calculus_battery(8, 3, seed=29)
    again = battery.run_calculus_battery(8, 3, seed=29)
    assert [c.measured for c in first] == [c.measured for c in again]
