"""The spectral calculus battery: the law of its random fields, and its
checks run directly at several grids; the symbol battery at the same
grids; and the deformation battery, which measures the routes pointlin
computes for deform_pair."""

import numpy as np
import pytest

from ajclab import battery, pointlin as pl, torusfield as tf

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


@pytest.mark.parametrize("grid_n", [4, 6, 8, 16])
def test_symbol_battery_passes(grid_n):
    (check,) = battery.run_symbol_battery(grid_n, seed=17)
    assert check.passed, check
    # rounding alone: 2e-16 to 4e-16 at these grids
    assert check.measured <= 1e-14


def test_calculus_battery_is_a_function_of_its_seed():
    first = battery.run_calculus_battery(8, 3, seed=29)
    again = battery.run_calculus_battery(8, 3, seed=29)
    assert [c.measured for c in first] == [c.measured for c in again]


def reference_deformation_measures(seed):
    """The deformation battery's eight measured values, from its draws and
    the deformation formulas written out here, apart from pointlin's routes."""
    rng = np.random.default_rng(seed)
    J = battery._random_structures(rng)
    alpha = battery._random_anti_invariant(rng, J)
    nsq = pl.wedge_norm_sq(alpha)
    K = pl.form_to_matrix(alpha)
    a = ((1.0 - nsq) / (1.0 + nsq))[..., None, None]
    b = (2.0 / (1.0 + nsq))[..., None, None]
    closed = a * J - b * K
    T = np.eye(4) + J @ K
    conjugated = np.linalg.solve(T, J @ T)
    F = pl.fundamental_form(J)
    F_new = a[..., 0] * F + b[..., 0] * alpha
    y = F @ pl.OMEGA_SD.T / 2.0
    y_new = pl.deform_coords(y, alpha @ pl.OMEGA_SD.T / 2.0)
    s2_residual = np.concatenate([
        (pl.acs_from_coords(y) - J).reshape(battery.CASES, 16),
        (pl.acs_from_coords(y_new) - closed).reshape(battery.CASES, 16),
        y_new @ pl.OMEGA_SD - F_new,
    ], axis=1)
    eye = np.eye(4)
    residuals = [
        closed - conjugated,
        closed @ closed + eye,
        np.swapaxes(closed, -1, -2) @ closed - eye,
        pl.wedge_norm_sq(F_new) - 1.0,
        F_new - pl.fundamental_form(closed),
        K + np.swapaxes(K, -1, -2),
    ]
    measured = [float(np.max(np.abs(r))) for r in residuals]
    return measured + [float(np.min(np.linalg.det(T) - (1.0 - nsq) ** 2)),
                       float(np.max(np.abs(s2_residual)))]


@pytest.mark.parametrize("seed", [1, 7])
def test_deformation_battery_matches_the_written_out_formulas(seed):
    checks = battery.run_deformation_battery(seed)
    assert [c.measured for c in checks] == reference_deformation_measures(seed)


def test_deformation_battery_measures_pointlin_routes(monkeypatch):
    routes = []
    original = pl._deform_routes

    def recorded(*args):
        routes.append(original(*args))
        return routes[-1]

    monkeypatch.setattr(pl, "_deform_routes", recorded)
    checks = battery.run_deformation_battery(1)
    # once in deform_pair, which draws the structures, and once for the checks
    assert len(routes) == 2
    K, _, closed, conjugated, _ = routes[-1]
    assert checks[0].measured == float(np.max(np.abs(closed - conjugated)))
    assert checks[5].measured == float(np.max(np.abs(K + np.swapaxes(K, -1, -2))))
