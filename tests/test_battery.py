"""The spectral calculus battery: the law of its random fields, and its
checks run directly at several grids; the symbol battery of
identity_checks at the same grids and at n = 16; and the deformation
battery, which measures the routes pointlin computes for deform_pair."""

import numpy as np
import pytest

import identity_checks
from ajclab import battery, pointlin as pl, torusfield as tf
from spectral_reference import half_spectrum_wavenumbers, spectral_truncate

G16 = tf.GridSpec(16)
KINDS = [tf.ScalarField, tf.OneFormField, tf.TwoFormField, tf.ThreeFormField]


@pytest.mark.parametrize("cls", KINDS, ids=lambda c: c.__name__)
def test_draw_is_bandlimited_and_normalized(cls):
    field = battery._bandlimited(np.random.default_rng(3), G16, cls)
    assert type(field) is cls and field.values.shape == G16.shape + cls.NCOMP
    # the unnormalized draw exceeds 1, so the division by max|v| is active:
    # its nodal standard deviation is (13/16)^2 = 0.66 at n = 16, so its
    # largest value is near 3
    assert field.max_abs() == 1.0
    low = spectral_truncate(field, G16.n // 2 - 2)
    assert np.max(np.abs(low.values - field.values)) <= 1e-14 * field.max_abs()


def test_self_conjugate_plane_has_the_power_of_the_others():
    # the law is the projector onto the kept modes, so every kept mode has
    # the same power; a half-spectrum draw that left out its sqrt(2) on the
    # self-conjugate k4 = 0 plane would give that plane half the power
    keep = np.ones(1, dtype=bool)
    for k in half_spectrum_wavenumbers(G16):
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
        low = spectral_truncate(field, 1)
        assert np.max(np.abs(low.values - field.values)) <= 1e-14 * max(1.0, field.max_abs())


class RecordingGenerator:
    """A generator whose ``standard_normal`` draws are scaled by ``scale``
    and recorded; a power of 2 scales the synthesized field exactly."""

    def __init__(self, seed, scale=1.0):
        self.rng = np.random.default_rng(seed)
        self.scale = scale
        self.draws = []

    def standard_normal(self, size):
        self.draws.append(self.scale * self.rng.standard_normal(size))
        return self.draws[-1]


@pytest.mark.parametrize("cls", KINDS, ids=lambda c: c.__name__)
def test_draw_makes_one_normal_call_and_no_fft_call(cls, monkeypatch):
    calls = []

    def counted(name, original):
        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    for name in np.fft.__all__:
        if not name.endswith(("freq", "shift")):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    rng = RecordingGenerator(4)
    battery._bandlimited(rng, G16, cls)
    battery._bandlimited(rng, tf.GridSpec(6), cls)
    assert calls == []
    # (2b + 1)^4 coefficients per component, b = n/2 - 2
    assert [z.shape for z in rng.draws] == [(13,) * 4 + cls.NCOMP, (3,) * 4 + cls.NCOMP]


@pytest.mark.parametrize("n", [6, 16])
@pytest.mark.parametrize("cls", KINDS, ids=lambda c: c.__name__)
def test_draw_is_the_synthesis_of_its_normal_call(n, cls):
    grid = tf.GridSpec(n)
    rng = RecordingGenerator(n)
    field = battery._bandlimited(rng, grid, cls)
    (coeffs,) = rng.draws
    values = tf.from_low_pass(coeffs, grid, 0, None)
    values /= max(1.0, float(np.max(np.abs(values))))
    assert np.array_equal(field.values, values)


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("cls", [tf.ScalarField, tf.TwoFormField], ids=lambda c: c.__name__)
def test_unnormalized_nodal_variance(n, cls):
    # coefficients scaled by 2^-10 keep max|v| below 1, so the draw is not
    # divided and 2^10 v is the unnormalized field to the bit
    scale = 2.0**-10
    rng = RecordingGenerator(n, scale)
    field = battery._bandlimited(rng, tf.GridSpec(n), cls)
    assert field.max_abs() < 1.0
    values = field.values / scale
    (coeffs,) = rng.draws
    # the basis is orthonormal over the nodes: the field keeps the
    # coefficients' sum of squares
    assert np.sum(values**2) == pytest.approx(np.sum((coeffs / scale) ** 2), rel=1e-12)
    # so the nodal variance is (2b + 1)^4 / n^4, within 5 standard
    # deviations sqrt(2 / coefficient count) of the mean of squares
    expected = (n - 3) ** 4 / n**4
    spread = np.sqrt(2.0 / coeffs.size)
    assert abs(np.mean(values**2) / expected - 1.0) < 5.0 * spread


@pytest.mark.parametrize("grid_n, count", [(16, 5), (4, 3), (6, 3), (8, 3)])
def test_calculus_battery_passes(grid_n, count):
    checks = battery.run_calculus_battery(grid_n, count, seed=17)
    assert len(checks) == 5
    assert all(c.passed for c in checks), checks


@pytest.mark.parametrize("grid_n", [4, 6, 8, 16])
def test_symbol_battery_passes(grid_n):
    (check,) = identity_checks.run_symbol_battery(grid_n, seed=17)
    assert check.passed, check
    # rounding alone: 2e-16 to 4e-16 at these grids
    assert check.measured <= 1e-14


def test_symbol_battery_passes_on_the_battery_scenario_case():
    # n = 16 and seed 4, LabConfig().seed + 3: the case `ajclab battery` ran
    # before the check moved into the tests, so tier-1 keeps its coverage
    (check,) = identity_checks.run_symbol_battery(16, seed=4)
    assert check.passed, check
    assert check.measured <= 1e-14


def test_calculus_battery_is_a_function_of_its_seed():
    first = battery.run_calculus_battery(8, 3, seed=29)
    again = battery.run_calculus_battery(8, 3, seed=29)
    assert [c.measured for c in first] == [c.measured for c in again]


#: the calculus battery's five measured values for 3 cases at (grid n, seed),
#: pinned to the bit: a change of layout or of summation order in the
#: calculus that moves any of them shows here
PINNED_CALCULUS = {
    (8, 1): [3.552713678800501e-14, 7.105427357601002e-14, 3.7655615023067126e-16, 0.0,
             1.3010426069826053e-18],
    (8, 2): [4.263256414560601e-14, 6.039613253960852e-14, 1.9127972121883052e-15, 0.0,
             2.168404344971009e-19],
    (16, 1): [3.979039320256561e-13, 5.684341886080801e-13, 1.3001505795579373e-15, 0.0,
              2.168404344971009e-19],
    (16, 2): [3.979039320256561e-13, 6.821210263296962e-13, 1.036905113773561e-15, 0.0,
              2.710505431213761e-19],
}


@pytest.mark.parametrize("grid_n, seed", sorted(PINNED_CALCULUS))
def test_calculus_battery_measures_its_pinned_values(grid_n, seed):
    measured = [c.measured for c in battery.run_calculus_battery(grid_n, 3, seed)]
    assert measured == PINNED_CALCULUS[(grid_n, seed)]


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
    a = alpha @ pl.OMEGA_SD.T / 2.0
    y_new = np.moveaxis(pl.deform_coords(y, a, pl.coords_norm_sq(a)), 0, -1)
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
