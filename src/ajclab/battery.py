"""The identity batteries that ``ajclab battery`` runs: vectorized
random-case sweeps over the deformation formula that every structure is
built with, and over the spectral calculus.
The deformation checks measure the routes that :mod:`.pointlin` computes
for :func:`.pointlin.deform_pair`, not a copy of its formulas.
The calculus battery draws its fields as coefficients that
:func:`.torusfield.from_low_pass` synthesizes, with no transform."""

from __future__ import annotations

import numpy as np

from . import pointlin as pl
from . import torusfield as tf
from .pointlin import AGREEMENT_TOL
from .reporting import Check

#: bound for the exact-normalization identity of deformed fundamental forms
NORM_TOL = 1e-12
#: bounds for the spectral calculus identities
DDZERO_TOL = 1e-12
ADJOINT_TOL = 1e-10
#: random cases of the deformation battery
CASES = 10_000


def _random_structures(rng: np.random.Generator) -> np.ndarray:
    """CASES compatible structures obtained by deforming the standard one
    with a random constant anti-invariant form of wedge norm below 0.9."""
    ab = rng.uniform(-1.0, 1.0, size=(CASES, 2))
    ab /= np.maximum(np.linalg.norm(ab, axis=-1, keepdims=True), 1e-12)
    ab *= rng.uniform(0.0, 0.9, size=(CASES, 1))
    alpha0 = ab[:, :1] * pl.OMEGA2 + ab[:, 1:] * pl.OMEGA3
    return pl.deform_pair(np.broadcast_to(pl.J0, (CASES, 4, 4)), alpha0)[0]


def _random_anti_invariant(rng: np.random.Generator, J: np.ndarray) -> np.ndarray:
    """Random anti-invariant forms for J, of wedge norm below 0.9."""
    phi = rng.uniform(-1.0, 1.0, size=J.shape[:-2] + (6,))
    alpha = pl.split_j(J, phi).minus
    nsq = pl.wedge_norm_sq(alpha)
    target = rng.uniform(0.0, 0.9**2, size=nsq.shape)
    return alpha * np.sqrt(target / np.maximum(nsq, 1e-30))[..., None]


def run_deformation_battery(seed: int) -> list[Check]:
    """Random-case battery for the rational deformation formulas, in 4x4
    form and in the self-dual coordinates y that structure fields store."""
    rng = np.random.default_rng(seed)
    J = _random_structures(rng)
    alpha = _random_anti_invariant(rng, J)
    nsq = pl.wedge_norm_sq(alpha)
    K, T, closed, conjugated, F_new = pl._deform_routes(J, alpha, nsq)
    squares, orthogonal = pl.acs_defect(closed)
    # the S^2 formulas against the 4x4 deformation that deform_pair returns
    y = pl.fundamental_form(J) @ pl.OMEGA_SD.T / 2.0
    a = alpha @ pl.OMEGA_SD.T / 2.0
    y_new = np.moveaxis(pl.deform_coords(y, a, pl.coords_norm_sq(a)), 0, -1)
    s2_residual = np.concatenate([
        (pl.acs_from_coords(y) - J).reshape(CASES, 16),
        (pl.acs_from_coords(y_new) - closed).reshape(CASES, 16),
        y_new @ pl.OMEGA_SD - F_new,
    ], axis=1)

    return [
        Check.within(
            "conjugation and closed-form deformations agree",
            closed - conjugated, AGREEMENT_TOL,
        ),
        Check.within("deformed structure squares to -Id", squares, AGREEMENT_TOL),
        Check.within("deformed structure is orthogonal", orthogonal, AGREEMENT_TOL),
        Check.within(
            "deformed fundamental form has wedge norm 1",
            pl.wedge_norm_sq(F_new) - 1.0, NORM_TOL,
        ),
        Check.within(
            "closed-form F matches the deformed structure",
            F_new - pl.fundamental_form(closed), AGREEMENT_TOL,
        ),
        Check.within("K is skew-adjoint", K + np.swapaxes(K, -1, -2), AGREEMENT_TOL),
        Check(
            "det(Id + J K) dominates (1 - |alpha|^2)^2",
            bool(np.all((m_arr := np.linalg.det(T) - (1.0 - nsq) ** 2) >= -AGREEMENT_TOL)),
            AGREEMENT_TOL, float(np.min(m_arr)),
        ),
        Check.within("S^2 coordinate formulas agree with deform_pair", s2_residual, AGREEMENT_TOL),
    ]


def _bandlimited(rng: np.random.Generator, grid: tf.GridSpec, cls):
    """A random field of type ``cls`` with the law that
    :func:`run_calculus_battery` states: its coefficients of degree up to
    n/2 - 2 in one ``standard_normal`` call, components last, copied
    components first and synthesized by :func:`.torusfield.from_low_pass`
    into fresh planes that are scaled in place and handed over sealed."""
    k = len(cls.NCOMP)
    coeffs = rng.standard_normal((grid.n - 3,) * 4 + cls.NCOMP)
    coeffs = np.moveaxis(coeffs, range(4, 4 + k), range(k)).copy()
    planes = tf.from_low_pass(coeffs, grid, k, None)
    planes /= max(1.0, float(np.max(planes)), -float(np.min(planes)))
    return cls(grid, tf.sealed(planes))


def run_calculus_battery(grid_n: int, count: int, seed: int) -> list[Check]:
    """Spectral calculus identities on random fields bandlimited to
    b = n/2 - 2.

    Each component of a field is :func:`.torusfield.from_low_pass` of
    independent N(0, 1) coefficients of degree <= b on each axis.  Its
    basis (the constant, sqrt(2) cos and sqrt(2) sin on each axis) is
    orthonormal over the nodes, so the field is Gaussian with covariance
    the projector onto the trigonometric polynomials of degree <= b on each
    axis: the law of :func:`.torusfield.low_pass` of unit white noise, with
    nodal variance (2b + 1)^4 / n^4.  Since b < n/2, these are the Fourier
    modes with every |k_a| <= b.  Each field is then divided by max(1,
    max|values|)."""
    grid = tf.GridSpec(grid_n)
    rng = np.random.default_rng(seed)
    dd_scalar = dd_oneform = 0.0
    adjoint_rel = 0.0
    integral_err = 0.0
    wedge_asym = 0.0
    for _ in range(count):
        f = _bandlimited(rng, grid, tf.ScalarField)
        theta = _bandlimited(rng, grid, tf.OneFormField)
        phi = _bandlimited(rng, grid, tf.TwoFormField)
        psi = _bandlimited(rng, grid, tf.TwoFormField)
        dd_scalar = max(dd_scalar, tf.d_oneform(tf.d_scalar(f)).max_abs())
        d_theta = tf.d_oneform(theta)
        dd_oneform = max(dd_oneform, tf.d_twoform(d_theta).max_abs())
        lhs = tf.l2_inner(d_theta, phi)
        rhs = tf.l2_inner(theta, tf.codiff_twoform(phi))
        adjoint_rel = max(adjoint_rel, abs(lhs - rhs) / max(1e-30, abs(lhs), abs(rhs)))
        shifted = tf.ScalarField(grid, f.values - np.mean(f.values) + 0.5)
        integral_err = max(integral_err, abs(tf.integrate(shifted) - 0.5))
        wedge_asym = max(
            wedge_asym, abs(tf.wedge_integral(phi, psi) - tf.wedge_integral(psi, phi))
        )

    return [
        Check.within("d(d scalar) vanishes", dd_scalar, DDZERO_TOL),
        Check.within("d(d one-form) vanishes", dd_oneform, DDZERO_TOL),
        Check.within("d and delta are adjoint under the L2 pairing", adjoint_rel, ADJOINT_TOL),
        Check.within("node-mean quadrature is exact on bandlimited fields", integral_err, 1e-14),
        Check.within("wedge pairing is symmetric", wedge_asym, 1e-14),
    ]

