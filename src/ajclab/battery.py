"""Bulk identity batteries: vectorized random-case sweeps over the pointwise
algebra and the spectral calculus, reused by the test suite and the CLI."""

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
#: random cases of each pointwise battery
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
    K = pl.form_to_matrix(alpha)
    a = ((1.0 - nsq) / (1.0 + nsq))[..., None, None]
    b = (2.0 / (1.0 + nsq))[..., None, None]
    closed = a * J - b * K
    T = np.eye(4) + J @ K
    conjugated = np.linalg.solve(T, J @ T)
    F = pl.fundamental_form(J)
    F_new = a[..., 0] * F + b[..., 0] * alpha
    # the S^2 formulas against the 4x4 deformation, which deform_pair computes
    # bit for bit as closed and F_new
    y = F @ pl.OMEGA_SD.T / 2.0
    y_new = pl.deform_coords(y, alpha @ pl.OMEGA_SD.T / 2.0)
    s2_residual = np.concatenate([
        (pl.acs_from_coords(y) - J).reshape(CASES, 16),
        (pl.acs_from_coords(y_new) - closed).reshape(CASES, 16),
        y_new @ pl.OMEGA_SD - F_new,
    ], axis=1)

    eye = np.eye(4)
    return [
        Check.within(
            "conjugation and closed-form deformations agree",
            closed - conjugated, AGREEMENT_TOL,
        ),
        Check.within("deformed structure squares to -Id", closed @ closed + eye, AGREEMENT_TOL),
        Check.within(
            "deformed structure is orthogonal",
            np.swapaxes(closed, -1, -2) @ closed - eye, AGREEMENT_TOL,
        ),
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


def run_splitting_battery(seed: int) -> list[Check]:
    """Random-case battery for the splitting relations between the star and
    involution decompositions."""
    rng = np.random.default_rng(seed)
    J = _random_structures(rng)
    F = pl.fundamental_form(J)
    phi = rng.uniform(-1.0, 1.0, size=(CASES, 6))
    sj = pl.split_j(J, phi)
    sd = pl.split_sd(phi)
    alpha = _random_anti_invariant(rng, J)

    # invariant part = span(F) + anti-self-dual plane: the self-dual part of
    # the invariant component is a pointwise multiple of F
    plus_sd = pl.split_sd(sj.plus).plus
    proj = (pl.form_inner(plus_sd, F) / 2.0)[..., None] * F

    return [
        Check.within(
            "star splitting reconstructs the input",
            sd.plus + sd.minus - phi, AGREEMENT_TOL,
        ),
        Check.within(
            "involution splitting reconstructs the input",
            sj.plus + sj.minus - phi, AGREEMENT_TOL,
        ),
        Check.within(
            "pull-back fixes the invariant part",
            pl.pull_back(J, sj.plus) - sj.plus, AGREEMENT_TOL,
        ),
        Check.within(
            "pull-back negates the anti-invariant part",
            pl.pull_back(J, sj.minus) + sj.minus, AGREEMENT_TOL,
        ),
        Check.within(
            "self-dual part of the invariant component is a multiple of F",
            plus_sd - proj, AGREEMENT_TOL,
        ),
        Check.within(
            "anti-invariant parts are self-dual",
            sj.minus - pl.hodge_star(sj.minus), AGREEMENT_TOL,
        ),
        Check.within(
            "anti-invariant parts are orthogonal to F",
            pl.form_inner(sj.minus, F), AGREEMENT_TOL,
        ),
        Check.within(
            "anti-invariant forms have no anti-self-dual part",
            pl.split_sd(alpha).minus, AGREEMENT_TOL,
        ),
    ]


def run_calculus_battery(grid_n: int, count: int, seed: int) -> list[Check]:
    """Spectral calculus identities on random fields bandlimited to n/2 - 2."""
    grid = tf.GridSpec(grid_n)
    bandlimit = grid.n // 2 - 2
    rng = np.random.default_rng(seed)

    def bandlimited(cls):
        noise = cls(grid, rng.standard_normal(grid.shape + cls.NCOMP))
        vals = tf.spectral_truncate(noise, bandlimit).values
        return cls(grid, vals / max(1.0, float(np.max(np.abs(vals)))))

    dd_scalar = dd_oneform = 0.0
    adjoint_rel = 0.0
    integral_err = 0.0
    wedge_asym = 0.0
    for _ in range(count):
        f = bandlimited(tf.ScalarField)
        theta = bandlimited(tf.OneFormField)
        phi = bandlimited(tf.TwoFormField)
        psi = bandlimited(tf.TwoFormField)
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
