"""Identities of the pointwise algebra and of d delta that no decision of
ajclab uses, held here against the package: the star splitting, the
Riemannian inner product of 2-forms and the structure's action on
anti-invariant forms, and the splitting and symbol batteries built on
them, each returning checks as the package's batteries do."""

import numpy as np

from ajclab import battery, pointlin as pl, torusfield as tf
from ajclab.pointlin import AGREEMENT_TOL, FormSplit
from ajclab.reporting import Check


def form_inner(phi, psi):
    """Riemannian inner product of 2-forms (the e_ij basis is orthonormal),
    so <F, F> = 2 for a fundamental form, twice its wedge norm^2."""
    return np.sum(np.asarray(phi, float) * np.asarray(psi, float), axis=-1)


def split_sd(phi) -> FormSplit:
    """Split into the star-fixed (plus) and star-negated (minus) parts."""
    phi = np.asarray(phi, float)
    star = pl.hodge_star(phi)
    return FormSplit((phi + star) / 2.0, (phi - star) / 2.0)


def j_act_anti(J, alpha):
    """The action (J alpha)(., .) = -alpha(J., .) on anti-invariant forms.

    The output is again anti-invariant and applying the action twice gives
    ``-alpha``: the anti-invariant plane carries a complex structure.
    """
    J = np.asarray(J, float)
    pl._require_anti_invariant(J, alpha)
    M = -np.swapaxes(J, -1, -2) @ pl.form_to_matrix(alpha)
    defect = pl._amax(M + np.swapaxes(M, -1, -2))
    if defect > pl.FORM_TOL * max(1.0, pl._amax(alpha)):
        raise ValueError(f"action did not produce a 2-form (defect {defect:.3e})")
    return pl.matrix_to_form(M)


def run_splitting_battery(seed: int) -> list[Check]:
    """Random-case battery for the splitting relations between the star and
    involution decompositions, on battery.CASES structures drawn as the
    deformation battery draws them."""
    rng = np.random.default_rng(seed)
    J = battery._random_structures(rng)
    F = pl.fundamental_form(J)
    phi = rng.uniform(-1.0, 1.0, size=(battery.CASES, 6))
    sj = pl.split_j(J, phi)
    sd = split_sd(phi)
    alpha = battery._random_anti_invariant(rng, J)

    # invariant part = span(F) + anti-self-dual plane: the self-dual part of
    # the invariant component is a pointwise multiple of F
    plus_sd = split_sd(sj.plus).plus
    proj = (form_inner(plus_sd, F) / 2.0)[..., None] * F

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
            form_inner(sj.minus, F), AGREEMENT_TOL,
        ),
        Check.within(
            "anti-invariant forms have no anti-self-dual part",
            split_sd(alpha).minus, AGREEMENT_TOL,
        ),
    ]


def run_symbol_battery(grid_n: int, seed: int) -> list[Check]:
    """For white-noise self-dual coordinates psi, the self-dual coordinates
    of d delta (psi @ OMEGA_SD), :func:`.torusfield.d_oneform` of
    :func:`.torusfield.codiff_twoform`, must be -1/2 sum_a D_a^2 applied to
    psi, each coordinate alone, for torusfield's differentiation matrix D
    along grid axis a, to AGREEMENT_TOL relative to their largest value.
    That is the operator C whose Dirichlet form the elliptic oracle takes
    (:mod:`ajclab.cohomlab`).  White noise carries every mode, so d delta
    is scalar, symmetric and equal to C everywhere.  Both sides are built
    from D, so a fault in D itself passes here; the oracle's Ritz values
    are checked against a transform reference for that."""
    grid = tf.GridSpec(grid_n)
    psi = np.random.default_rng(seed).standard_normal(grid.shape + (3,))
    planes = np.moveaxis(psi @ pl.OMEGA_SD, -1, 0)
    d_delta = tf.d_oneform(tf.codiff_twoform(tf.TwoFormField(grid, planes)))
    got = d_delta.values @ pl.OMEGA_SD.T / 2.0
    D = tf._diff_matrix(grid)
    expect = -0.5 * sum(tf._along(tf._along(psi, D, a, None), D, a, None) for a in tf.GRID_AXES)
    return [Check.within("d delta on self-dual coordinates is the oracle's -1/2 sum_a D_a^2",
                         (got - expect) / np.max(np.abs(expect)), AGREEMENT_TOL)]
