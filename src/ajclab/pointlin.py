"""Exact linear algebra of 2-forms and almost complex structures on a single
oriented Euclidean 4-dimensional tangent space.

Conventions, fixed once and inherited by every other module:

* metric: the identity bilinear form on R^4; orientation: dx1^dx2^dx3^dx4;
* 2-form components in the ordered basis (e12, e13, e14, e23, e24, e34)
  with e_ij = dx^i ^ dx^j;
* self-dual frame ``OMEGA1 = e12+e34``, ``OMEGA2 = e13-e24``,
  ``OMEGA3 = e14+e23`` and its anti-self-dual mirror (e12-e34, e13+e24,
  e14-e23).

Every function broadcasts over leading axes: 2-forms are arrays of shape
``(..., 6)``, tangent-space endomorphisms ``(..., 4, 4)``, so the same code
serves a single point and a whole grid of points.

A compatible structure is also a point y of the unit sphere S^2: its
fundamental form is ``y @ OMEGA_SD``.  :func:`acs_from_coords` and
:func:`deform_coords` are the structure and the deformation formula in
these coordinates; the first places F's entries by :func:`form_to_matrix`,
the one placement rule of 2-forms in 4x4 matrices.  The 4x4 algebra
(:func:`deform_pair` and its conjugation cross-check) is the independent
oracle of the deformation formula.

Two norm conventions coexist.  ``form_inner`` is the Riemannian inner
product of the orthonormal ``e_ij`` basis (so ``<F, F> = 2`` for a
fundamental form).  ``wedge_norm_sq`` is the wedge-square normalization
``alpha ^ alpha = 2 |alpha|^2 dmu``, under which a fundamental form has
norm exactly 1; all deformation formulas below use the latter.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: index pairs (i, j), i < j, of the 2-form component order
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

#: index triples of the 3-form component order (e123, e124, e134, e234)
TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

# wedge pairing in the fixed component order: e_I ^ e_{partner(I)} is the
# volume form up to the sign below; the same table realizes the Hodge star.
_WEDGE_PARTNER = np.array([5, 4, 3, 2, 1, 0])
_WEDGE_SIGN = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])

OMEGA1 = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0])
OMEGA2 = np.array([0.0, 1.0, 0.0, 0.0, -1.0, 0.0])
OMEGA3 = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0])
#: rows are the self-dual frame (OMEGA1, OMEGA2, OMEGA3)
OMEGA_SD = np.stack([OMEGA1, OMEGA2, OMEGA3])

#: the standard compatible structure: e1 -> e2, e2 -> -e1, e3 -> e4, e4 -> -e3
J0 = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)

#: tolerance for the cross-assertion between independent formulas
AGREEMENT_TOL = 1e-10
#: tolerance for the structure invariants J^2 = -Id, J^T J = Id, and for
#: |y|^2 = 1 of a structure field's self-dual coordinates
ACS_TOL = 1e-9
#: tolerance for the pointwise preconditions on 2-forms: self-duality and
#: anti-invariance (relative to max(1, sup|form|)), and wedge normalization
FORM_TOL = 1e-8


class ConsistencyError(RuntimeError):
    """Two formulas that must agree produced different results."""


class FormSplit(NamedTuple):
    """The two halves of a splitting; ``plus + minus`` is the input."""

    plus: np.ndarray
    minus: np.ndarray


def _amax(x) -> float:
    x = np.asarray(x)
    return float(np.max(np.abs(x))) if x.size else 0.0


def wedge_to_volume(phi, psi):
    """Coefficient c of phi ^ psi = c dx1^dx2^dx3^dx4: 0 + s_0 phi_0 psi_5 +
    s_1 phi_1 psi_4 + ... + s_5 phi_5 psi_0 (signs s of _WEDGE_SIGN), added
    left to right into one output array.  psi ^ phi adds the same products
    in the opposite order, so the two agree up to rounding; the calculus
    battery's symmetry check measures that.  A single point gives a scalar."""
    phi = np.asarray(phi, float)
    psi = np.asarray(psi, float)
    out = np.zeros(np.broadcast_shapes(phi.shape[:-1], psi.shape[:-1]))
    for i, (j, sign) in enumerate(zip(_WEDGE_PARTNER, _WEDGE_SIGN)):
        out += sign * phi[..., i] * psi[..., j]
    return out[()]


def form_inner(phi, psi):
    """Riemannian inner product of 2-forms (the e_ij basis is orthonormal)."""
    return np.sum(np.asarray(phi, float) * np.asarray(psi, float), axis=-1)


def hodge_star(phi):
    """Hodge star on 2-forms; involutive, fixes OMEGA1..3, negates the mirror frame."""
    phi = np.asarray(phi, float)
    return _WEDGE_SIGN * phi[..., _WEDGE_PARTNER]


def split_sd(phi) -> FormSplit:
    """Split into the star-fixed (plus) and star-negated (minus) parts."""
    phi = np.asarray(phi, float)
    star = hodge_star(phi)
    return FormSplit((phi + star) / 2.0, (phi - star) / 2.0)


def form_to_matrix(phi):
    """Antisymmetric 4x4 matrix A with A[i, j] = phi(e_i, e_j)."""
    phi = np.asarray(phi, float)
    out = np.zeros(phi.shape[:-1] + (4, 4))
    for c, (i, j) in enumerate(PAIRS):
        out[..., i, j] = phi[..., c]
        out[..., j, i] = -phi[..., c]
    return out


def matrix_to_form(mat):
    """Inverse of :func:`form_to_matrix`: the components above the diagonal
    (antisymmetry is the caller's to ensure)."""
    mat = np.asarray(mat, float)
    comps = [mat[..., i, j] for (i, j) in PAIRS]
    return np.stack(comps, axis=-1)


def pull_back(J, phi):
    """The 2-form psi(X, Y) = phi(JX, JY), i.e. J^T A_phi J in matrix form."""
    J = np.asarray(J, float)
    A = form_to_matrix(phi)
    return matrix_to_form(np.swapaxes(J, -1, -2) @ A @ J)


def acs_defect(J) -> tuple[float, float]:
    """Max-norm residuals of J^2 + Id and J^T J - Id."""
    J = np.asarray(J, float)
    eye = np.eye(4)
    return _amax(J @ J + eye), _amax(np.swapaxes(J, -1, -2) @ J - eye)


def require_acs(J, tol: float = ACS_TOL) -> None:
    """Reject endomorphisms that are not metric-compatible square roots of -Id."""
    sq, orth = acs_defect(J)
    if sq > tol:
        raise ValueError(f"J^2 differs from -Id by {sq:.3e} (tol {tol:.1e})")
    if orth > tol:
        raise ValueError(f"J is not orthogonal (defect {orth:.3e}, tol {tol:.1e})")


def split_j(J, phi) -> FormSplit:
    """Split into the invariant (plus) and anti-invariant (minus) parts of
    the involution phi -> phi(J., J.).  Requires J^2 = -Id within ACS_TOL."""
    J = np.asarray(J, float)
    sq = _amax(J @ J + np.eye(4))
    if sq > ACS_TOL:
        raise ValueError(f"J^2 differs from -Id by {sq:.3e} (tol {ACS_TOL:.1e})")
    pb = pull_back(J, phi)
    phi = np.asarray(phi, float)
    return FormSplit((phi + pb) / 2.0, (phi - pb) / 2.0)


def fundamental_form(J):
    """F(X, Y) = g(JX, Y) for a compatible structure (within ACS_TOL); F is
    self-dual with wedge square 2."""
    J = np.asarray(J, float)
    require_acs(J)
    return matrix_to_form(np.swapaxes(J, -1, -2))


def acs_from_sd_form(F):
    """The unique compatible structure whose fundamental form is ``F``.

    ``F`` must be self-dual with wedge square 2 (wedge norm 1) within
    FORM_TOL, and the structure is checked within 10 FORM_TOL; this inverts
    :func:`fundamental_form`.
    """
    F = np.asarray(F, float)
    norm_defect = _amax(wedge_norm_sq(F) - 1.0)
    if norm_defect > FORM_TOL:
        raise ValueError(
            f"form is not wedge-normalized: |alpha|^2 deviates from 1 by {norm_defect:.3e}"
        )
    J = np.swapaxes(form_to_matrix(F), -1, -2)
    require_acs(J, tol=10.0 * FORM_TOL)
    return J


def acs_from_coords(y):
    """The structure sum_k y_k J_k, where J_k is the compatible structure
    with fundamental form OMEGA_k.

    For a unit vector y (the caller's to check) this is the structure
    :func:`acs_from_sd_form` returns for ``y @ OMEGA_SD``: it is linear in y,
    and :func:`form_to_matrix` places F's components, transposed, so
    J[j, i] = F_ij and J[i, j] = -F_ij for i < j and the diagonal is +0.
    The result is a transposed view.
    """
    return np.swapaxes(form_to_matrix(y @ OMEGA_SD), -1, -2)


def coords_norm_sq(a):
    """|a|^2 = a0 a0 + a1 a1 + a2 a2, summed left to right, of self-dual
    coordinates a: the wedge norm^2 of a @ OMEGA_SD."""
    return a[..., 0] * a[..., 0] + a[..., 1] * a[..., 1] + a[..., 2] * a[..., 2]


def deform_coords(y, a, nsq):
    """:func:`deform_pair` in self-dual coordinates.

    A structure with fundamental form y @ OMEGA_SD, deformed by the
    anti-invariant form a @ OMEGA_SD (a . y = 0 and |a| < 1, the caller's to
    check), has fundamental form y' @ OMEGA_SD with the inverse
    stereographic image y' = ((1 - |a|^2) y + 2 a) / (1 + |a|^2).

    ``nsq`` is |a|^2 as :func:`coords_norm_sq` gives it, and each component
    of y' is computed in one pass into one output array; so y' is the
    formula above to the bit, whatever the memory layout of y and a.  ``y``
    may be a broadcast view, such as a constant field.
    """
    shrink, grow = 1.0 - nsq, 1.0 + nsq
    out = np.empty(np.broadcast_shapes(np.shape(y), np.shape(a)))
    for k in range(3):
        comp = np.multiply(shrink, y[..., k], out=out[..., k])
        comp += 2.0 * a[..., k]
        comp /= grow
    return out


def wedge_norm_sq(alpha):
    """Pointwise wedge-square norm: alpha ^ alpha = 2 |alpha|^2 dmu.

    Defined (and nonnegative) for self-dual forms, where it equals half the
    Riemannian norm; rejects input that is not self-dual within FORM_TOL,
    for which the wedge square can be negative.
    """
    alpha = np.asarray(alpha, float)
    defect = _amax(alpha - hodge_star(alpha))
    if defect > FORM_TOL * max(1.0, _amax(alpha)):
        raise ValueError(f"form is not self-dual (defect {defect:.3e})")
    return wedge_to_volume(alpha, alpha) / 2.0


def _require_anti_invariant(J, alpha) -> None:
    plus = split_j(J, alpha).plus
    defect = _amax(plus)
    if defect > FORM_TOL * max(1.0, _amax(alpha)):
        raise ValueError(
            f"form is not anti-invariant (invariant part {defect:.3e}, tol {FORM_TOL:.1e})"
        )


def _deform_routes(J, alpha, nsq):
    """The routes of the deformation of a checked J by an anti-invariant
    alpha of wedge norm^2 ``nsq`` < 1: K_alpha, T = Id + J K_alpha, the
    closed form, T^-1 J T and the closed-form F_alpha, with F of J taken as
    matrix_to_form(J^T).  :func:`deform_pair` asserts on them, and the
    deformation battery measures them."""
    K = form_to_matrix(alpha)
    a = ((1.0 - nsq) / (1.0 + nsq))[..., None, None]
    b = (2.0 / (1.0 + nsq))[..., None, None]
    T = np.eye(4) + J @ K
    F_new = a[..., 0] * matrix_to_form(np.swapaxes(J, -1, -2)) + b[..., 0] * alpha
    return K, T, a * J - b * K, np.linalg.solve(T, J @ T), F_new


def deform_pair(J, alpha):
    """Deform a compatible structure and return (J_alpha, F_alpha) together.

    Computes J_alpha twice, by conjugating J with Id + J K_alpha and by the
    closed form ((1-n)/(1+n)) J - (2/(1+n)) K_alpha with n = |alpha|^2, and
    cross-asserts the two to AGREEMENT_TOL; likewise F_alpha against
    fundamental_form(J_alpha).  K_alpha = form_to_matrix(alpha) is the
    skew endomorphism with g(X, K_alpha Y) = alpha(X, Y).
    """
    J = np.asarray(J, float)
    alpha = np.asarray(alpha, float)
    require_acs(J)
    _require_anti_invariant(J, alpha)
    nsq = wedge_norm_sq(alpha)
    worst = float(np.max(nsq))
    if worst >= 1.0:
        raise ValueError(
            f"deformation form has wedge norm^2 {worst:.6f} >= 1 somewhere"
        )
    _, _, closed, conjugated, F_new = _deform_routes(J, alpha, nsq)
    dev = _amax(closed - conjugated)
    if dev > AGREEMENT_TOL:
        raise ConsistencyError(
            f"conjugation and closed-form deformations disagree by {dev:.3e}"
        )
    dev_f = _amax(F_new - fundamental_form(closed))
    if dev_f > AGREEMENT_TOL:
        raise ConsistencyError(
            f"closed-form fundamental form deviates from the deformed structure by {dev_f:.3e}"
        )
    return closed, F_new


def j_act_anti(J, alpha):
    """The action (J alpha)(., .) = -alpha(J., .) on anti-invariant forms.

    The output is again anti-invariant and applying the action twice gives
    ``-alpha``: the anti-invariant plane carries a complex structure.
    """
    J = np.asarray(J, float)
    _require_anti_invariant(J, alpha)
    M = -np.swapaxes(J, -1, -2) @ form_to_matrix(alpha)
    defect = _amax(M + np.swapaxes(M, -1, -2))
    if defect > FORM_TOL * max(1.0, _amax(alpha)):
        raise ValueError(f"action did not produce a 2-form (defect {defect:.3e})")
    return matrix_to_form(M)
