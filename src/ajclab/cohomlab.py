"""Dimension computations for the harmonic anti-invariant plane.

Two independent routes are implemented.  The Gram route is the primary
computation, exact on the flat torus.
Derivation: a closed anti-invariant 2-form is pointwise self-dual (the
anti-invariant plane sits inside the self-dual one), hence coclosed
(delta = -star d star kills closed self-dual forms), hence harmonic, hence
has constant coefficients on the flat torus (the Hodge Laplacian acts
diagonally on Fourier modes of each component).  Conversely a constant
self-dual form beta = sum_k beta_k omega_k is anti-invariant for J exactly
when <beta, F(x)> = 0 at every point.  With F = sum_k y_k omega_k
(:mod:`.hermitian`) and <omega_k, omega_l> = 2 delta_kl, the functions
f_k = <omega_k, F> are 2 y_k, so that condition reads beta . y(x) == 0,
i.e. beta^T G beta = 0 for the Gram matrix

    G_kl = integral(f_k f_l) = 4 mean(y_k y_l)

(the integral is the node mean); since G is positive semidefinite the
anti-invariant constants are exactly its kernel.  Constant self-dual forms
are handled by their coordinates beta throughout, and a structure
through its ``.grid`` and ``.planes`` alone: y's three component planes,
each a contiguous node array, so every node sum here is a product of whole
planes.

The second route counts the small eigenvalues of the self-adjoint
elliptic operator psi -> P^-(d delta psi) on sections of the
anti-invariant plane, whose kernel is the harmonic anti-invariant forms, so
the count must equal the Gram rank on every structure.  A section is
a_1 v_1 + a_2 v_2 in the frame of :func:`anti_invariant_frame`,
with coefficients a_i on the modes below the Nyquist band (P), and the
operator is A = P V^T C V P: V maps coefficients to self-dual coordinates
(an isometry), and P^- drops out because the frame spans the plane it
projects onto.  On a self-dual psi, delta d psi = star d delta psi, so
P^+ d delta P^+ = Delta / 2, which on the flat torus acts on each
coordinate alone: C = -1/2 sum_a D_a^2 for torusfield's differentiation
matrix D along grid axis a (the battery checks this against torusfield's
d delta).  D is exactly antisymmetric, so C is the Dirichlet form
<s, C s'> = 1/2 sum_a <D_a s, D_a s'>, and :func:`_ritz_values` takes it
as such, with no transform.  D's multipliers are 2 pi i k with k_a zeroed
on every Nyquist bin, so C has symbol |2 pi k|^2 / 2: it vanishes on the
48 corner sections phi e_l (phi a corner mode, every k_a in {0, n/2}) and
is at least lambda_gap = (2 pi)^2 / 2 off them.  Hence A >= lambda_gap
(I - W^T W) for W = Pi V P, Pi the projection onto the corner sections,
and by Weyl's inequality lambda_j(A) >= lambda_gap (1 - beta_j) for the
eigenvalues beta_j of the 48 x 48 matrix W W^T in descending order; Ritz
values on the lifted constants bound lambda_j(A) from above
(Courant-Fischer).  Neither A nor any 4x4 J is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pointlin as pl
from .torusfield import (
    GRID_AXES,
    GridSpec,
    ScalarField,
    _along,
    _diff_matrix,
    _worst_node,
)

#: principal-angle threshold for subspace comparisons (radians)
ANGLE_TOL = 1e-3

#: lambda_gap, the least nonzero value of C's symbol |2 pi k|^2 / 2 (module
#: docstring) at every n: one axis at |k_a| = 1, the others at 0 or n/2
LAMBDA_GAP = (2.0 * np.pi) ** 2 / 2.0

#: the elliptic oracle's kernel threshold, relative to LAMBDA_GAP
ORACLE_TAU = 1e-6

#: the least clearance of a frame pivot (anti_invariant_frame).  v1 divides
#: by |y x p|, so the frame's rounding is about u / clearance, 2.2e-13 at the
#: bound, and moves the elliptic oracle's bounds by about lambda_gap times
#: that, 4e-12, far below its threshold 1.97e-5.  The least clearance seen
#: on a structure is 0.19 (random, amplitude 0.99, n = 8); only a y within
#: 0.06 degrees of every candidate axis somewhere is refused.
MIN_CLEARANCE = 1e-3


@dataclass(frozen=True)
class GramReport:
    """Gram matrix of the <omega_k, F> functions and the inferred kernel."""

    grid_n: int
    matrix: np.ndarray          # (3, 3) symmetric PSD
    eigenvalues: np.ndarray     # ascending
    eigenvectors: np.ndarray    # columns match eigenvalues
    h_minus: int
    # (h_minus, 3): the kernel projector's columns 3, 2, 1, orthonormalized;
    # descending, as row 0 is the cut-off direction (see gram_matrix)
    null_coords: np.ndarray
    threshold: float            # absolute null threshold actually used
    tol_null: float             # relative threshold parameter

    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])


def _pairing(planes: np.ndarray, w) -> np.ndarray:
    """w . y = w0 y0 + w1 y1 + w2 y2 at every node, summed left to right
    over the structure's ``planes``: elementwise, so each node's value does
    not depend on where the node sits."""
    f = w[0] * planes[0]
    f += w[1] * planes[1]
    f += w[2] * planes[2]
    return f


def f_omega(triple: HermitianTriple, w) -> ScalarField:
    """The function <omega, F> = 2 w . y on the torus for the constant
    self-dual form omega = sum_k w_k omega_k."""
    return ScalarField(triple.grid, 2.0 * _pairing(triple.planes, np.asarray(w, float)))


def _projector_rows(P: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the range of the 3x3 orthogonal projector
    P, a function of that range alone: the columns P e_k for k = 2, 1, 0,
    each Gram-Schmidt orthogonalized against the rows kept so far and kept
    when its norm exceeds 1e-9."""
    rows: list[np.ndarray] = []
    for k in (2, 1, 0):
        w = P[:, k].copy()
        for q in rows:
            w -= (q @ w) * q
        norm = np.linalg.norm(w)
        if norm > 1e-9:
            rows.append(w / norm)
    return np.array(rows).reshape(-1, 3)


def gram_matrix(triple: HermitianTriple, tol_null: float = 1e-7) -> GramReport:
    """Assemble G = 4 mean(y y^T), i.e. G_kl = integral(<omega_k, F> <omega_l, F>),
    and read off the harmonic anti-invariant dimension as its numerical kernel.

    The kernel rows are :func:`_projector_rows` of the kernel projector
    V V^T of the null eigenvectors V: its columns for omega3, omega2, omega1
    in turn, orthonormalized, each kept above norm 1e-9.  So they depend on
    the kernel alone, not on the eigenvectors LAPACK picks inside it.  The
    order is descending because row 0 is the cut-off direction
    (:func:`select_null_form`): the standard kernel's rows are (omega3,
    omega2), so stage 1 deforms along omega3 and keeps +omega2 for stage 2.
    A ``tol_null`` outside (0, 1), NaN included, raises ValueError.

    G is assembled from the six dot products of y's contiguous component
    planes, each entry once and placed on both sides of the diagonal, so G
    is symmetric as built.  Each entry is a sum of N products of size at
    most 1, so its rounding error is at most 4 gamma_N, gamma_N = N u /
    (1 - N u), whatever order the dot product sums in.  The one product
    ``flat @ flat.T`` is symmetric as built too, but takes five times as
    long at n = 24.
    """
    if not 0.0 < tol_null < 1.0:
        raise ValueError(f"tol_null must lie in (0, 1), got {tol_null}")
    flat = triple.planes.reshape(3, -1)
    G = np.empty((3, 3))
    for k, l in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        G[k, l] = G[l, k] = flat[k] @ flat[l]
    G = 4.0 * G / flat.shape[1]
    eigenvalues, eigenvectors = np.linalg.eigh(G)
    threshold = tol_null * max(1.0, float(eigenvalues[-1]))
    h = int(np.sum(eigenvalues <= threshold))
    V = eigenvectors[:, :h]
    return GramReport(
        grid_n=triple.grid.n,
        matrix=G,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        h_minus=h,
        null_coords=_projector_rows(V @ V.T),
        threshold=threshold,
        tol_null=tol_null,
    )


def select_null_form(report: GramReport) -> np.ndarray:
    """Coordinates w of the first kernel direction of the Gram report,
    normalized so the constant form sum_k w_k omega_k has wedge integral 1
    over the unit-volume torus (|w|^2 = 1/2)."""
    if report.h_minus == 0:
        raise ValueError("the Gram kernel is empty")
    return report.null_coords[0] / np.sqrt(2.0)


def _nodal_cut(eps: float, sizes: np.ndarray) -> float:
    """eps * max(1, sup sizes), the cut above which a node's |f| counts as
    resolvably nonzero, for the non-negative nodewise ``sizes`` (|f|, or a
    bound on it).  Their max, which a NaN or an infinity makes non-finite, is
    both the finiteness check and the cut's scale.  A non-positive or
    non-finite ``eps``, or a non-finite max, raises ValueError."""
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    sup = float(sizes.max())
    if not np.isfinite(sup):
        raise ValueError("f_omega has non-finite values")
    return eps * max(1.0, sup)


def v_measure(triple: HermitianTriple, w, eps: float) -> float:
    """Volume fraction where <omega, F> is resolvably nonzero for the
    constant form omega = sum_k w_k omega_k: the fraction of nodes with |f|
    above :func:`_nodal_cut`, eps * max(1, sup|f|).  The :func:`f_omega`
    values (bit for bit) are scaled and made absolute in place."""
    f = _pairing(triple.planes, np.asarray(w, float))
    f *= 2.0
    np.abs(f, out=f)
    return np.count_nonzero(f > _nodal_cut(eps, f)) / f.size


#: a bound on each rounding error of the arc sweep of :func:`delta_j_estimate`:
#: in a node's f values, in the cut, and in an arc's angles in radians.  Each
#: comes from a few floating-point operations on values of size at most 2 pi
#: (|y| = 1 and the basis rows are unit vectors), so it is a few ulp of 8
#: (1.8e-15 each); the bound is over 50 of them
_SWEEP_ROUNDING = 1e-13


def delta_j_estimate(triple: HermitianTriple, report: GramReport, eps: float) -> float:
    """A certified lower bound on the infimum of :func:`v_measure` over the
    cup-normalized sphere in the span of the non-null Gram directions of
    ``report``, the Gram report of ``triple``.  The span's orthonormal basis
    is :func:`_projector_rows` of its projector; its dimension is l = 3 - h.

    l = 1: the sphere is the pair +-b/sqrt(2), and v(-w) = v(w) exactly, as
    negation is exact.  The value is one :func:`v_measure`, the infimum itself.

    l = 2: with (p, q) = sqrt(2) (b1 . y, b2 . y) and r = |(p, q)|, the
    direction theta has f = p cos(theta) + q sin(theta).  Every direction is
    cut at C = eps max(1, sup r), the largest of the per-direction cuts
    (sup|f| <= sup r), so a node that counts for theta here also counts in
    :func:`v_measure`: the value is a lower bound.  It falls below the
    infimum only through nodes whose |f| lies above a minimizing direction's
    own cut but not above C.  A node with r <= C fails every direction; any
    other fails exactly the closed arc of half-width arcsin(C / r) around
    atan2(q, p) + pi/2, folded mod pi.  The value is (N - D) / N for N
    nodes, where D is the deepest overlap of the arcs.  A region of greatest
    depth begins at an arc start, so D is read at the starts, with closed
    arcs, from one sort of the starts and one of the ends; an arc whose end
    passes pi also covers [0, end - pi].  So under the one cut C the value
    is exact over all directions, not a minimum over sampled ones.  The
    depth is counted in one pass over the distinct starts, with about 40
    bytes of temporaries per start.  A stage 1 is radial around its bump
    and has few (26 at n = 24 and 32 with the default bump); a non-radial
    input can have one at every node, about 40 MB at n = 32.

    Rounding can only lower the value.  C is raised by _SWEEP_ROUNDING, both
    relatively and absolutely, which covers the rounding of r and of each
    direction's f values, :func:`v_measure`'s included.  Each arc is widened
    by _SWEEP_ROUNDING on each side, which covers the rounding of atan2,
    arcsin, the fold and the depth's comparisons.  So every computed arc
    contains its exact arc, and a node whose raised cut reaches r fails
    every direction.

    l = 3 raises: the cut-off stages gate only structures with h >= 1.
    """
    l = 3 - report.h_minus
    if l not in (1, 2):
        raise ValueError(f"delta_J is certified on a non-null span of dimension 1 or 2, not {l}")
    V = report.eigenvectors[:, report.h_minus:]
    basis = _projector_rows(V @ V.T)
    if l == 1:
        return v_measure(triple, basis[0] / np.sqrt(2.0), eps)
    # three node buffers, p, q and half, and every step works in place: the
    # arc starts are written over q and the ends over p
    p, q = (np.sqrt(2.0) * basis) @ triple.planes.reshape(3, -1)
    n = p.size
    half = np.hypot(p, q)
    cut = (_nodal_cut(eps, half) + 2.0 * _SWEEP_ROUNDING) * (1.0 + _SWEEP_ROUNDING)
    with np.errstate(divide="ignore"):
        np.divide(cut, half, out=half)
    dead = half >= 1.0
    np.minimum(half, 1.0, out=half)
    np.arcsin(half, out=half)
    half += _SWEEP_ROUNDING
    np.arctan2(q, p, out=p)
    np.subtract(p, half, out=q)
    q += np.pi / 2.0
    # fold the starts, in (-pi, 3 pi/2) off the dead nodes, into [0, pi); a
    # start that rounds up to pi on the way becomes 0
    np.add(q, np.pi, out=q, where=q < 0.0)
    np.subtract(q, np.pi, out=q, where=q >= np.pi)
    np.multiply(half, 2.0, out=p)
    p += q
    # a node that fails every direction is the arc [0, pi) itself
    q[dead] = 0.0
    p[dead] = np.nextafter(np.pi, 0.0)
    del half, dead
    starts, ends = q, p
    starts.sort()
    ends.sort()
    # depth(t) = #(starts <= t) - #(ends < t) + #(ends >= t + pi) counts the
    # arcs that hold t and those that reach it past the fold, and the other
    # N - depth(t) nodes count for t.  Equal starts have equal depths, so the
    # last of each run stands for them.
    tops = starts[np.append(starts[1:] != starts[:-1], True)]
    missed = np.searchsorted(ends, tops, "left") + np.searchsorted(ends, tops + np.pi, "left")
    missed -= np.searchsorted(starts, tops, "right")
    return int(missed.min()) / n


@dataclass(frozen=True)
class EllipticReport:
    """The elliptic operator's certified small-eigenvalue count and the
    bounds that decided it (:func:`elliptic_kernel_dim`)."""

    grid_n: int
    pivot: np.ndarray          # the frame's pivot
    clearance: float           # min_x |pivot x y(x)|
    lambda_gap: float          # LAMBDA_GAP, the smallest nonzero value of C's symbol
    threshold: float           # t = ORACLE_TAU * lambda_gap
    lower_bounds: np.ndarray   # the 8 smallest certified lower bounds, ascending
    ritz_values: np.ndarray    # upper bounds on the smallest eigenvalues, ascending
    kernel_dim: int


def _corner_capture(g: np.ndarray) -> np.ndarray:
    """The eigenvalues beta_j, ascending, of W W^T (module docstring) for
    the frame components g[i, l] = v_i . e_l, shape (2, 3) + grid shape.
    Row (phi, l) of W is P of phi g[i, l] / sqrt(N), whose spectrum is
    G_il(k - kappa) on the kept modes k, for the spectra G of g and phi's
    frequency kappa.  The products are summed one kept k_0 at a time, over
    2 x 48 rows of (n - 1)^3 modes gathered by 8 flat indices into 3 axes."""
    n = g.shape[-1]
    half = n // 2
    kept = np.delete(np.arange(n), half)
    shifted = (kept, (kept - half) % n)  # k - kappa_a on one axis, for kappa_a = 0, n/2
    gathers = [np.ravel_multi_index(np.ix_(*(shifted[b] for b in bs)), (n, n, n)).ravel()
               for bs in np.ndindex(2, 2, 2)]
    spectra = np.fft.fftn(g, axes=(-4, -3, -2, -1)).reshape(2, 3, n, n**3)
    ww = np.zeros((48, 48))
    rows = np.empty((2, 16, 3, (n - 1) ** 3), complex)
    for k0 in kept:
        for c in range(16):  # the corner (b0, b1, b2, b3) in np.ndindex order
            rows[:, c] = spectra[:, :, (k0 - half * (c // 8)) % n, gathers[c % 8]]
        for z in rows.reshape(2, 48, -1).view(float):  # real and imaginary parts side by side
            ww += z @ z.T
    return np.linalg.eigvalsh(ww / float(n) ** 8)


def _ritz_values(frames: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Ritz values, ascending, of A on the lifted constants, the trial
    vectors of coefficients P(v_i . e_l) for l = 1, 2, 3: the eigenvalues of
    their matrix K under A on the span of the eigenvectors of their Gram
    matrix above ORACLE_TAU times its largest eigenvalue (e_1 lifts to 0 for
    y = e_1).  P removes, along each grid axis, the Nyquist mode, s mean(s h)
    for s = (-1)^j; K is C's Dirichlet form 1/2 sum_a sum_x (D_a s_l) .
    (D_a s_m) on the sections s_l = sum_i P(v_i . e_l) v_i, taken one
    self-dual component and one grid axis at a time.

    ``frames`` is (2,) + grid shape + (3,), a view of other memory
    included.  P is applied in place to one C-contiguous copy of it: s is
    +1 at the even indices of an axis and -1 at the odd ones, so
    subtracting s mean(s h) is subtracting the mean at the first and adding
    it at the second, exactly."""
    coeffs = np.array(frames, order="C")
    for ax in range(1, 5):
        sign = (-1.0) ** np.arange(frames.shape[ax]).reshape([-1 if a == ax else 1 for a in range(6)])
        mean = np.mean(coeffs * sign, axis=ax, keepdims=True)
        even, odd = ((slice(None),) * ax + (slice(start, None, 2),) for start in (0, 1))
        coeffs[even] -= mean
        coeffs[odd] += mean
    gram = np.einsum("ixl,ixm->lm", *[coeffs.reshape(2, -1, 3)] * 2)
    K = np.zeros((3, 3))
    for part in np.einsum("i...l,i...k->k...l", coeffs, frames):
        for axis in GRID_AXES:
            dp = _along(part, _diff_matrix(grid), axis, None).reshape(-1, 3)
            K += dp.T @ dp / 2.0
    s, U = np.linalg.eigh(gram)
    T = U[:, s > ORACLE_TAU * s[-1]] / np.sqrt(s[s > ORACLE_TAU * s[-1]])
    return np.linalg.eigvalsh(T.T @ K @ T)


def _cross(u: np.ndarray, v) -> np.ndarray:
    """The cross product u x v of the (3, N) planes ``u`` with ``v``, planes
    or one 3-vector, into fresh (3, N) planes, each component as
    :func:`numpy.cross` takes it, u_i v_j - u_j v_i.  ``np.cross(u, v,
    axisa=0, axisc=0)`` gives the same values, through components-last
    arrays, in 1.45 times the time of the frame at n = 6."""
    return np.stack([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                     u[0] * v[1] - u[1] * v[0]])


def anti_invariant_frame(
    triple: HermitianTriple,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Nodewise orthonormal frame (v1, v2) of the anti-invariant plane, in
    self-dual coordinates (a tangent frame of S^2 at y), with its pivot p
    and the pivot's clearance min_x |p x y(x)|.  ``v @ OMEGA_SD`` are
    wedge-unit forms.

    One p serves every node: v1 = y x p / |y x p| and v2 = y x v1, so the
    frame is as smooth as y.  p is the eigenvector of mean(y y^T) with the
    largest clearance, the first in ascending eigenvalue order on a tie.
    When h_minus >= 1, some unit beta has beta . y = 0 at every node: beta
    is an eigenvector (of eigenvalue 0) with clearance 1, the largest
    possible, so p = +-beta and v2 = (y (y . p) - p) / |y x p| = -p at
    every node.  A clearance below MIN_CLEARANCE raises
    :class:`.pointlin.ConsistencyError` naming the node where y comes
    nearest to the pivot axis.

    The frame is computed on the structure's planes, into planes of its
    own: v1 and v2 are the components-last views of (3,) + grid arrays.
    """
    y = triple.planes.reshape(3, -1)
    _, axes = np.linalg.eigh(y @ y.T / y.shape[1])
    along = np.abs(axes.T @ y)
    k = int(np.argmin(along.max(axis=1)))
    clearance = float(np.sqrt(max(0.0, 1.0 - along[k].max() ** 2)))
    if not clearance >= MIN_CLEARANCE:
        raise pl.ConsistencyError(
            f"y comes within clearance {clearance:.3e} of the frame pivot {axes[:, k]} at node "
            f"{_worst_node(triple.grid, along[k], None)} (bound {MIN_CLEARANCE:.0e})"
        )
    v1 = _cross(y, axes[:, k])
    v1 /= np.sqrt(pl.coords_norm_sq(v1.T))
    shape = (3,) + triple.grid.shape
    return (np.moveaxis(v1.reshape(shape), 0, -1), np.moveaxis(_cross(y, v1).reshape(shape), 0, -1),
            axes[:, k], clearance)


def elliptic_kernel_dim(triple: HermitianTriple, grid: GridSpec) -> EllipticReport:
    """The count of eigenvalues at or below t = ORACLE_TAU * lambda_gap of
    the operator A of the module docstring, certified from both sides
    without assembling A: at most #(lambda_gap (1 - beta_j) <= t), by
    Weyl (:func:`_corner_capture`; beyond the 48th, lambda_j(A) >=
    lambda_gap), and at least #(Ritz values <= t) (:func:`_ritz_values`).
    When h_minus >= 1 the frame's pivot is a Gram kernel direction p and
    v_2 = -p at every node, so the kernel lies in the trial space and its
    Ritz value is rounding.  The two counts must agree, or
    :class:`.pointlin.ConsistencyError` names both.

    Memory, at N nodes: the frame's planes (48 N bytes), kept throughout;
    for :func:`_corner_capture`, the spectra of the 6 frame components (96 N
    bytes, 6.3 MB at n = 16) and, per kept k_0, 96 shifted rows of W (1536
    (n - 1)^3 bytes); for :func:`_ritz_values`, the one copy of the frames
    that the Nyquist projection works on in place (48 N bytes) with one
    product of its size at a time, then the self-dual components of the 3
    lifted sections (72 N bytes) and one derivative product (24 N bytes).
    On one random structure (seed 4, amplitude 0.5, bandlimit 3) the
    tracemalloc peak is 16 MB at n = 16 and 254 MB at n = 32, where
    :func:`_corner_capture`'s transform sets it; :func:`_ritz_values` alone
    peaks at 178 MB.
    """
    if triple.grid != grid:
        raise ValueError(
            "structure must be built on the oracle grid "
            f"(got n={triple.grid.n}, oracle n={grid.n})"
        )
    v1, v2, pivot, clearance = anti_invariant_frame(triple)
    # the frame's planes, (i, l) + grid, and their (i, grid, l) view; the
    # frame's own planes are freed before the spectra are taken
    frames = np.stack([np.moveaxis(v, -1, 0) for v in (v1, v2)])
    del v1, v2
    lower = LAMBDA_GAP * (1.0 - _corner_capture(frames)[::-1])
    ritz = _ritz_values(np.moveaxis(frames, 1, -1), grid)
    t = ORACLE_TAU * LAMBDA_GAP
    at_most, at_least = int(np.sum(lower <= t)), int(np.sum(ritz <= t))
    if at_most != at_least:
        raise pl.ConsistencyError(
            f"the elliptic count at t = {t:.3e} is undecided: at most {at_most} by the "
            f"certified lower bounds {lower[:4]}, at least {at_least} by the Ritz values {ritz}"
        )
    return EllipticReport(grid.n, pivot, clearance, LAMBDA_GAP, t, lower[:8], ritz, at_most)


def _principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Principal angles from the span of the orthonormal rows a into that of
    the orthonormal rows b, one per row of a: the arcsines of the singular
    values of a's residual off b's span.  A row of a beyond b's dimension
    gives pi/2, up to the rounding of a sine near 1 (about 1e-8 in the
    angle)."""
    sines = np.linalg.svd(a - (a @ b.T) @ b, compute_uv=False)
    return np.arcsin(np.minimum(sines, 1.0))


def intersection_dim(r1: GramReport, r2: GramReport) -> int:
    """Dimension of the intersection of the two harmonic anti-invariant
    spaces, counted as principal angles below ANGLE_TOL."""
    if r1.grid_n != r2.grid_n:
        raise ValueError(f"grid mismatch: n={r1.grid_n} and n={r2.grid_n}")
    return int(np.sum(_principal_angles(r1.null_coords, r2.null_coords) < ANGLE_TOL))


def null_containment_angle(inner: GramReport, outer: GramReport) -> float:
    """Largest principal angle from the inner kernel into the outer kernel;
    0 when the inner kernel is trivial, pi/2 when containment is impossible."""
    return float(np.max(_principal_angles(inner.null_coords, outer.null_coords), initial=0.0))
