"""Dimension computations for the harmonic anti-invariant plane.

Two independent routes are implemented.

The Gram route is exact on the flat torus and is the primary computation.
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
are handled by their coordinates beta throughout.

The second route discretizes the self-adjoint strongly elliptic operator
psi -> P^-(d delta psi) on sections of the anti-invariant plane and counts
near-zero singular values; its kernel consists of the harmonic
anti-invariant forms, so it must agree with the Gram rank on every
structure.  It is kept at coarse resolution as an independent oracle.
Both its input and its output pairing live in the self-dual plane: a
section is sum_k c_k omega_k, and the nodewise anti-invariant frames v_j
(:func:`.hermitian.anti_invariant_frame`) see an output phi only through
its self-dual coordinates s_k = <phi, omega_k>, because P^- is the
orthogonal projection onto the plane the frames span, so
<P^- phi, v_j @ OMEGA_SD> = <phi, v_j @ OMEGA_SD> = v_j . s.  On a
self-dual psi, delta d psi = star d delta psi (delta = -star d star and
star psi = psi), so the Hodge Laplacian Delta psi = d delta psi + star d
delta psi is twice the self-dual part: P^+ d delta P^+ = Delta / 2.  On the
flat torus Delta acts on each coordinate a_k of psi = sum_k a_k omega_k
alone, and |omega_k|^2 = 2, so s = Delta a componentwise.  d delta
therefore enters only as one scalar convolution kernel, the impulse
response of the spectral Laplacian, read off from
:func:`.torusfield.d_codiff_values` and checked there to be scalar; no 4x4
J is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pointlin as pl
from .hermitian import HermitianTriple, anti_invariant_frame
from .torusfield import (
    GridSpec,
    ScalarField,
    TwoFormField,
    d_codiff_values,
    d_twoform,
)

#: second Betti number of the 4-torus
B2 = 6

#: principal-angle threshold for subspace comparisons (radians)
ANGLE_TOL = 1e-3

#: the elliptic oracle's kernel threshold, relative to the largest singular
#: value
ORACLE_TAU = 1e-6
#: largest dimension of the elliptic oracle's dense matrix
ORACLE_MAX_DIM = 5000


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


def f_omega(triple: HermitianTriple, w) -> ScalarField:
    """The function <omega, F> = 2 w . y on the torus for the constant
    self-dual form omega = sum_k w_k omega_k."""
    return ScalarField(triple.grid, 2.0 * (triple.y @ np.asarray(w, float)))


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
    """
    if not 0.0 < tol_null < 1.0:
        raise ValueError(f"tol_null must lie in (0, 1), got {tol_null}")
    ys = triple.y.reshape(-1, 3)
    G = 4.0 * (ys.T @ ys) / ys.shape[0]
    G = (G + G.T) / 2.0
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


def h_plus(report: GramReport) -> int:
    """Invariant cohomology dimension via h_plus + h_minus = b2 (= 6 here)."""
    return B2 - report.h_minus


def select_null_form(report: GramReport) -> np.ndarray:
    """Coordinates w of the first kernel direction of the Gram report,
    normalized so the constant form sum_k w_k omega_k has wedge integral 1
    over the unit-volume torus (|w|^2 = 1/2)."""
    if report.h_minus == 0:
        raise ValueError("the Gram kernel is empty")
    return report.null_coords[0] / np.sqrt(2.0)


def v_measure(triple: HermitianTriple, w, eps: float) -> float:
    """Volume fraction where <omega, F> is resolvably nonzero for the
    constant form omega = sum_k w_k omega_k: the fraction of nodes with |f|
    above eps * max(1, sup|f|).  The :func:`f_omega` values (bit for bit)
    are scaled and made absolute in place; their max, which a NaN or an
    infinity makes non-finite, is both the finiteness check and the cut's
    scale.  A non-positive or non-finite ``eps`` raises ValueError."""
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    f = triple.y @ np.asarray(w, float)
    f *= 2.0
    np.abs(f, out=f)
    sup = float(f.max())
    if not np.isfinite(sup):
        raise ValueError("f_omega has non-finite values")
    cut = eps * max(1.0, sup)
    return np.count_nonzero(f > cut) / f.size


#: a bound on each rounding error of the arc sweep of :func:`delta_j_estimate`:
#: in a node's f values, in the cut, and in an arc's angles in radians.  Each
#: comes from a few floating-point operations on values of size at most 2 pi
#: (|y| = 1 and the basis rows are unit vectors), so it is a few ulp of 8
#: (1.8e-15 each); the bound is over 50 of them
_SWEEP_ROUNDING = 1e-13
#: arc starts per block of the sweep's depth count, which bounds its temporaries
_SWEEP_BLOCK = 1 << 15


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
    is exact over all directions, not a minimum over sampled ones.

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
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    # three node buffers, p, q and half, and every step works in place: the
    # arc starts are written over q and the ends over p
    p, q = (np.sqrt(2.0) * basis) @ triple.y.reshape(-1, 3).T
    n = p.size
    half = np.hypot(p, q)
    sup = float(half.max())
    if not np.isfinite(sup):
        raise ValueError("f_omega has non-finite values")
    cut = (eps * max(1.0, sup) + 2.0 * _SWEEP_ROUNDING) * (1.0 + _SWEEP_ROUNDING)
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
    counted = n
    for lo in range(0, tops.size, _SWEEP_BLOCK):
        t = tops[lo : lo + _SWEEP_BLOCK]
        missed = np.searchsorted(ends, t, "left") + np.searchsorted(ends, t + np.pi, "left")
        missed -= np.searchsorted(starts, t, "right")
        counted = min(counted, int(missed.min()))
    return counted / n


@dataclass(frozen=True)
class EllipticReport:
    """Spectrum summary of the discretized anti-invariant elliptic operator."""

    grid_n: int
    retained_modes: int        # scalar Fourier modes kept per coefficient
    matrix_dim: int
    smallest_singular_values: np.ndarray  # ascending, up to 8
    largest_singular_value: float
    kernel_dim: int
    tau: float
    symmetry_defect: float


def _line_basis(n: int) -> np.ndarray:
    """Columns of an orthonormal (under the Euclidean sum) real trigonometric
    basis of functions on n nodes of the circle, shape (n, n - 1): the
    constant, then sqrt(2) cos and sqrt(2) sin of 2 pi k x for k = 1 ...
    n/2 - 1, all divided by sqrt(n).  The Nyquist mode is left out."""
    x = np.arange(n) / n
    columns = [np.ones(n)]
    for k in range(1, n // 2):
        columns += [np.sqrt(2.0) * np.cos(2.0 * np.pi * k * x),
                    np.sqrt(2.0) * np.sin(2.0 * np.pi * k * x)]
    return np.stack(columns, axis=-1) / np.sqrt(n)


def _scalar_kernel(grid: GridSpec) -> np.ndarray:
    """Half the nodal kernel c of d delta between self-dual coordinates,
    shape grid.shape: the self-dual coordinates of d delta psi are
    s_l(x) = sum_x' c(x - x') a_l(x') for psi = sum_k a_k omega_k.  Read off
    as the response of :func:`.torusfield.d_codiff_values` to the impulses
    omega_k at node 0, which must be delta_lk c to pl.AGREEMENT_TOL relative
    to max|c|, or :class:`.pointlin.ConsistencyError` is raised."""
    impulses = np.zeros((3,) + grid.shape + (6,))
    impulses[:, 0, 0, 0, 0] = pl.OMEGA_SD
    response = d_codiff_values(impulses, grid) @ pl.OMEGA_SD.T  # (k, grid, l)
    c = response[0, ..., 0]
    mixing = float(np.max(np.abs(response - np.eye(3)[:, None, None, None, None] * c[..., None])))
    if mixing > pl.AGREEMENT_TOL * float(np.max(np.abs(c))):
        raise pl.ConsistencyError(
            f"d delta is not scalar on self-dual coordinates (mixing {mixing:.3e})"
        )
    return c / 2.0


def _elliptic_matrix(triple: HermitianTriple, grid: GridSpec) -> np.ndarray:
    """The unsymmetrized matrix of psi -> P^-(d delta psi) in the basis
    E[:, r] frame_i of :func:`elliptic_kernel_dim`, with E = e (x) e (x) e
    (x) e for e = :func:`_line_basis` and frame_i = v_i @ OMEGA_SD: block
    (j, i) is E^T K_ji E for K_ji(x, x') = c(x - x') v_j(x) . v_i(x') / 2,
    with c / 2 from :func:`_scalar_kernel`.  K_ji is built one slice x_0 of
    the first grid axis at a time and contracted with e (x) e twice on the
    right and with e (x) e (x) e on the left; the slices' results U[x_0] are
    then contracted with e over x_0, one output row of e at a time."""
    n, m = grid.n, grid.n - 1
    R = m**4
    e = _line_basis(n)
    ee = np.kron(e, e)
    eee = np.kron(ee, e)
    c = _scalar_kernel(grid).reshape(n, n**3)
    nodes = np.indices((n, n, n)).reshape(3, -1)
    inner = np.ravel_multi_index((nodes[:, :, None] - nodes[:, None]) % n, (n, n, n))
    # D[t, x, x''] = c((-t) mod n, x - x''), so that slice x_0 of c(x - x')
    # is the view D[n - x_0 : 2n - x_0] over the first axis of x'
    D = c[-np.arange(2 * n) % n][:, inner]
    frames = np.stack(anti_invariant_frame(triple)).reshape(2, n, n**3, 3)
    M = np.empty((2, m, m**3, 2, R))
    U = np.empty((n, m**3, R))
    for j in range(2):
        for i in range(2):
            for x0 in range(n):
                K = (frames[j, x0] @ frames[i].reshape(-1, 3).T).reshape(n**3, n, n**3)
                K *= D[n - x0 : 2 * n - x0].transpose(1, 0, 2)
                K = K.reshape(-1, n**2) @ ee  # each step frees the previous one
                K = np.matmul(ee.T, K.reshape(-1, n**2, m**2))
                np.matmul(eee.T, K.reshape(n**3, R), out=U[x0])
            for r0 in range(m):
                M[j, r0, :, i] = (e[:, r0] @ U.reshape(n, -1)).reshape(m**3, R)
    return M.reshape(2 * R, 2 * R)


def _symmetrize(M: np.ndarray, rows: int) -> float:
    """Replace the square matrix M in place by (M + M^T) / 2, one block of
    ``rows`` rows and the matching columns at a time, and return the
    symmetry defect max|M - M^T| of the input.  The pair (a, b), (b, a) is
    handled in the block of min(a, b), so each block's temporaries hold at
    most ``rows`` rows of M."""
    defect = 0.0
    for lo in range(0, len(M), rows):
        upper, lower = M[lo : lo + rows, lo:], M[lo:, lo : lo + rows].T
        defect = max(defect, float(np.max(np.abs(upper - lower))))
        mean = (upper + lower) / 2.0
        M[lo : lo + rows, lo:] = mean
        M[lo:, lo : lo + rows] = mean.T
    return defect


def elliptic_kernel_dim(triple: HermitianTriple, oracle_grid: GridSpec) -> EllipticReport:
    """Kernel dimension of the discretized operator psi -> P^-(d delta psi).

    Sections of the anti-invariant plane are written in the nodewise pivoted
    frame of :func:`anti_invariant_frame` with coefficients restricted to
    the trigonometric modes below the Nyquist band (Nyquist modes are
    invisible to the antisymmetric spectral derivative and would fake kernel
    vectors).  The dense symmetric matrix has dimension
    ``2 * (n - 1)^4``, which must stay at or below ORACLE_MAX_DIM (n = 6
    gives 1250, n = 8 gives 4802).

    The assembly is exact, not approximate.  The basis functions are
    psi = E[:, r] v_i @ OMEGA_SD for the separable orthonormal basis
    E = e (x) e (x) e (x) e of :func:`_line_basis`, which spans these modes.
    Their pairing with v_j @ OMEGA_SD / 2 sees only the self-dual
    coordinates s of d delta psi: the frames are anti-invariant and P^- is
    an orthogonal projection, so P^- drops out.  On self-dual forms d
    delta acts on each coordinate alone through one scalar kernel c
    (:func:`_scalar_kernel`, read off from one call of
    :func:`.torusfield.d_codiff_values` and checked to be scalar), so block
    (j, i) of the matrix is E^T K_ji E with K_ji(x, x') =
    c(x - x') v_j(x) . v_i(x') / 2.  :func:`_elliptic_matrix` builds K_ji
    one slice of the first grid axis at a time and contracts it with the
    Kronecker factors of E as plain matrix products: no basis matrix and no
    per-column transform.

    Memory goes to the dense matrix (8 (2R)^2 bytes: 12.5 MB at n = 6,
    184 MB at n = 8, growing as its square).  The assembly adds the slice
    results U of one block (j, i) (8 n (n - 1)^7 bytes: 3.8 MB at n = 6,
    53 MB at n = 8), the shifted kernel (16 n^7 bytes: 4.5 MB and 34 MB) and one
    slice of K_ji with its contractions (about 5 MB and 40 MB); the traced
    peak of the assembly is 25 MB at n = 6 and 304 MB at n = 8.  The
    symmetry check and the symmetrization work on (n - 1)^3 rows at a time
    (:func:`_symmetrize`), so the only further full-size copy is the one
    ``eigvalsh`` makes.

    The assembled matrix must be symmetric to 1e-8 relative to its largest
    entry, or :class:`.pointlin.ConsistencyError` is raised; ``kernel_dim``
    counts singular values at or below ORACLE_TAU times the largest one,
    and the report records that tau.
    """
    if triple.grid != oracle_grid:
        raise ValueError(
            "structure must be built on the oracle grid "
            f"(got n={triple.grid.n}, oracle n={oracle_grid.n})"
        )
    grid = oracle_grid
    R = (grid.n - 1) ** 4
    dim = 2 * R
    if dim > ORACLE_MAX_DIM:
        raise ValueError(
            f"operator dimension {dim} exceeds the documented bound {ORACLE_MAX_DIM}; "
            "use a smaller oracle grid"
        )
    M = _elliptic_matrix(triple, grid)
    scale = max(1.0, float(M.max()), -float(M.min()))
    sym_defect = _symmetrize(M, (grid.n - 1) ** 3)
    if sym_defect > 1e-8 * scale:
        raise pl.ConsistencyError(
            f"discretized operator is not symmetric (defect {sym_defect:.3e}); "
            "the operator must be self-adjoint up to discretization error"
        )
    singular = np.sort(np.abs(np.linalg.eigvalsh(M)))
    s_max = float(singular[-1])
    kernel_dim = int(np.sum(singular <= ORACLE_TAU * s_max))
    return EllipticReport(
        grid_n=grid.n,
        retained_modes=R,
        matrix_dim=dim,
        smallest_singular_values=singular[:8],
        largest_singular_value=s_max,
        kernel_dim=kernel_dim,
        tau=ORACLE_TAU,
        symmetry_defect=sym_defect,
    )


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


def null_forms_closed_residual(report: GramReport) -> float:
    """Max nodal residual of d applied to the kernel basis forms, as
    constant fields on the report's grid."""
    grid = GridSpec(report.grid_n)
    return max(
        (d_twoform(TwoFormField.constant(grid, v @ pl.OMEGA_SD)).max_abs()
         for v in report.null_coords),
        default=0.0,
    )
