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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import pointlin as pl
from .hermitian import HermitianTriple, anti_invariant_frame
from .torusfield import GridSpec, ScalarField, TwoFormField, d_codiff_values, d_twoform

#: second Betti number of the 4-torus
B2 = 6

#: principal-angle threshold for subspace comparisons (radians)
ANGLE_TOL = 1e-3

#: basis rows per batched operator application in the elliptic oracle; the
#: working set of one block grows linearly with it
_ORACLE_BLOCK = 8


@dataclass(frozen=True)
class GramReport:
    """Gram matrix of the <omega_k, F> functions and the inferred kernel."""

    grid_n: int
    matrix: np.ndarray          # (3, 3) symmetric PSD
    eigenvalues: np.ndarray     # ascending
    eigenvectors: np.ndarray    # columns match eigenvalues
    h_minus: int
    null_coords: np.ndarray     # (h_minus, 3) canonical kernel basis rows
    threshold: float            # absolute null threshold actually used
    tol_null: float             # relative threshold parameter

    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    def to_dict(self) -> dict:
        return {
            "grid_n": self.grid_n,
            "matrix": self.matrix.tolist(),
            "eigenvalues": self.eigenvalues.tolist(),
            "eigenvectors": self.eigenvectors.tolist(),
            "h_minus": self.h_minus,
            "null_coords": self.null_coords.tolist(),
            "threshold": self.threshold,
            "tol_null": self.tol_null,
        }


def f_omega(triple: HermitianTriple, w) -> ScalarField:
    """The function <omega, F> = 2 w . y on the torus for the constant
    self-dual form omega = sum_k w_k omega_k."""
    return ScalarField(triple.grid, 2.0 * (triple.y @ np.asarray(w, float)))


def _canonical_vector(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, float)
    for x in v:
        if abs(x) > 1e-12:
            return v if x > 0 else -v
    return v


def gram_matrix(triple: HermitianTriple, tol_null: float = 1e-7) -> GramReport:
    """Assemble G = 4 mean(y y^T), i.e. G_kl = integral(<omega_k, F> <omega_l, F>),
    and read off the harmonic anti-invariant dimension as its numerical kernel.

    The kernel basis rows are ordered deterministically: ascending
    eigenvalue, ties broken by lexicographic order of the sign-canonicalized
    coefficients.
    """
    ys = triple.y.reshape(-1, 3)
    G = 4.0 * (ys.T @ ys) / ys.shape[0]
    G = (G + G.T) / 2.0
    eigenvalues, eigenvectors = np.linalg.eigh(G)
    threshold = tol_null * max(1.0, float(eigenvalues[-1]))
    null_idx = [i for i in range(3) if eigenvalues[i] <= threshold]
    pairs = sorted(
        ((float(eigenvalues[i]), _canonical_vector(eigenvectors[:, i])) for i in null_idx),
        key=lambda p: (p[0], tuple(np.round(p[1], 9))),
    )
    null_coords = np.array([v for _, v in pairs]).reshape(len(pairs), 3)
    return GramReport(
        grid_n=triple.grid.n,
        matrix=G,
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        h_minus=len(null_idx),
        null_coords=null_coords,
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
    above eps * max(1, sup|f|).  One pass over the nodes: the
    :func:`f_omega` values (bit for bit), their finiteness check, and the
    count on their absolute values, taken in place."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    f = 2.0 * (triple.y @ np.asarray(w, float))
    if not np.all(np.isfinite(f)):
        raise ValueError("f_omega has non-finite values")
    np.abs(f, out=f)
    cut = eps * max(1.0, float(f.max()))
    return np.count_nonzero(f > cut) / f.size


def _sphere_samples(dim: int, samples: int) -> np.ndarray:
    """Deterministic low-discrepancy point sets on S^{dim-1}."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        theta = 2.0 * np.pi * np.arange(samples) / samples
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    i = np.arange(samples)
    z = 1.0 - (2.0 * i + 1.0) / samples
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    r = np.sqrt(np.maximum(0.0, 1.0 - z**2))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


def _span_basis(eigenvectors: np.ndarray, null_count: int) -> np.ndarray:
    """Coordinate-aligned orthonormal basis of the non-null span.

    Projects the coordinate axes into the span in index order and
    orthonormalizes, so axis-aligned directions are sampled exactly when
    they lie in the span; deterministic.
    """
    V = eigenvectors[:, null_count:]
    P = V @ V.T
    basis: list[np.ndarray] = []
    for k in range(3):
        w = P[:, k].copy()
        for q in basis:
            w -= (q @ w) * q
        norm = np.linalg.norm(w)
        if norm > 1e-9:
            basis.append(w / norm)
        if len(basis) == V.shape[1]:
            break
    return np.array(basis)


def delta_j_estimate(
    triple: HermitianTriple, samples: int, eps: float, tol_null: float = 1e-7
) -> float:
    """Estimated infimum of :func:`v_measure` over the cup-normalized sphere
    in the span of the non-null Gram directions (deterministic sampling)."""
    return _delta_j_estimate(triple, gram_matrix(triple, tol_null=tol_null), samples, eps)


def _delta_j_estimate(triple: HermitianTriple, report: GramReport, samples: int,
                      eps: float) -> float:
    """:func:`delta_j_estimate` for a structure whose Gram report the caller
    holds."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    l = 3 - report.h_minus
    if l == 0:
        raise ValueError("every harmonic self-dual direction is anti-invariant; the sphere is empty")
    basis = _span_basis(report.eigenvectors, report.h_minus)
    best = 1.0
    for c in _sphere_samples(l, samples):
        w = (c @ basis) / np.sqrt(2.0)  # wedge integral 1
        best = min(best, v_measure(triple, w, eps))
    return best


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

    def to_dict(self) -> dict:
        return {
            "grid_n": self.grid_n,
            "retained_modes": self.retained_modes,
            "matrix_dim": self.matrix_dim,
            "smallest_singular_values": self.smallest_singular_values.tolist(),
            "largest_singular_value": self.largest_singular_value,
            "kernel_dim": self.kernel_dim,
            "tau": self.tau,
            "symmetry_defect": self.symmetry_defect,
        }


def _real_fourier_basis(grid: GridSpec, kmax: int) -> np.ndarray:
    """Rows are nodal values of an orthonormal real trigonometric basis
    (orthonormal under the node-mean inner product) spanning all modes with
    every axis frequency at most kmax in magnitude."""
    n = grid.n
    coords = np.stack([c + np.zeros(grid.shape) for c in grid.coords()], axis=-1)
    X = coords.reshape(-1, 4).T  # (4, N)
    ks = np.arange(-kmax, kmax + 1)
    modes = np.stack(np.meshgrid(ks, ks, ks, ks, indexing="ij"), axis=-1).reshape(-1, 4)
    rows = [np.ones(X.shape[1])]
    for k in modes:
        nz = k[k != 0]
        if len(nz) == 0 or nz[0] < 0:
            continue  # keep one representative of each +-k pair, plus skip 0
        phase = 2.0 * np.pi * (k @ X)
        rows.append(np.sqrt(2.0) * np.cos(phase))
        rows.append(np.sqrt(2.0) * np.sin(phase))
    return np.array(rows)


def _elliptic_matrix(triple: HermitianTriple, grid: GridSpec) -> np.ndarray:
    """The unsymmetrized matrix of psi -> P^-(d delta psi) in the basis
    B[m] (x) frame_i of :func:`elliptic_kernel_dim`: entry
    (j R + r, i R + m) is the node mean of B[r] <P^-(d delta psi), frame_j> / 2
    for psi = B[m] frame_i."""
    B = _real_fourier_basis(grid, grid.n // 2 - 1)
    R, N = B.shape
    frames = np.stack(anti_invariant_frame(triple)) @ pl.OMEGA_SD  # (2, grid shape, 6)
    # row c of minus[x] is P^-(e_c) at node x, so <P^- phi, frame_j> / 2 = phi . weights[x, :, j]
    minus = pl.split_j(triple.J.values[..., None, :, :], np.eye(6), tol=1e-8).minus
    weights = np.einsum("xcd,jxd->xcj", minus.reshape(N, 6, 6), frames.reshape(2, N, 6)) / 2.0
    M = np.empty((2, R, 2, R))
    for i in range(2):
        for lo in range(0, R, _ORACLE_BLOCK):
            rows = B[lo : lo + _ORACLE_BLOCK]
            psi = rows.reshape((-1,) + grid.shape + (1,)) * frames[i]
            out = d_codiff_values(psi, grid).reshape(len(rows), N, 6)
            q = np.matmul(out.transpose(1, 0, 2), weights)  # (N, block, 2)
            proj = (B @ q.reshape(N, -1)).reshape(R, len(rows), 2) / N
            M[:, :, i, lo : lo + len(rows)] = proj.transpose(2, 0, 1)
    return M.reshape(2 * R, 2 * R)


def elliptic_kernel_dim(
    triple: HermitianTriple,
    oracle_grid: GridSpec,
    tau: float = 1e-6,
    max_dim: int = 5000,
) -> EllipticReport:
    """Kernel dimension of the discretized operator psi -> P^-(d delta psi).

    Sections of the anti-invariant plane are written in the nodewise pivoted
    frame of :func:`anti_invariant_frame` with coefficients restricted to
    the trigonometric modes below the Nyquist band (Nyquist modes are
    invisible to the antisymmetric spectral derivative and would fake kernel
    vectors).  The dense symmetric matrix has dimension
    ``2 * (n - 1)^4``, which must stay at or below ``max_dim`` (n = 6 gives
    1250, n = 8 gives 4802).

    The matrix is assembled in blocks of basis sections: for each frame,
    a block of basis rows times that frame goes through one batched
    d delta (:func:`.torusfield.d_codiff_values`, one real FFT pair for
    the block), and one product with the basis projects the result onto
    both frames.  P^- is not applied per column: it is folded, with the
    frame pairing, into per-node weights built once per call from the
    4x4 involution of :func:`.pointlin.split_j`, which keeps its J^2 = -Id
    check.  Memory goes to the dense matrix (8 (2R)^2 bytes, 12.5 MB at
    n = 6, 184 MB at n = 8, growing as its square), the basis (8 R n^4
    bytes) and the per-node weights; one block's fields and spectra add a
    working set linear in the block size and independent of R.

    The assembled matrix must be symmetric to 1e-8 relative to its largest
    entry, or :class:`.pointlin.ConsistencyError` is raised; ``kernel_dim``
    counts singular values at or below ``tau`` times the largest one.
    """
    if triple.grid != oracle_grid:
        raise ValueError(
            "structure must be built on the oracle grid "
            f"(got n={triple.grid.n}, oracle n={oracle_grid.n})"
        )
    grid = oracle_grid
    R = (grid.n - 1) ** 4
    dim = 2 * R
    if dim > max_dim:
        raise ValueError(
            f"operator dimension {dim} exceeds the documented bound {max_dim}; "
            "use a smaller oracle grid"
        )
    M = _elliptic_matrix(triple, grid)
    sym_defect = float(np.max(np.abs(M - M.T)))
    if sym_defect > 1e-8 * max(1.0, float(np.max(np.abs(M)))):
        raise pl.ConsistencyError(
            f"discretized operator is not symmetric (defect {sym_defect:.3e}); "
            "the operator must be self-adjoint up to discretization error"
        )
    M = (M + M.T) / 2.0
    singular = np.sort(np.abs(np.linalg.eigvalsh(M)))
    s_max = float(singular[-1])
    kernel_dim = int(np.sum(singular <= tau * s_max))
    return EllipticReport(
        grid_n=grid.n,
        retained_modes=R,
        matrix_dim=dim,
        smallest_singular_values=singular[:8],
        largest_singular_value=s_max,
        kernel_dim=kernel_dim,
        tau=tau,
        symmetry_defect=sym_defect,
    )


def _null_matrix(report: GramReport) -> np.ndarray:
    return report.null_coords.T  # (3, h)


def intersection_dim(r1: GramReport, r2: GramReport) -> int:
    """Dimension of the intersection of the two harmonic anti-invariant
    spaces, counted as principal angles below ANGLE_TOL."""
    if r1.grid_n != r2.grid_n:
        raise ValueError(f"grid mismatch: n={r1.grid_n} and n={r2.grid_n}")
    if r1.h_minus == 0 or r2.h_minus == 0:
        return 0
    angles = scipy.linalg.subspace_angles(_null_matrix(r1), _null_matrix(r2))
    return int(np.sum(angles < ANGLE_TOL))


def null_containment_angle(inner: GramReport, outer: GramReport) -> float:
    """Largest principal angle from the inner kernel into the outer kernel;
    0 when the inner kernel is trivial, pi/2 when containment is impossible."""
    if inner.h_minus == 0:
        return 0.0
    if inner.h_minus > outer.h_minus:
        return float(np.pi / 2.0)
    angles = scipy.linalg.subspace_angles(_null_matrix(inner), _null_matrix(outer))
    return float(np.max(angles))


def null_forms_closed_residual(report: GramReport) -> float:
    """Max nodal residual of d applied to the kernel basis forms, as
    constant fields on the report's grid."""
    grid = GridSpec(report.grid_n)
    return max(
        (d_twoform(TwoFormField.constant(grid, v @ pl.OMEGA_SD)).max_abs()
         for v in report.null_coords),
        default=0.0,
    )
