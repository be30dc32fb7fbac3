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
<P^- phi, v_j @ OMEGA_SD> = <phi, v_j @ OMEGA_SD> = v_j . s.  d delta
therefore enters only as a 3x3 multiplier per Fourier mode, read off from
:func:`.torusfield.d_codiff_values`, and no 4x4 J is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pointlin as pl
from .hermitian import HermitianTriple, anti_invariant_frame
from .torusfield import (
    _SPEC_AXES,
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

#: basis rows per block of the elliptic oracle's assembly; the working set
#: of one block grows linearly with it and does not depend on R
_ORACLE_BLOCK = 32


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
    """
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


#: sphere sample count of :func:`delta_j_estimate` on a span of dimension 2 or 3
DELTA_SAMPLES = 64


def _sphere_samples(dim: int) -> np.ndarray:
    """Deterministic low-discrepancy point sets on S^{dim-1}: both points of
    S^0, else DELTA_SAMPLES points."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        theta = 2.0 * np.pi * np.arange(DELTA_SAMPLES) / DELTA_SAMPLES
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    i = np.arange(DELTA_SAMPLES)
    z = 1.0 - (2.0 * i + 1.0) / DELTA_SAMPLES
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    r = np.sqrt(np.maximum(0.0, 1.0 - z**2))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


def delta_j_estimate(triple: HermitianTriple, report: GramReport, eps: float) -> float:
    """Estimated infimum of :func:`v_measure` over the cup-normalized sphere
    in the span of the non-null Gram directions of ``report``, the Gram
    report of ``triple``: the minimum over the :func:`_sphere_samples` of
    that span, whose basis is :func:`_projector_rows` of its projector."""
    l = 3 - report.h_minus
    if l == 0:
        raise ValueError("every harmonic self-dual direction is anti-invariant; the sphere is empty")
    V = report.eigenvectors[:, report.h_minus:]
    basis = _projector_rows(V @ V.T)
    # each sample c @ basis / sqrt(2) has wedge integral 1
    return min(v_measure(triple, c @ basis / np.sqrt(2.0), eps) for c in _sphere_samples(l))


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


def _basis_modes(kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """The one enumeration of the oracle's real trigonometric basis, as
    integer modes m (R, 4) and complex coefficients c (R,): row r has nodal
    values 2 Re(c[r] exp(2 pi i m[r] . x)).  Row 0 is the constant 1
    (m = 0, c = 1/2); then, for one representative m of each +-m pair with
    every axis frequency at most kmax in magnitude (the first nonzero
    entry positive), sqrt(2) cos(2 pi m . x) (c = sqrt(2)/2) and
    sqrt(2) sin(2 pi m . x) (c = -i sqrt(2)/2)."""
    ks = np.arange(-kmax, kmax + 1)
    grid_modes = np.stack(np.meshgrid(ks, ks, ks, ks, indexing="ij"), axis=-1).reshape(-1, 4)
    half = np.sqrt(2.0) / 2.0
    modes, coefs = [np.zeros(4, int)], [0.5]
    for k in grid_modes:
        nz = k[k != 0]
        if len(nz) == 0 or nz[0] < 0:
            continue  # keep one representative of each +-k pair, plus skip 0
        modes += [k, k]
        coefs += [half, -1j * half]
    return np.array(modes), np.array(coefs, dtype=complex)


def _real_fourier_basis(grid: GridSpec, kmax: int) -> np.ndarray:
    """Rows are nodal values of an orthonormal real trigonometric basis
    (orthonormal under the node-mean inner product) spanning all modes with
    every axis frequency at most kmax in magnitude, in the order of
    :func:`_basis_modes`."""
    coords = np.stack([c + np.zeros(grid.shape) for c in grid.coords()], axis=-1)
    X = coords.reshape(-1, 4).T  # (4, N)
    modes, coefs = _basis_modes(kmax)
    rows = np.empty((len(modes), X.shape[1]))
    for r, (m, c) in enumerate(zip(modes, coefs)):
        rows[r] = 2.0 * abs(c) * np.cos(2.0 * np.pi * (m @ X) + np.angle(c))
    return rows


def _shifted_bins(shifts: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Flat indices into a full spectrum of the grid (n^4 bins, C order)
    of kappa - shift, mod n, for every half-spectrum bin kappa and every
    row of ``shifts`` (b, 4); shape (b, n, n, n, n/2 + 1)."""
    n = grid.n
    flat = np.zeros((len(shifts), 1, 1, 1, 1), dtype=np.intp)
    for axis, size in enumerate((n, n, n, n // 2 + 1)):
        kappa = np.arange(size).reshape([-1 if a == axis else 1 for a in range(4)])
        flat = flat * n + (kappa - shifts[:, axis].reshape(-1, 1, 1, 1, 1)) % n
    return flat


def _section_spectra(spectrum: np.ndarray, modes: np.ndarray, coefs: np.ndarray,
                     grid: GridSpec) -> np.ndarray:
    """Half spectra of the sections B[r] a for the basis rows (modes,
    coefs) of :func:`_basis_modes`, gathered from the full spectrum
    (3, n, n, n, n) of the coefficient field a; shape (3, b, n, n, n,
    n/2 + 1).  On the grid's cyclic DFT, multiplying by exp(2 pi i m . x)
    shifts a spectrum by m, so row r has spectrum
    c[r] a^(kappa - m[r]) + conj(c[r]) a^(kappa + m[r])."""
    flat = spectrum.reshape(len(spectrum), -1)
    c = coefs.reshape(-1, 1, 1, 1, 1)
    return c * flat[:, _shifted_bins(modes, grid)] + c.conj() * flat[:, _shifted_bins(-modes, grid)]


def _self_dual_symbol(grid: GridSpec) -> np.ndarray:
    """The half-spectrum multiplier S (3, 3, n, n, n, n/2 + 1) of d delta
    between self-dual coordinates: S[l, k](kappa) = OMEGA_l . D(kappa)
    OMEGA_k for the 6x6 symbol D of d delta, read off as the spectra of
    :func:`.torusfield.d_codiff_values` applied to the impulses OMEGA_k at
    node 0 (whose spectrum is 1 at every bin)."""
    impulses = np.zeros((3,) + grid.shape + (6,))
    impulses[:, 0, 0, 0, 0] = pl.OMEGA_SD
    response = d_codiff_values(impulses, grid) @ pl.OMEGA_SD.T  # (k, grid, l)
    return np.fft.rfftn(np.moveaxis(response, -1, 0), axes=_SPEC_AXES)


def _elliptic_matrix(triple: HermitianTriple, grid: GridSpec) -> np.ndarray:
    """The unsymmetrized matrix of psi -> P^-(d delta psi) in the basis
    B[m] (x) frame_i of :func:`elliptic_kernel_dim`: entry
    (j R + r, i R + m) is the node mean of B[r] <P^-(d delta psi), frame_j> / 2
    for psi = B[m] frame_i with frame_i = v_i @ OMEGA_SD, computed as
    B[r] (s . v_j) / 2 for the self-dual coordinates s = S (B[m] v_i) of
    d delta psi."""
    modes, coefs = _basis_modes(grid.n // 2 - 1)
    B = _real_fourier_basis(grid, grid.n // 2 - 1)
    R, N = B.shape
    frames = np.moveaxis(np.stack(anti_invariant_frame(triple)), -1, 1)  # (2, 3, grid)
    spectra = np.fft.fftn(frames, axes=_SPEC_AXES)
    halves = frames.reshape(2, 3, N) / 2.0
    S = _self_dual_symbol(grid)
    M = np.empty((2, R, 2, R))
    for i in range(2):
        for lo in range(0, R, _ORACLE_BLOCK):
            rows = slice(lo, lo + _ORACLE_BLOCK)
            c_hat = _section_spectra(spectra[i], modes[rows], coefs[rows], grid)
            s_hat = np.stack([S[l, 0] * c_hat[0] + S[l, 1] * c_hat[1] + S[l, 2] * c_hat[2]
                              for l in range(3)])
            s = np.fft.irfftn(s_hat, s=grid.shape, axes=_SPEC_AXES).reshape(3, -1, N)
            q = np.einsum("kbx,jkx->jbx", s, halves)  # (2, block, N)
            proj = (q.reshape(-1, N) @ B.T).reshape(2, -1, R) / N
            M[:, :, i, rows] = proj.transpose(0, 2, 1)
    return M.reshape(2 * R, 2 * R)


def elliptic_kernel_dim(triple: HermitianTriple, oracle_grid: GridSpec) -> EllipticReport:
    """Kernel dimension of the discretized operator psi -> P^-(d delta psi).

    Sections of the anti-invariant plane are written in the nodewise pivoted
    frame of :func:`anti_invariant_frame` with coefficients restricted to
    the trigonometric modes below the Nyquist band (Nyquist modes are
    invisible to the antisymmetric spectral derivative and would fake kernel
    vectors).  The dense symmetric matrix has dimension
    ``2 * (n - 1)^4``, which must stay at or below ORACLE_MAX_DIM (n = 6
    gives 1250, n = 8 gives 4802).

    The assembly is exact, not approximate, in three steps.  The column of
    psi = B[m] v_i @ OMEGA_SD pairs d delta psi with v_j @ OMEGA_SD / 2;
    the frames are anti-invariant and P^- is an orthogonal projection, so
    P^- drops out and only the self-dual coordinates s of d delta psi
    count.  psi has self-dual coordinates c = B[m] v_i, and d delta is
    translation invariant, so s = S c with a 3x3 multiplier S per
    half-spectrum bin (:func:`_self_dual_symbol`, built once per call from
    the impulse responses of :func:`.torusfield.d_codiff_values`).  The
    spectrum of c is a gather from the full spectrum of v_i, one ``fftn``
    per frame per call: on the cyclic DFT of the grid, B[m] shifts it by
    +-m (:func:`_section_spectra`).  A block of ``_ORACLE_BLOCK`` columns
    then costs one product with S, one 3-component inverse transform per
    column (one ``irfftn`` for the block), the pairing with v_j / 2 and
    one product with the basis B.

    Memory goes to the dense matrix (8 (2R)^2 bytes: 12.5 MB at n = 6,
    184 MB at n = 8, growing as its square) and the basis (8 R n^4 bytes:
    6.5 MB at n = 6, 79 MB at n = 8).  A block's gathered spectra and
    nodal coordinates add a working set linear in the block size and
    independent of R: about 9 MB at n = 6 and 27 MB at n = 8 for blocks
    of 32, traced.

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
    sym_defect = float(np.max(np.abs(M - M.T)))
    if sym_defect > 1e-8 * max(1.0, float(np.max(np.abs(M)))):
        raise pl.ConsistencyError(
            f"discretized operator is not symmetric (defect {sym_defect:.3e}); "
            "the operator must be self-adjoint up to discretization error"
        )
    M = (M + M.T) / 2.0
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
