"""The dense reference of the elliptic oracle: the matrix of
psi -> P^-(d delta psi) on the oracle's trial space, assembled in full, and
its spectrum.  ``cohomlab.elliptic_kernel_dim`` certifies its count of small
eigenvalues without assembling it; the tests check the assembly against a
column-by-column one and the certified bounds against its spectrum."""

import numpy as np

from ajclab import cohomlab, hermitian as hm
from ajclab.torusfield import GridSpec


def line_basis(n: int) -> np.ndarray:
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


def elliptic_matrix(triple: hm.HermitianTriple, grid: GridSpec) -> np.ndarray:
    """The unsymmetrized matrix of psi -> P^-(d delta psi) in the basis
    E[:, r] frame_i, with E = e (x) e (x) e (x) e for e = :func:`line_basis`
    and frame_i = v_i @ OMEGA_SD for the frame of
    ``hermitian.anti_invariant_frame``: block (j, i) is E^T K_ji E for
    K_ji(x, x') = c(x - x') v_j(x) . v_i(x') / 2, with c / 2 the nodal
    kernel whose symbol ``cohomlab._scalar_kernel`` returns.  K_ji is built
    one slice x_0 of the first grid axis at a time and contracted with
    e (x) e twice on the right and with e (x) e (x) e on the left; the
    slices' results U[x_0] are then contracted with e over x_0, one output
    row of e at a time."""
    n, m = grid.n, grid.n - 1
    R = m**4
    e = line_basis(n)
    ee = np.kron(e, e)
    eee = np.kron(ee, e)
    c = np.fft.ifftn(cohomlab._scalar_kernel(grid)[0]).real.reshape(n, n**3)
    nodes = np.indices((n, n, n)).reshape(3, -1)
    inner = np.ravel_multi_index((nodes[:, :, None] - nodes[:, None]) % n, (n, n, n))
    # D[t, x, x''] = c((-t) mod n, x - x''), so that slice x_0 of c(x - x')
    # is the view D[n - x_0 : 2n - x_0] over the first axis of x'
    D = c[-np.arange(2 * n) % n][:, inner]
    frames = np.stack(hm.anti_invariant_frame(triple)[:2]).reshape(2, n, n**3, 3)
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


def symmetrize(M: np.ndarray, rows: int) -> float:
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


def spectrum(triple: hm.HermitianTriple) -> np.ndarray:
    """The absolute eigenvalues, ascending, of :func:`elliptic_matrix` on
    the structure's own grid, symmetrized in place by :func:`symmetrize` in
    blocks of 256 rows."""
    M = elliptic_matrix(triple, triple.grid)
    symmetrize(M, 256)
    return np.sort(np.abs(np.linalg.eigvalsh(M)))
