"""References for the elliptic oracle.

The dense reference: the matrix of psi -> P^-(d delta psi) on the oracle's
trial space, assembled in full, and its spectrum.
``cohomlab.elliptic_kernel_dim`` certifies its count of small eigenvalues
without assembling it; the tests check the assembly against a
column-by-column one and the certified bounds against its spectrum.

The transform reference: C's symbol in closed form (:func:`kernel_symbol`),
on which the Weyl lower bound rests, and the Ritz values taken with it
through complex spectra (:func:`fft_ritz_values`), which the oracle's
Dirichlet-form Ritz values must match."""

import numpy as np

from ajclab import cohomlab, hermitian as hm, pointlin as pl, torusfield as tf
from ajclab.torusfield import GridSpec


def kernel_symbol(grid: GridSpec) -> np.ndarray:
    """The symbol of C on the full spectrum (grid shape): |m|^2 / 2 for the
    multipliers m = 2 pi i k of one axis in ``numpy.fft`` frequency order,
    Nyquist zeroed, the same on all four axes.  It is 0 on the 16 corner
    modes and at least ``cohomlab.LAMBDA_GAP`` off them."""
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    axis = np.abs(np.where(np.abs(k) == grid.n // 2, 0.0, 2j * np.pi * k)) ** 2 / 2.0
    return np.add.outer(np.add.outer(axis, axis), np.add.outer(axis, axis))


def fft_ritz_values(frames: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """``cohomlab._ritz_values`` as a transform pair: the same trial vectors,
    Nyquist projection, Gram and cut, with K = (1/N) sum_k symbol(k)
    conj(F_l(k)) . F_m(k) over the spectra F_l of the sections
    sum_i P(v_i . e_l) v_i, one self-dual component at a time.  By Parseval
    this is the Dirichlet form the oracle takes through D."""
    coeffs = frames
    for ax in range(1, 5):
        sign = (-1.0) ** np.arange(frames.shape[ax]).reshape([-1 if a == ax else 1 for a in range(6)])
        coeffs = coeffs - sign * np.mean(coeffs * sign, axis=ax, keepdims=True)
    gram = np.einsum("ixl,ixm->lm", *[coeffs.reshape(2, -1, 3)] * 2)
    K = np.zeros((3, 3))
    for part in np.einsum("i...l,i...k->k...l", coeffs, frames):
        spectra = np.fft.fftn(part, axes=tf.GRID_AXES).reshape(-1, 3)
        K += (spectra.conj().T @ (spectra * symbol.reshape(-1, 1))).real / symbol.size
    s, U = np.linalg.eigh(gram)
    kept = s > cohomlab.ORACLE_TAU * s[-1]
    T = U[:, kept] / np.sqrt(s[kept])
    return np.linalg.eigvalsh(T.T @ K @ T)


def impulse_kernel(grid: GridSpec) -> np.ndarray:
    """Half the nodal kernel c of d delta between self-dual coordinates
    (grid shape), read off the spectral calculus: the omega_1 coordinate of
    ``torusfield.d_oneform`` of ``torusfield.codiff_twoform`` applied to the
    impulse omega_1 at node 0.
    Its symbol is the one :func:`kernel_symbol` states in closed form, so
    the dense reference takes d delta from torusfield, not from the formula
    under test."""
    impulse = np.zeros((6,) + grid.shape)
    impulse[:, 0, 0, 0, 0] = pl.OMEGA1
    d_delta = tf.d_oneform(tf.codiff_twoform(tf.TwoFormField(grid, impulse)))
    return (d_delta.values @ pl.OMEGA_SD.T / 2.0)[..., 0]


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
    kernel of :func:`impulse_kernel`.  K_ji is built one slice x_0 of the
    first grid axis at a time and contracted with e (x) e twice on the
    right and with e (x) e (x) e on the left; the slices' results U[x_0]
    are then contracted with e over x_0, one output row of e at a time."""
    n, m = grid.n, grid.n - 1
    R = m**4
    e = line_basis(n)
    ee = np.kron(e, e)
    eee = np.kron(ee, e)
    c = impulse_kernel(grid).reshape(n, n**3)
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
