"""Spectral calculus for smooth periodic fields on the unit 4-torus.

The domain is [0, 1)^4 with the flat metric (total volume 1), sampled on a
uniform grid of ``n`` nodes per axis at coordinates i/n.  Nodal values are
the primary representation, and the differential operators act on them
directly.  A partial derivative is the Fourier multiplier m = 2 pi i k with
the Nyquist bin (k = n/2) zeroed, and on the nodes of one axis that
multiplier is a real circulant n x n matrix D = F^-1 diag(m) F
(:func:`_diff_matrix`; Trefethen, *Spectral Methods in MATLAB*, ch. 3).  So
d_a is one matrix product with D along grid axis a, not a transform pair.
With the Nyquist bin zeroed, D is exactly antisymmetric, so differentiation
is a real antisymmetric operator, exact for fields bandlimited below n/2.
For the wave vector 2 pi k the operators are

    d f      ->  2 pi i k f                       (scalars)
    d theta  ->  2 pi i k ^ theta                 (1- and 2-forms)
    delta    ->  -star (2 pi i k ^) star          (2-forms)

each a table of (output component, axis, input component, sign) entries.
Both stars, the pointwise tables of :mod:`.pointlin`, are folded into
delta's table, so that delta is the exact adjoint of d under the L2
pairing.  One function applies a table (:func:`_apply`), from the planes
of its input field to the planes of its output.

Every separable operator here is one routine, :func:`_along`: a small
matrix applied along one axis of an array, as one matrix product.  The
derivatives take D along a grid axis.  The low-pass filter
(:func:`low_pass`) is not a transform pair either: it is the orthogonal
projection onto the trigonometric polynomials of degree <= m on each axis,
4 products with the transpose of an orthonormal (n, 2m + 1) basis of nodal
cosines and sines (:func:`_low_pass_basis`) to coefficients, and 4 with the
basis back (:func:`from_low_pass`, which also turns drawn coefficients into
random fields).  For m < n/2 that is the span the Fourier modes with every
|k_a| <= m would keep.  No other module knows the basis layout.

Component layouts.  A field stores its nodal values components-major, as
``planes`` of shape NCOMP + (n,n,n,n): one C-contiguous (n,n,n,n) plane per
component, in the pointlin bases.  NCOMP is () for a scalar, (4,) for a
1-form, (6,) for a 2-form, (4,) for a 3-form in the order (e123, e124, e134,
e234), (3,) for self-dual coordinates in the frame pl.OMEGA_SD and (4, 4)
for an endomorphism, row-major.  Its ``values`` are the components-last
view of the same memory, of shape (n,n,n,n) + NCOMP, so ``values[..., c]``
is the plane ``planes[c]``: the operators read and write whole planes, with
no strided copy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import pointlin as pl

GRID_AXES = (0, 1, 2, 3)

# Hodge star from 3-forms to 1-forms in the fixed component orders:
# e123 -> dx4, e124 -> -dx3, e134 -> dx2, e234 -> -dx1.
_STAR3_SRC = (3, 2, 1, 0)
_STAR3_SIGN = (-1.0, 1.0, -1.0, 1.0)
# position of each index pair in the 2-form component order
_PAIR_INDEX = {p: c for c, p in enumerate(pl.PAIRS)}


@dataclass(frozen=True)
class GridSpec:
    """Uniform discretization of the unit 4-torus: n nodes per axis, n even."""

    n: int

    def __post_init__(self):
        # before the size test, which 8.0 passes and "8" fails with a TypeError
        if not isinstance(self.n, (int, np.integer)):
            raise ValueError(f"grid size must be an integer, got {self.n!r}")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 4, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (self.n,) * 4

    @property
    def node_count(self) -> int:
        return self.n**4

    def coords(self) -> list[np.ndarray]:
        """Broadcastable coordinate arrays, one per axis."""
        x = np.arange(self.n) / self.n
        return [x.reshape([-1 if a == ax else 1 for a in GRID_AXES]) for ax in GRID_AXES]


def _worst_node(grid: GridSpec, nodewise: np.ndarray, rows) -> tuple[int, ...]:
    """The grid index of the largest entry of ``nodewise``, whose entries sit
    at the flat node indices ``rows``, or at every node when ``rows`` is None."""
    i = int(np.argmax(nodewise))
    return tuple(int(k) for k in np.unravel_index(i if rows is None else int(rows[i]), grid.shape))


def frozen(values, order: str) -> np.ndarray:
    """``values`` as a read-only float array that no other name can write,
    in the memory ``order`` of :func:`numpy.array`: "C" for a field's
    planes, "K" for a structure's y, whose layout is kept.  A read-only
    float array that owns its memory, and for "C" is C-contiguous, is
    shared as it is: the planes of a field, the y of a structure, or an
    array handed over :func:`sealed`.  Anything else, a view included, is
    copied."""
    if not (isinstance(values, np.ndarray) and values.dtype == float and values.base is None
            and not values.flags.writeable and (order == "K" or values.flags.c_contiguous)):
        values = np.array(values, dtype=float, order=order)
        values.setflags(write=False)
    return values


def sealed(values: np.ndarray) -> np.ndarray:
    """``values``, a fresh array that owns its memory and that the caller
    keeps no other name for, made read-only, so that :func:`frozen` shares
    it instead of copying it: the planes :func:`_apply` returns, a drawn or
    read field's planes, a structure's new y."""
    values.setflags(write=False)
    return values


class _FieldBase:
    """A nodal field, built from its ``planes``: the nodal values
    components-major, of shape NCOMP + grid.shape (module docstring).  They
    must be finite.  ``planes`` is kept as :func:`frozen` makes it, a
    read-only C-contiguous array: an array handed over :func:`sealed` is
    shared, anything else is copied once.  ``values`` is the components-last
    view of ``planes``, of shape grid.shape + NCOMP, read-only as well."""

    NCOMP: tuple[int, ...] = ()

    def __init__(self, grid: GridSpec, planes):
        planes = np.asarray(planes, dtype=float)
        expected = self.NCOMP + grid.shape
        if planes.shape != expected:
            raise ValueError(
                f"{type(self).__name__} expects planes of shape {expected}, got {planes.shape}"
            )
        if not np.all(np.isfinite(planes)):
            raise ValueError(f"{type(self).__name__} has non-finite values")
        self.grid = grid
        self.planes = frozen(planes, "C")
        k = len(self.NCOMP)
        self.values = np.moveaxis(self.planes, range(k), range(-k, 0))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.planes)))


class ScalarField(_FieldBase):
    NCOMP = ()


class OneFormField(_FieldBase):
    NCOMP = (4,)


class TwoFormField(_FieldBase):
    NCOMP = (6,)


class ThreeFormField(_FieldBase):
    NCOMP = (4,)


class SelfDualCoordField(_FieldBase):
    """Coordinates y of a self-dual form y @ pl.OMEGA_SD; a structure field
    is one with |y| = 1 at every node, which :class:`.hermitian.HermitianTriple`
    checks."""

    NCOMP = (3,)


#: d on each form degree as (output component, axis, input component, sign)
#: entries: output component o gains sign times the partial along grid axis
#: a of input component c.  Scalars carry one component.
_D0 = tuple((a, a, 0, 1.0) for a in GRID_AXES)
_D1 = tuple(entry for o, (i, j) in enumerate(pl.PAIRS)
            for entry in ((o, i, j, 1.0), (o, j, i, -1.0)))
_D2 = tuple(entry for o, (i, j, k) in enumerate(pl.TRIPLES)
            for entry in ((o, i, _PAIR_INDEX[(j, k)], 1.0), (o, j, _PAIR_INDEX[(i, k)], -1.0),
                          (o, k, _PAIR_INDEX[(i, j)], 1.0)))
#: delta = -star d star on 2-forms, both stars folded in: 1-form component q
#: is minus the 3-form component _STAR3_SRC[q] of d of the starred 2-form,
#: whose component c is _WEDGE_SIGN[c] times input component _WEDGE_PARTNER[c]
_CODIFF = tuple(
    (q, a, int(pl._WEDGE_PARTNER[c]), -_STAR3_SIGN[q] * s * float(pl._WEDGE_SIGN[c]))
    for q, src in enumerate(_STAR3_SRC) for (o, a, c, s) in _D2 if o == src
)


@functools.cache
def _diff_matrix(grid: GridSpec) -> np.ndarray:
    """The derivative on the nodes of one grid axis: the real circulant n x n
    matrix D = F^-1 diag(m) F of the multipliers m = 2 pi i k, for the DFT's
    integer frequencies k = 0, 1, ..., n/2 - 1, -n/2, ..., -1, with the
    Nyquist bin (k = -n/2) zeroed.

    Its first column is the inverse DFT of m, summed at phases reduced mod
    n, and made exactly odd, col[-k] = -col[k], so that D is exactly
    antisymmetric; col[0] and col[n/2] are exactly 0.  Built on first use
    for each grid, read-only."""
    n = grid.n
    i = np.arange(n)
    k = (i + n // 2) % n - n // 2
    m = np.where(k == -(n // 2), 0.0, 2j * np.pi * k)
    col = (np.exp(2j * np.pi * (np.outer(i, i) % n) / n) @ m).real / n
    col = 0.5 * (col - np.roll(col[::-1], 1))
    mat = col[(i[:, None] - i) % n]
    mat.setflags(write=False)
    return mat


def _along(x: np.ndarray, mat: np.ndarray, axis: int, out: np.ndarray | None) -> np.ndarray:
    """``mat`` applied along axis ``axis`` of the C-contiguous ``x``, into
    ``out`` (C-contiguous, of the result's shape; one that cannot be viewed
    flat raises ValueError) or, when it is None, a fresh array, which is
    returned.  The last axis takes one product x @ mat.T of x viewed as
    (rows, size), 7x faster for D at n=16 (2-CPU x86-64) than the (before,
    size, after) form of the other axes."""
    shape = x.shape
    if out is None:
        out = np.empty(shape[:axis] + (mat.shape[0],) + shape[axis + 1 :])
    if axis == x.ndim - 1:
        np.matmul(x.reshape(-1, shape[axis]), mat.T,
                  out=out.reshape(-1, mat.shape[0], copy=False))
    else:
        before, after = math.prod(shape[:axis]), math.prod(shape[axis + 1 :])
        np.matmul(mat, x.reshape(before, shape[axis], after),
                  out=out.reshape(before, mat.shape[0], after, copy=False))
    return out


def _apply(planes: np.ndarray, grid: GridSpec, table) -> np.ndarray:
    """The operator of ``table`` on the ``planes`` of one field, of shape
    (c, n, n, n, n): the planes of the result, a fresh array that owns its
    memory, of shape (o, n, n, n, n).

    It reads ``planes`` once, into one copy with every component's value at
    node (0, 0, 0, 0) subtracted.  D maps constants to 0, so the
    subtraction changes nothing in exact arithmetic; it makes a constant
    field give exactly 0.  Each output plane is then the sum of its entries,
    in table order: the partial of one input plane along one axis, times
    the entry's sign (exact, as it scales D by +-1).  The first is written
    straight into the output plane; each later one is made in one scratch
    plane, allocated only when some output has two or more entries, and
    added in place.  No plane is copied or written strided: a scalar's
    gradient on N nodes holds its input, the copy and the result, 6 N
    doubles, 1.25 times its output besides the input."""
    mat = _diff_matrix(grid)
    x = np.subtract(planes, planes[:, :1, :1, :1, :1], out=np.empty(planes.shape))
    out = np.empty((1 + max(e[0] for e in table),) + grid.shape)
    # every output has an entry, so a longer table gives some output a second
    part = np.empty(grid.shape) if len(table) > len(out) else None
    for o in range(len(out)):
        (_, axis, c, sign), *rest = [e for e in table if e[0] == o]
        _along(x[c], sign * mat, axis, out[o])
        for _, axis, c, sign in rest:
            out[o] += _along(x[c], sign * mat, axis, part)
    return out


def d_scalar(f: ScalarField) -> OneFormField:
    """Exterior differential of a scalar field (spectral gradient)."""
    return OneFormField(f.grid, sealed(_apply(f.planes[None], f.grid, _D0)))


def d_oneform(theta: OneFormField) -> TwoFormField:
    """Exterior differential of a 1-form: (d theta)_ij = di theta_j - dj theta_i."""
    return TwoFormField(theta.grid, sealed(_apply(theta.planes, theta.grid, _D1)))


def d_twoform(phi: TwoFormField) -> ThreeFormField:
    """Exterior differential of a 2-form in the fixed 3-form component order:
    (d phi)_ijk = di phi_jk - dj phi_ik + dk phi_ij."""
    return ThreeFormField(phi.grid, sealed(_apply(phi.planes, phi.grid, _D2)))


def codiff_twoform(phi: TwoFormField) -> OneFormField:
    """Codifferential on 2-forms: -star d star, with both stars pointwise
    tables on the flat unit-volume torus folded into one entry table.  The
    sign is the one that makes the operator the exact adjoint of d under
    the L2 pairing."""
    return OneFormField(phi.grid, sealed(_apply(phi.planes, phi.grid, _CODIFF)))


def integrate(f: ScalarField) -> float:
    """Integral over the unit-volume torus: the node mean (exact for
    integrands bandlimited below n)."""
    return float(np.mean(f.planes))


def l2_inner(a, b) -> float:
    """L2 pairing of two same-kind fields with the pointwise metric inner
    product (all fixed component bases are orthonormal): the node mean of
    the planes' products summed over the components, plane by plane."""
    if type(a) is not type(b):
        raise TypeError("l2_inner requires two fields of the same kind")
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    prod = a.planes * b.planes
    if a.NCOMP:
        prod = prod.reshape((-1,) + a.grid.shape).sum(axis=0)
    return float(np.mean(prod))


def wedge_integral(phi: TwoFormField, psi: TwoFormField) -> float:
    """Integral of phi ^ psi (the cup-product pairing); symmetric.  Each
    component :func:`.pointlin.wedge_to_volume` reads is one plane."""
    if not type(phi) is type(psi) is TwoFormField:
        raise TypeError("wedge_integral requires two 2-form fields")
    if phi.grid != psi.grid:
        raise ValueError("grid mismatch")
    return float(np.mean(pl.wedge_to_volume(phi.values, psi.values)))


def torus_offsets(grid: GridSpec, center) -> list[np.ndarray]:
    """Signed wrapped displacements x - center per axis, in [-1/2, 1/2)."""
    coords = np.asarray(center, float)
    if coords.shape != (4,) or not np.all(np.isfinite(coords)):
        raise ValueError(f"center must be 4 finite numbers, got {center!r}")
    return [(x - c + 0.5) % 1.0 - 0.5 for x, c in zip(grid.coords(), coords)]


def bump_support(grid: GridSpec, center, radius: float, height: float):
    """The support of :func:`bump_cutoff`, as ascending flat node indices,
    and its values there.  Only the box of nodes with (w_a / radius)^2 < 1
    on every axis a is visited (w of :func:`torus_offsets`); there s^2 is
    0 + t_0 + t_1 + t_2 + t_3 with t_a = (w_a / radius)^2.  A node with
    s < 1 whose value underflows to 0.0 is not in the support."""
    if not 0.0 < radius < 0.5:
        raise ValueError(f"radius must lie in (0, 1/2), got {radius}")
    if not 0.0 < height <= 1.0:
        raise ValueError(f"height must lie in (0, 1], got {height}")
    sq = [(w.ravel() / radius) ** 2 for w in torus_offsets(grid, center)]
    box = np.ix_(*(np.flatnonzero(t < 1.0) for t in sq))
    s2 = sum(t[ix] for t, ix in zip(sq, box))
    core = s2 < 1.0
    values = height * np.exp(1.0 - 1.0 / (1.0 - s2[core]))
    kept = values != 0.0
    return np.ravel_multi_index(box, grid.shape)[core][kept], values[kept]


def bump_cutoff(grid: GridSpec, center, radius: float, height: float) -> ScalarField:
    """Smooth compactly supported cut-off on the torus: :func:`bump_support`
    scattered into zeros.

    Value height * exp(1 - 1/(1 - s^2)) for s = dist(x, center)/radius < 1
    and 0 outside; the support is exactly the closed radius-ball around
    ``center`` in the wrap-around distance.
    """
    rows, values = bump_support(grid, center, radius, height)
    vals = np.zeros(grid.shape)
    vals.reshape(-1)[rows] = values
    return ScalarField(grid, sealed(vals))


@functools.cache
def _low_pass_basis(n: int, max_mode: int) -> np.ndarray:
    """Orthonormal (n, 2 max_mode + 1) basis of the trigonometric
    polynomials of degree <= ``max_mode`` at the nodes i/n of one axis: the
    constant, sqrt(2) cos(2 pi k x) and sqrt(2) sin(2 pi k x) for k = 1 ..
    max_mode, each divided by sqrt(n), in that column order.  The phases
    k i are reduced mod n.  Read only by :func:`low_pass` and
    :func:`from_low_pass`; built on first use for each (n, max_mode),
    read-only."""
    phase = 2.0 * np.pi * (np.outer(np.arange(n), np.arange(1, max_mode + 1)) % n) / n
    cols = [np.ones((n, 1)), np.sqrt(2.0) * np.cos(phase), np.sqrt(2.0) * np.sin(phase)]
    return sealed(np.hstack(cols) / np.sqrt(n))


def low_pass(values: np.ndarray, grid: GridSpec, max_mode: int) -> np.ndarray:
    """Overwrite nodal ``values`` with their orthogonal projection onto the
    trigonometric polynomials of degree <= ``max_mode`` on each axis, and
    return them.

    ``values`` is a writable C-contiguous array of shape ``(..., n, n, n,
    n)``; leading axes are batch axes, projected together.  The projection
    is separable: 4 products take the grid axes, first to last, to the
    coefficients of :func:`_low_pass_basis`, and :func:`from_low_pass`
    takes them back into ``values``.  Since ``max_mode`` < n/2 never
    reaches the Nyquist bin, this is the same projection as zeroing every
    Fourier mode with an axis frequency above ``max_mode``.  A ``max_mode``
    that is not an integer in [0, n/2) raises ValueError naming it."""
    if not (isinstance(max_mode, (int, np.integer)) and 0 <= max_mode < grid.n // 2):
        raise ValueError(f"max_mode must be an integer in [0, n/2), got {max_mode!r}")
    if not (values.flags.c_contiguous and values.flags.writeable):
        raise ValueError("low_pass projects in place: values must be writable and C-contiguous")
    basis = _low_pass_basis(grid.n, max_mode)
    coeffs = values
    for axis in range(values.ndim - 4, values.ndim):
        coeffs = _along(coeffs, basis.T, axis, None)
    return from_low_pass(coeffs, grid, values.ndim - 4, values)


def from_low_pass(coeffs: np.ndarray, grid: GridSpec, first: int,
                  out: np.ndarray | None) -> np.ndarray:
    """Nodal values of the coefficients ``coeffs`` in the tensor basis of
    :func:`_low_pass_basis`: its four grid axes are those of ``coeffs``
    from axis ``first`` on, each of length 2 m + 1 for the degree m, and
    any other axes are kept.  One product per grid axis, last axis first,
    so that the largest product, on axis ``first``, comes last; it writes
    ``out`` as :func:`_along` does, and its array is returned."""
    basis = _low_pass_basis(grid.n, coeffs.shape[first] // 2)
    for axis in (3, 2, 1):
        coeffs = _along(coeffs, basis, first + axis, None)
    return _along(coeffs, basis, first, out)
