"""Spectral calculus for smooth periodic fields on the unit 4-torus.

The domain is [0, 1)^4 with the flat metric (total volume 1), sampled on a
uniform grid of ``n`` nodes per axis at coordinates i/n.  Nodal values are
the primary representation.  Every differential operator is a Fourier
multiplier applied between one real FFT pair per field: ``numpy.fft.rfftn``
over the four grid axes, a multiply, ``numpy.fft.irfftn``.  For the wave
vector 2 pi k the multipliers are

    d f      ->  2 pi i k f                       (scalars)
    d theta  ->  2 pi i k ^ theta                 (1- and 2-forms)
    delta    ->  -star (2 pi i k ^) star          (2-forms)

with both stars the pointwise tables of :mod:`.pointlin`, so that delta is
the exact adjoint of d under the L2 pairing.  The spectrum of a real field
is stored as the real half spectrum: full axes of n frequencies on the
first three grid axes and n/2 + 1 frequencies on the last.  Each axis has
one Nyquist bin, index n/2 of a full axis and the last entry of the half
axis; its multiplier is zeroed on every axis, so differentiation is a real
antisymmetric operator and is exact for fields bandlimited below n/2.

The low-pass filter (:func:`low_pass`, :func:`spectral_truncate`) is not a
transform pair: it is the orthogonal projection onto the trigonometric
polynomials of degree <= m on each axis, applied as separable products with
an orthonormal (n, 2m + 1) basis of nodal cosines and sines.  For m < n/2
that is the span the Fourier modes with every |k_a| <= m would keep.

Inside the transforms the components of a field sit on a leading axis,
ahead of the four grid axes, so any further leading batch axes broadcast
through the same multipliers (:func:`d_codiff_values` applies d delta to a
whole stack of 2-forms at once).

Component layouts of nodal values (components on the last axis, in the
pointlin bases): scalar (n,n,n,n); 1-form (n,n,n,n,4); 2-form (n,n,n,n,6);
3-form (n,n,n,n,4) in the order (e123, e124, e134, e234); self-dual
coordinates (n,n,n,n,3) in the frame pl.OMEGA_SD; endomorphism
(n,n,n,n,4,4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pointlin as pl

GRID_AXES = (0, 1, 2, 3)
#: the four grid axes of a spectrum, behind its component and batch axes
_SPEC_AXES = (-4, -3, -2, -1)

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
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 4, got {self.n}")

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

    def wavenumbers(self) -> list[np.ndarray]:
        """Integer frequencies of the real half spectrum, one broadcastable
        array per grid axis; the last axis is the half axis 0..n/2."""
        full = np.fft.fftfreq(self.n, d=1.0 / self.n)
        half = np.fft.rfftfreq(self.n, d=1.0 / self.n)
        return [
            k.reshape([-1 if a == ax else 1 for a in GRID_AXES])
            for ax, k in zip(GRID_AXES, (full, full, full, half))
        ]

    def deriv_multipliers(self) -> list[np.ndarray]:
        """Derivative factors 2*pi*i*k per axis with every Nyquist bin zeroed."""
        return [np.where(np.abs(k) == self.n // 2, 0.0, 2j * np.pi * k) for k in self.wavenumbers()]


def _worst_node(grid: GridSpec, nodewise: np.ndarray, rows) -> tuple[int, ...]:
    """The grid index of the largest entry of ``nodewise``, whose entries sit
    at the flat node indices ``rows``, or at every node when ``rows`` is None."""
    i = int(np.argmax(nodewise))
    return tuple(int(k) for k in np.unravel_index(i if rows is None else int(rows[i]), grid.shape))


def frozen(values, order: str) -> np.ndarray:
    """``values`` as a read-only float array that no other name can write.
    A read-only float array that owns its memory (the values of a field or
    of a structure) is shared as it is; anything else is copied in the
    memory ``order`` of :func:`numpy.array`."""
    if not (isinstance(values, np.ndarray) and values.dtype == float and values.base is None
            and not values.flags.writeable):
        values = np.array(values, dtype=float, order=order)
        values.setflags(write=False)
    return values


def sealed(values: np.ndarray) -> np.ndarray:
    """``values``, a fresh array that owns its memory and that the caller
    keeps no other name for, made read-only, so that :func:`frozen` shares
    it instead of copying it."""
    values.setflags(write=False)
    return values


class _FieldBase:
    """Common plumbing for nodal fields: validation and immutability."""

    NCOMP: tuple[int, ...] = ()

    def __init__(self, grid: GridSpec, values):
        values = np.asarray(values, dtype=float)
        expected = grid.shape + self.NCOMP
        if values.shape != expected:
            raise ValueError(
                f"{type(self).__name__} expects shape {expected}, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{type(self).__name__} has non-finite values")
        self.grid = grid
        self.values = frozen(values, "C")

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


class ScalarField(_FieldBase):
    NCOMP = ()


class OneFormField(_FieldBase):
    NCOMP = (4,)


class TwoFormField(_FieldBase):
    NCOMP = (6,)

    @staticmethod
    def constant(grid: GridSpec, six: np.ndarray) -> "TwoFormField":
        six = np.asarray(six, float)
        return TwoFormField(grid, np.broadcast_to(six, grid.shape + (6,)))


class ThreeFormField(_FieldBase):
    NCOMP = (4,)


class SelfDualCoordField(_FieldBase):
    """Coordinates y of a self-dual form y @ pl.OMEGA_SD; a structure field
    is one with |y| = 1 at every node, which :class:`.hermitian.HermitianTriple`
    checks."""

    NCOMP = (3,)


def _spectrum(values: np.ndarray, ncomp: int) -> np.ndarray:
    """Half spectrum of nodal values whose last ``ncomp`` axes are
    components; the components move ahead of the four grid axes."""
    comps = list(range(-ncomp, 0))
    return np.fft.rfftn(np.moveaxis(values, comps, [c - 4 for c in comps]), axes=_SPEC_AXES)


def _nodal(spec: np.ndarray, grid: GridSpec, ncomp: int) -> np.ndarray:
    """Inverse of :func:`_spectrum`: nodal values, components last."""
    comps = list(range(-ncomp, 0))
    out = np.fft.irfftn(spec, s=grid.shape, axes=_SPEC_AXES)
    return np.moveaxis(out, [c - 4 for c in comps], comps)


def _comp(spec: np.ndarray, c: int) -> np.ndarray:
    return spec[..., c, :, :, :, :]


def _stack(parts: list[np.ndarray]) -> np.ndarray:
    return np.stack(parts, axis=-5)


def _star(spec: np.ndarray, src, sign) -> np.ndarray:
    """A star table (component ``c`` of the output is ``sign[c]`` times
    component ``src[c]`` of the input) on the component axis."""
    return spec[..., list(src), :, :, :, :] * np.reshape(sign, (-1, 1, 1, 1, 1))


def _d0_hat(f: np.ndarray, ik: list[np.ndarray]) -> np.ndarray:
    return _stack([m * f for m in ik])


def _d1_hat(theta: np.ndarray, ik: list[np.ndarray]) -> np.ndarray:
    """(d theta)_ij = di theta_j - dj theta_i."""
    return _stack([ik[i] * _comp(theta, j) - ik[j] * _comp(theta, i) for (i, j) in pl.PAIRS])


def _d2_hat(phi: np.ndarray, ik: list[np.ndarray]) -> np.ndarray:
    """(d phi)_ijk = di phi_jk - dj phi_ik + dk phi_ij."""
    p = _PAIR_INDEX
    return _stack([
        ik[i] * _comp(phi, p[(j, k)]) - ik[j] * _comp(phi, p[(i, k)]) + ik[k] * _comp(phi, p[(i, j)])
        for (i, j, k) in pl.TRIPLES
    ])


def _codiff_hat(phi: np.ndarray, ik: list[np.ndarray]) -> np.ndarray:
    """delta = -star d star on 2-forms."""
    starred = _star(phi, pl._WEDGE_PARTNER, pl._WEDGE_SIGN)
    return -_star(_d2_hat(starred, ik), _STAR3_SRC, _STAR3_SIGN)


def _apply(field, op, out_cls):
    grid = field.grid
    spec = op(_spectrum(field.values, len(field.NCOMP)), grid.deriv_multipliers())
    return out_cls(grid, _nodal(spec, grid, len(out_cls.NCOMP)))


def d_scalar(f: ScalarField) -> OneFormField:
    """Exterior differential of a scalar field (spectral gradient)."""
    return _apply(f, _d0_hat, OneFormField)


def d_oneform(theta: OneFormField) -> TwoFormField:
    """Exterior differential of a 1-form: (d theta)_ij = di theta_j - dj theta_i."""
    return _apply(theta, _d1_hat, TwoFormField)


def d_twoform(phi: TwoFormField) -> ThreeFormField:
    """Exterior differential of a 2-form in the fixed 3-form component order."""
    return _apply(phi, _d2_hat, ThreeFormField)


def codiff_twoform(phi: TwoFormField) -> OneFormField:
    """Codifferential on 2-forms: -star d star, with both stars pointwise
    tables on the flat unit-volume torus.  The sign is the one that makes
    the operator the exact adjoint of d under the L2 pairing."""
    return _apply(phi, _codiff_hat, OneFormField)


def d_codiff_values(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """d(delta phi) for 2-form nodal values of shape ``(..., n, n, n, n, 6)``;
    any leading batch axes share one transform pair."""
    ik = grid.deriv_multipliers()
    return _nodal(_d1_hat(_codiff_hat(_spectrum(values, 1), ik), ik), grid, 1)


def integrate(f: ScalarField) -> float:
    """Integral over the unit-volume torus: the node mean (exact for
    integrands bandlimited below n)."""
    return float(np.mean(f.values))


def l2_inner(a, b) -> float:
    """L2 pairing of two same-kind fields with the pointwise metric inner
    product (all fixed component bases are orthonormal)."""
    if type(a) is not type(b):
        raise TypeError("l2_inner requires two fields of the same kind")
    if a.grid != b.grid:
        raise ValueError("grid mismatch")
    prod = a.values * b.values
    if a.NCOMP:
        prod = prod.reshape(a.grid.shape + (-1,)).sum(axis=-1)
    return float(np.mean(prod))


def wedge_integral(phi: TwoFormField, psi: TwoFormField) -> float:
    """Integral of phi ^ psi (the cup-product pairing); symmetric."""
    if phi.grid != psi.grid:
        raise ValueError("grid mismatch")
    return float(np.mean(pl.wedge_to_volume(phi.values, psi.values)))


def torus_offsets(grid: GridSpec, center) -> list[np.ndarray]:
    """Signed wrapped displacements x - center per axis, in [-1/2, 1/2)."""
    coords = np.asarray(center, float)
    if coords.shape != (4,) or not np.all(np.isfinite(coords)):
        raise ValueError(f"center must be 4 finite numbers, got {center!r}")
    return [(x - c + 0.5) % 1.0 - 0.5 for x, c in zip(grid.coords(), coords)]


def bump_cutoff(grid: GridSpec, center, radius: float, height: float) -> ScalarField:
    """Smooth compactly supported cut-off on the torus.

    Value height * exp(1 - 1/(1 - s^2)) for s = dist(x, center)/radius < 1
    and 0 outside; the support is exactly the closed radius-ball around
    ``center`` in the wrap-around distance.
    """
    if not 0.0 < radius < 0.5:
        raise ValueError(f"radius must lie in (0, 1/2), got {radius}")
    if not 0.0 < height <= 1.0:
        raise ValueError(f"height must lie in (0, 1], got {height}")
    offs = torus_offsets(grid, center)
    s2 = np.zeros(grid.shape)
    for w in offs:
        s2 = s2 + (w / radius) ** 2
    vals = np.zeros(grid.shape)
    core = s2 < 1.0
    vals[core] = height * np.exp(1.0 - 1.0 / (1.0 - s2[core]))
    return ScalarField(grid, vals)


def _low_pass_basis(n: int, max_mode: int) -> np.ndarray:
    """Orthonormal (n, 2 max_mode + 1) basis of the trigonometric
    polynomials of degree <= ``max_mode`` at the nodes i/n of one axis: the
    constant, sqrt(2) cos(2 pi k x) and sqrt(2) sin(2 pi k x) for k = 1 ..
    max_mode, each divided by sqrt(n).  The phases k i are reduced mod n."""
    phase = 2.0 * np.pi * (np.outer(np.arange(n), np.arange(1, max_mode + 1)) % n) / n
    cols = [np.ones((n, 1)), np.sqrt(2.0) * np.cos(phase), np.sqrt(2.0) * np.sin(phase)]
    return np.hstack(cols) / np.sqrt(n)


def _along(x: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    """``mat`` applied to axis ``axis`` of ``x``, as one matmul over the
    array viewed as (before, size, after)."""
    shape = x.shape
    out = mat @ x.reshape(math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1 :]))
    return out.reshape(shape[:axis] + (mat.shape[0],) + shape[axis + 1 :])


def low_pass(values: np.ndarray, grid: GridSpec, max_mode: int, ncomp: int) -> np.ndarray:
    """Overwrite nodal ``values`` with their orthogonal projection onto the
    trigonometric polynomials of degree <= ``max_mode`` on each axis, and
    return them.

    ``values`` is a writable C-contiguous array of shape ``(..., n, n, n,
    n)`` followed by ``ncomp`` component axes; leading batch axes are
    projected together.  The projection is separable: 4 products take the
    grid axes, first to last, to the coefficients of
    :func:`_low_pass_basis`, and 4 more take them back, last to first, so
    the outermost products are the large ones; the last writes into
    ``values``.  Since ``max_mode`` < n/2 never reaches the Nyquist bin,
    this is the same projection as zeroing every Fourier mode with an axis
    frequency above ``max_mode``.  A ``max_mode`` that is not an integer in
    [0, n/2) raises ValueError naming it."""
    if not (isinstance(max_mode, (int, np.integer)) and 0 <= max_mode < grid.n // 2):
        raise ValueError(f"max_mode must be an integer in [0, n/2), got {max_mode!r}")
    if not (values.flags.c_contiguous and values.flags.writeable):
        raise ValueError("low_pass projects in place: values must be writable and C-contiguous")
    basis = _low_pass_basis(grid.n, max_mode)
    axes = range(values.ndim - ncomp - 4, values.ndim - ncomp)
    coeffs = values
    for ax in axes:
        coeffs = _along(coeffs, basis.T, ax)
    for ax in reversed(axes[1:]):
        coeffs = _along(coeffs, basis, ax)
    lead = math.prod(values.shape[: axes[0]])
    np.matmul(basis, coeffs.reshape(lead, basis.shape[1], -1), out=values.reshape(lead, grid.n, -1))
    return values


def spectral_truncate(field, max_mode: int):
    """The field with every Fourier mode of an axis frequency above
    ``max_mode`` removed, by :func:`low_pass` on a copy of its values; the
    low-pass filter behind random structures and the tests' random fields."""
    values = low_pass(np.array(field.values, order="C"), field.grid, max_mode, len(field.NCOMP))
    return type(field)(field.grid, sealed(values))
