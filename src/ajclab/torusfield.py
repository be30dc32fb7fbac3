"""Spectral calculus for smooth periodic fields on the unit 4-torus.

The domain is [0, 1)^4 with the flat metric (total volume 1), sampled on a
uniform grid of ``n`` nodes per axis at coordinates i/n.  Nodal values are
the primary representation; differentiation goes through the discrete
Fourier transform and is exact for fields bandlimited below n/2.  The
Nyquist mode of each axis is dropped by the derivative multiplier so that
differentiation is a real antisymmetric operator.

Component layouts (components on the last axis, in the pointlin bases):
scalar (n,n,n,n); 1-form (n,n,n,n,4); 2-form (n,n,n,n,6); 3-form
(n,n,n,n,4) in the order (e123, e124, e134, e234); endomorphism
(n,n,n,n,4,4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pointlin as pl

GRID_AXES = (0, 1, 2, 3)

# Hodge star from 3-forms to 1-forms in the fixed component orders:
# e123 -> dx4, e124 -> -dx3, e134 -> dx2, e234 -> -dx1.
_STAR3_SRC = (3, 2, 1, 0)
_STAR3_SIGN = (-1.0, 1.0, -1.0, 1.0)


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

    def axis_coords(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    def coords(self) -> list[np.ndarray]:
        """Broadcastable coordinate arrays, one per axis."""
        x = self.axis_coords()
        return [x.reshape([-1 if a == ax else 1 for a in GRID_AXES]) for ax in GRID_AXES]

    def freq_int(self) -> np.ndarray:
        """Integer Fourier frequencies in FFT order."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n)

    def deriv_multiplier(self) -> np.ndarray:
        """Spectral derivative factor 2*pi*i*k with the Nyquist mode zeroed."""
        m = 2j * np.pi * self.freq_int()
        m[self.n // 2] = 0.0
        return m


class _FieldBase:
    """Common plumbing for nodal fields: validation, immutability, arithmetic."""

    NCOMP: tuple[int, ...] = ()
    KIND = ""

    def __init__(self, grid: GridSpec, values):
        values = np.asarray(values, dtype=float)
        expected = grid.shape + self.NCOMP
        if values.shape != expected:
            raise ValueError(
                f"{type(self).__name__} expects shape {expected}, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{type(self).__name__} has non-finite values")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    def __add__(self, other):
        self._require_same(other)
        return type(self)(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._require_same(other)
        return type(self)(self.grid, self.values - other.values)

    def __neg__(self):
        return type(self)(self.grid, -self.values)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            if other.grid != self.grid:
                raise ValueError("grid mismatch")
            extra = (1,) * len(self.NCOMP)
            return type(self)(self.grid, self.values * other.values.reshape(other.values.shape + extra))
        if np.isscalar(other):
            return type(self)(self.grid, self.values * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def component(self, c: int) -> "ScalarField":
        if not self.NCOMP:
            raise ValueError("scalar fields have no components")
        return ScalarField(self.grid, self.values[..., c])

    def _require_same(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}")
        if other.grid != self.grid:
            raise ValueError("grid mismatch")

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


class ScalarField(_FieldBase):
    NCOMP = ()
    KIND = "scalar"

    @staticmethod
    def constant(grid: GridSpec, value: float) -> "ScalarField":
        return ScalarField(grid, np.full(grid.shape, float(value)))


class OneFormField(_FieldBase):
    NCOMP = (4,)
    KIND = "oneform"


class TwoFormField(_FieldBase):
    NCOMP = (6,)
    KIND = "twoform"

    @staticmethod
    def constant(grid: GridSpec, six: np.ndarray) -> "TwoFormField":
        six = np.asarray(six, float)
        return TwoFormField(grid, np.broadcast_to(six, grid.shape + (6,)))


class ThreeFormField(_FieldBase):
    NCOMP = (4,)
    KIND = "threeform"


class EndoField(_FieldBase):
    """Field of tangent-space endomorphisms (stored row-major)."""

    NCOMP = (4, 4)
    KIND = "endo"


def _partials(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """All four spectral partial derivatives, stacked on a new last axis."""
    spec = np.fft.fftn(values, axes=GRID_AXES)
    mult = grid.deriv_multiplier()
    outs = []
    for ax in GRID_AXES:
        shape = [1] * values.ndim
        shape[ax] = grid.n
        outs.append(np.fft.ifftn(spec * mult.reshape(shape), axes=GRID_AXES).real)
    return np.stack(outs, axis=-1)


def d_scalar(f: ScalarField) -> OneFormField:
    """Exterior differential of a scalar field (spectral gradient)."""
    return OneFormField(f.grid, _partials(f.values, f.grid))


def d_oneform(theta: OneFormField) -> TwoFormField:
    """Exterior differential of a 1-form: (d theta)_ij = di theta_j - dj theta_i."""
    jac = _partials(theta.values, theta.grid)  # [..., component j, axis a]
    comps = [jac[..., j, i] - jac[..., i, j] for (i, j) in pl.PAIRS]
    return TwoFormField(theta.grid, np.stack(comps, axis=-1))


def d_twoform(phi: TwoFormField) -> ThreeFormField:
    """Exterior differential of a 2-form in the fixed 3-form component order."""
    parts = _partials(phi.values, phi.grid)  # [..., pair c, axis a]
    pidx = {p: c for c, p in enumerate(pl.PAIRS)}
    comps = []
    for (i, j, k) in pl.TRIPLES:
        comps.append(
            parts[..., pidx[(j, k)], i]
            - parts[..., pidx[(i, k)], j]
            + parts[..., pidx[(i, j)], k]
        )
    return ThreeFormField(phi.grid, np.stack(comps, axis=-1))


def _star3(omega: ThreeFormField) -> OneFormField:
    comps = [sign * omega.values[..., src] for src, sign in zip(_STAR3_SRC, _STAR3_SIGN)]
    return OneFormField(omega.grid, np.stack(comps, axis=-1))


def codiff_twoform(phi: TwoFormField) -> OneFormField:
    """Codifferential on 2-forms: -star d star, with both stars pointwise
    tables on the flat unit-volume torus.  The sign is the one that makes
    the operator the exact adjoint of d under the L2 pairing."""
    starred = TwoFormField(phi.grid, pl.hodge_star(phi.values))
    return -_star3(d_twoform(starred))


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
    center = np.asarray(center, float)
    if center.shape != (4,):
        raise ValueError("center must have 4 coordinates")
    return [(x - c + 0.5) % 1.0 - 0.5 for x, c in zip(grid.coords(), center)]


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


def spectral_truncate(field, max_mode: int):
    """Zero all Fourier modes with any axis frequency above ``max_mode``;
    the low-pass filter behind every random bandlimited field."""
    grid = field.grid
    if not 0 <= max_mode < grid.n // 2:
        raise ValueError("max_mode must lie in [0, n/2)")
    spec = np.fft.fftn(field.values, axes=GRID_AXES)
    keep1d = np.abs(grid.freq_int()) <= max_mode
    for ax in GRID_AXES:
        shape = [1] * field.values.ndim
        shape[ax] = grid.n
        spec = spec * keep1d.reshape(shape)
    return type(field)(grid, np.fft.ifftn(spec, axes=GRID_AXES).real)
