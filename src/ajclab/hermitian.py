"""Compatible almost-complex-structure fields on the torus and their
deformations.

On an oriented Euclidean 4-space a compatible structure J is a unit
self-dual 2-form, its fundamental form F, so a structure field is a unit
vector field y: T^4 -> S^2 of coordinates in the self-dual frame
(OMEGA1, OMEGA2, OMEGA3).  :class:`HermitianTriple` stores y alone and
derives F = sum_k y_k OMEGA_k and J = sum_k y_k J_k on access; both are
linear in y.  |y| = 1 is the only invariant left; :func:`_require_unit`
checks it when a triple is built and before one is saved.  The boundary
that takes outside input, :func:`load_triple`, checks more: the sidecar
and the y file it names.  :func:`triple_from_form_field` and
:func:`.cohomlab.f_omega` are kept for the tests and perfbench's span table.

A self-dual form a @ OMEGA_SD is anti-invariant for y exactly when
a . y = 0 (the anti-invariant plane is the tangent plane of S^2 at y), and
its wedge norm is |a|.  Deforming by such an a with |a| < 1 is the inverse
stereographic map

    y' = ((1 - |a|^2) y + 2 a) / (1 + |a|^2),

the rational closed form of :func:`.pointlin.deform_pair` in coordinates.

The two-stage cut-off pipeline lives here as well: stage 1
(:func:`one_bump_deform`) deforms along a bump-truncated harmonic
anti-invariant direction; stage 2 (:func:`second_bump_deform`) renormalizes
``y2 = f1 * y1 + c2 * a`` back to the sphere with
``f1 = sqrt(1 - c2^2 |a|^2)``.  Each stage is gated on its bump support
volume staying below :func:`.cohomlab.delta_j_estimate` of its input
structure, a certified lower bound on delta_J, so rounding and the choice of
directions can only make the gate stricter.  Each stage returns the Gram
reports it computed: stage 1 those of its input and its result, stage 2
that of its result, at the ``tol_null`` of the stage-1 report it takes.

Where the checks run: :func:`_deform` holds the deformation checks (a . y
= 0, |a| < 1, and |y'| = 1 through the caller's finish) once, on (..., 3)
arrays of y and a.
:func:`deform_field` passes it whole grids as views.  The cut-off stages
pass it the rows of their bump support and scatter the result into a copy
of y: off the support the bump is zero, so the deformation form is zero
and leaves y bit for bit, and nothing there can fail a check.  Each new
structure is still validated on the whole grid when its
:class:`HermitianTriple` is built.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cohomlab
from . import pointlin as pl
# re-exported: tests call hm.anti_invariant_frame, and perfbench traces the frame under hermitian
from .cohomlab import anti_invariant_frame
from .fieldio import FieldFormatError, deserialize_field, serialize_field
from .reporting import to_json
from .torusfield import (
    GridSpec,
    ScalarField,
    SelfDualCoordField,
    TwoFormField,
    _FieldBase,
    _worst_node,
    bump_cutoff,
    frozen,
    spectral_truncate,
)

#: bound on the disagreement of stage 2's normalization and rational
#: deformation routes
ROUTE_TOL = 1e-9
#: nodes per chunk of the J checked by AcsField; one chunk's 4x4 products
#: stay cache-sized
_ACS_CHUNK = 4096


def _require_unit(grid: GridSpec, y: np.ndarray, rows) -> np.ndarray:
    """The rows ``y`` of a structure field (at ``rows``, as in
    :func:`.torusfield._worst_node`), checked to be finite unit vectors
    within pl.ACS_TOL, naming the worst node.  A non-finite y makes the max
    defect non-finite, so finiteness is looked at only when the defect check
    fails.  For J = sum_k y_k J_k, J^2 + Id = (1 - |y|^2) Id = Id - J^T J."""
    defect = np.abs(np.einsum("...k,...k", y, y) - 1.0)
    worst = float(np.max(defect, initial=0.0))
    if not worst <= pl.ACS_TOL:
        if not np.all(np.isfinite(y)):
            raise ValueError("y has non-finite values")
        raise ValueError(
            f"y is not a unit vector at node {_worst_node(grid, defect, rows)} "
            f"(||y|^2 - 1| = {worst:.3e}, tol {pl.ACS_TOL:.1e})"
        )
    return y


class AcsField(_FieldBase):
    """Field of tangent-space endomorphisms (stored row-major) that is a
    compatible almost complex structure at every node, within pl.ACS_TOL;
    checked over node chunks of ``_ACS_CHUNK``, so the check adds no
    full-size temporary.  No field file holds one."""

    NCOMP = (4, 4)

    def __init__(self, grid: GridSpec, values):
        super().__init__(grid, values)
        nodes = self.values.reshape(-1, 4, 4)
        for lo in range(0, len(nodes), _ACS_CHUNK):
            pl.require_acs(nodes[lo : lo + _ACS_CHUNK])


@dataclass(frozen=True, eq=False)
class HermitianTriple:
    """A compatible structure field (the metric is flat), stored as its unit
    vector field ``y`` of shape ``grid.shape + (3,)``, read-only; J and F
    are derived on access.  ``y`` is copied, keeping its memory layout,
    unless it is already read-only memory of its own
    (:func:`.torusfield.frozen`), as a field's values are."""

    grid: GridSpec
    y: np.ndarray

    def __post_init__(self):
        y = frozen(self.y, "K")
        expected = self.grid.shape + (3,)
        if y.shape != expected:
            raise ValueError(f"y must have shape {expected}, got {y.shape}")
        _require_unit(self.grid, y, None)
        object.__setattr__(self, "y", y)

    @property
    def F(self) -> TwoFormField:
        """The fundamental form sum_k y_k OMEGA_k."""
        return TwoFormField(self.grid, self.y @ pl.OMEGA_SD)

    @property
    def J(self) -> AcsField:
        """The structure sum_k y_k J_k."""
        return AcsField(self.grid, pl.acs_from_coords(self.y))


class DeformLog(list):
    """The records of the construction stages, JSON-ready dicts in stage
    order; the stages append to it."""

    def to_list(self) -> list[dict]:
        return list(self)


@dataclass(frozen=True)
class BumpSpec:
    """Parameters of one cut-off bump."""

    center: tuple[float, float, float, float]
    radius: float
    height: float

    def build(self, grid: GridSpec) -> ScalarField:
        return bump_cutoff(grid, self.center, self.radius, self.height)


def standard_acs(grid: GridSpec) -> HermitianTriple:
    """The constant standard structure y = (1, 0, 0); its fundamental form
    is OMEGA1 everywhere and its harmonic anti-invariant plane is
    span(OMEGA2, OMEGA3)."""
    return HermitianTriple(grid, np.broadcast_to([1.0, 0.0, 0.0], grid.shape + (3,)))


def _deform(grid: GridSpec, y: np.ndarray, a: np.ndarray, rows, finish):
    """``finish`` of the rows of y deformed by the rows a, both (..., 3)
    arrays at the flat node indices ``rows``, or the whole grid when
    ``rows`` is None.

    Checks a . y = 0 (within pl.FORM_TOL relative to max(1, sup|a|)) and
    |a| < 1 on the rows, naming the worst node by its grid index.  ``finish``
    checks the deformed rows for |y'| = 1, by building a
    :class:`HermitianTriple` or through :func:`_require_unit`, so no full
    grid is checked twice; when that fails, an invariant part inside
    FORM_TOL is named as the cause.
    """
    nsq = np.einsum("...k,...k", a, a)
    along = np.abs(np.einsum("...k,...k", a, y))
    invariant = float(np.max(along, initial=0.0))
    sup_sq = float(np.max(nsq, initial=0.0))
    if invariant > pl.FORM_TOL * max(1.0, float(np.sqrt(sup_sq))):
        raise ValueError(
            f"deformation form is not anti-invariant at node {_worst_node(grid, along, rows)} "
            f"(invariant part {invariant:.3e})"
        )
    if sup_sq >= 1.0:
        raise ValueError(
            f"deformation form has wedge norm^2 {sup_sq:.6f} >= 1 "
            f"at node {_worst_node(grid, nsq, rows)}"
        )
    try:
        return finish(pl.deform_coords(y, a))
    except ValueError as exc:
        # |y'|^2 - 1 is about 4 (a . y)(1 - |a|^2) / (1 + |a|^2)^2, so an
        # invariant part inside FORM_TOL can still break |y'| = 1 (ACS_TOL)
        if not invariant > 0.0:
            raise
        raise ValueError(
            f"deformation form's invariant part {invariant:.3e} at node "
            f"{_worst_node(grid, along, rows)} moves the deformed structure off the sphere: {exc}"
        ) from exc


def _scatter(y: np.ndarray, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A copy of the structure field y with its nodes at the flat indices
    ``rows`` set to ``values``."""
    out = y.reshape(-1, 3).copy()
    out[rows] = values
    return out.reshape(y.shape)


def deform_field(triple: HermitianTriple, a: np.ndarray) -> HermitianTriple:
    """Deform a structure field by the anti-invariant form field a @ OMEGA_SD.

    ``a`` has shape ``grid.shape + (3,)`` and must satisfy a . y = 0 (within
    pl.FORM_TOL relative to max(1, sup|a|)) and |a| < 1 at every node; the
    checks of :func:`_deform` run on the whole grid, as views, and report
    the worst offending node.  Off the support of a the output equals the
    input exactly.
    """
    grid = triple.grid
    a = np.asarray(a, float)
    if a.shape != grid.shape + (3,):
        raise ValueError(f"deformation field must have shape {grid.shape + (3,)}, got {a.shape}")
    return _deform(grid, triple.y, a, None, lambda out: HermitianTriple(grid, out))


def triple_from_form_field(F: TwoFormField) -> HermitianTriple:
    """The structure field whose fundamental form is ``F``.

    ``F`` must be self-dual within pl.FORM_TOL (relative to max(1, sup|F|)) and
    wedge-normalized, so that y = F @ OMEGA_SD^T / 2 is a unit vector.
    """
    # F - star F is (F0 - F5, F1 + F4, F2 - F3) and its negation, component by component
    v = F.values
    defect = np.maximum(
        np.maximum(np.abs(v[..., 0] - v[..., 5]), np.abs(v[..., 1] + v[..., 4])),
        np.abs(v[..., 2] - v[..., 3]),
    )
    if float(defect.max()) > pl.FORM_TOL * max(1.0, F.max_abs()):
        raise ValueError(
            f"form is not self-dual at node {_worst_node(F.grid, defect, None)} "
            f"(defect {float(defect.max()):.3e})"
        )
    # freed first, so y's arrays reuse its heap block instead of growing the heap
    del defect
    return HermitianTriple(F.grid, F.values @ pl.OMEGA_SD.T / 2.0)


def random_compatible_acs(
    grid: GridSpec, seed: int, amplitude: float, bandlimit: int
) -> HermitianTriple:
    """A reproducible random deformation of the standard structure.

    The deformation form is a(x) OMEGA2 + b(x) OMEGA3 with a, b independent
    random trigonometric polynomials of modes up to ``bandlimit``, rescaled
    so the sup of the pointwise wedge norm equals ``amplitude``, any value
    in (0, 1).  Deterministic per seed.
    """
    if not 0.0 < amplitude < 1.0:
        raise ValueError(f"amplitude must lie in (0, 1), got {amplitude}")
    if not 1 <= bandlimit < grid.n // 2:
        raise ValueError(f"bandlimit must lie in [1, n/2), got {bandlimit}")
    rng = np.random.default_rng(seed)
    a, b = (
        spectral_truncate(ScalarField(grid, rng.standard_normal(grid.shape)), bandlimit).values
        for _ in range(2)
    )
    sup = float(np.sqrt(np.max(a**2 + b**2)))
    scale = amplitude / max(sup, 1e-300)
    coeffs = np.stack([np.zeros(grid.shape), a * scale, b * scale], axis=-1)
    return deform_field(standard_acs(grid), coeffs)


def _cutoff_stage(triple: HermitianTriple, report, bump: BumpSpec, stage: str, what: str,
                  eps: float):
    """The steps both cut-off stages share on ``triple``, whose Gram report
    is ``report``: returns the first null direction w, the flat node indices
    of the bump support (``np.flatnonzero`` of the bump values), the bump
    values there, and the leading entries of the stage's log record.
    Raises unless the bump support volume (``what``) is below
    :func:`.cohomlab.delta_j_estimate` of ``triple``, a certified lower bound
    on delta_J, logged as ``delta_estimate``.  Both stages run only on
    structures with h_minus >= 1, and trace G = 4 keeps h_minus <= 2, so the
    non-null span has dimension 1 or 2, where that bound is defined.
    """
    w = cohomlab.select_null_form(report)
    values = bump.build(triple.grid).values.ravel()
    rows = np.flatnonzero(values)
    support_volume = rows.size / values.size
    delta = cohomlab.delta_j_estimate(triple, report, eps)
    if not support_volume < delta:
        raise ValueError(
            f"{what} {support_volume:.6f} is not below the delta estimate {delta:.6f}"
        )
    head = {"stage": stage, "bump": to_json(bump), "delta_estimate": delta,
            "support_volume": support_volume}
    return w, rows, values[rows], head


def one_bump_deform(
    triple: HermitianTriple,
    bump: BumpSpec,
    tol_null: float = 1e-7,
    eps: float = 1e-6,
) -> tuple[HermitianTriple, DeformLog, tuple[cohomlab.GramReport, cohomlab.GramReport]]:
    """Stage 1 of the cut-off construction; returns (stage1, log,
    (report0, report1)), the Gram reports of the input and of stage1.

    Picks the most null harmonic anti-invariant direction of the input,
    truncates it by the bump, and deforms by a = c1 w, once the bump support
    volume is below :func:`.cohomlab.delta_j_estimate` of the input
    structure.  |a| < 1 holds with room to spare, so a is not rescaled: the
    bump values c1 are at most their height, itself at most 1, and w from
    :func:`.cohomlab.select_null_form` is a unit row divided by sqrt(2), so
    |a| <= height / sqrt(2) <= 0.71 up to rounding; the log's ``sup_norm``
    is the largest |a|.  The checks of :func:`_deform` run on the rows of
    the bump support alone: off it the deformation form is zero, so it
    passes every check and leaves y as it is, and those nodes are copied
    from the input.  The new structure is validated on the whole grid.
    """
    t0 = time.perf_counter()
    report0 = cohomlab.gram_matrix(triple, tol_null=tol_null)
    if report0.h_minus < 1:
        raise ValueError("stage 1 needs at least one harmonic anti-invariant direction")
    w, rows, c1, head = _cutoff_stage(triple, report0, bump, "cutoff-1", "bump support volume", eps)
    a = c1[:, None] * w
    stage1 = _deform(triple.grid, triple.y.reshape(-1, 3)[rows], a, rows,
                     lambda out: HermitianTriple(triple.grid, _scatter(triple.y, rows, out)))
    report1 = cohomlab.gram_matrix(stage1, tol_null=tol_null)
    log = DeformLog([{
        **head,
        "sup_norm": float(np.sqrt(np.max(np.sum(a * a, axis=-1), initial=0.0))),
        "null_direction": report0.null_coords[0].tolist(),
        "h_before": report0.h_minus,
        "h_after": report1.h_minus,
        "runtime_ms": 1000.0 * (time.perf_counter() - t0),
    }])
    return stage1, log, (report0, report1)


def second_bump_deform(stage1: HermitianTriple, report1, bump: BumpSpec, log: DeformLog,
                       eps: float) -> tuple[HermitianTriple, cohomlab.GramReport]:
    """Stage 2 of the cut-off construction on ``stage1``, whose Gram report
    is ``report1``; appends its record to ``log`` and returns (stage2, its
    Gram report at ``report1.tol_null``), or (stage1, report1) when that
    kernel is already exhausted.

    Takes the surviving null direction a of stage1, checks the bump support
    volume against the stage-1 delta estimate, and renormalizes
    y2 = f1 y1 + c2 a with f1 = sqrt(1 - c2^2 |a|^2), which keeps |y2| = 1
    because a is orthogonal to y1 at every node.  f1 is real: the bump
    values c2 are at most their height, itself at most 1, and a from
    :func:`.cohomlab.select_null_form` is a unit row divided by sqrt(2), so
    c2^2 |a|^2 <= 1/2 up to rounding.  The result is cross-checked against
    the rational deformation route with beta = c2 a / (1 + f1), through
    :func:`_deform`.

    The renormalization, the route cross-check and its |alt| = 1 check run
    on the rows of the bump support alone: off it f1 = 1 and beta = 0, so
    both routes return y1 exactly.  The wedge-square residual, which off the
    support is stage 1's, and the validation of the new structure run on the
    whole grid.
    """
    t0 = time.perf_counter()
    if report1.h_minus == 0:
        log.append({"stage": "cutoff-2", "skipped": "stage 1 already exhausted the kernel"})
        return stage1, report1
    w, rows, c2, head = _cutoff_stage(
        stage1, report1, bump, "cutoff-2", "stage-2 bump support volume", eps
    )
    grid = stage1.grid
    prod_sq = c2**2 * float(w @ w)
    f1 = np.sqrt(1.0 - prod_sq)
    y1 = stage1.y.reshape(-1, 3)[rows]
    y2_rows = f1[:, None] * y1 + c2[:, None] * w
    y2 = _scatter(stage1.y, rows, y2_rows)
    stage2 = HermitianTriple(grid, y2)
    # independent route: the same structure as a rational deformation of stage 1
    alt = _deform(grid, y1, (c2 / (1.0 + f1))[:, None] * w, rows,
                  lambda out: _require_unit(grid, out, rows))
    route_dev = float(np.max(np.abs(alt - y2_rows), initial=0.0))
    if route_dev > ROUTE_TOL:
        raise pl.ConsistencyError(
            f"normalization and rational deformation routes disagree by {route_dev:.3e}"
        )
    report2 = cohomlab.gram_matrix(stage2, tol_null=report1.tol_null)
    log.append({
        **head,
        "sup_norm": float(np.sqrt(np.max(prod_sq, initial=0.0))),
        "null_direction": report1.null_coords[0].tolist(),
        "wedge_square_residual": float(np.max(np.abs(2.0 * np.sum(y2 * y2, axis=-1) - 2.0))),
        "route_disagreement": route_dev,
        "h_before": report1.h_minus,
        "h_after": report2.h_minus,
        "runtime_ms": 1000.0 * (time.perf_counter() - t0),
    })
    return stage2, report2


def two_stage_deform(
    triple: HermitianTriple,
    bump1: BumpSpec,
    bump2: BumpSpec,
    tol_null: float = 1e-7,
    eps: float = 1e-6,
) -> tuple[HermitianTriple, HermitianTriple, DeformLog]:
    """Both stages of the cut-off construction; returns (stage1, stage2, log).
    Callers that need the Gram reports call the two stages themselves."""
    stage1, log, (_, report1) = one_bump_deform(triple, bump1, tol_null, eps)
    return stage1, second_bump_deform(stage1, report1, bump2, log, eps)[0], log


def _plain_name(name) -> str:
    """``name`` if it is a plain file name, one in the sidecar's own
    directory with no NUL byte, for ``files.y`` of a sidecar; else ValueError."""
    if not isinstance(name, str) or "\0" in name or Path(name).parts != (name,) or name == "..":
        raise ValueError(f"needs a plain file name in files.y, got {name!r}")
    return name


def save_triple(triple: HermitianTriple, directory, stem: str, params: dict | None = None,
                log: DeformLog | None = None) -> Path:
    """Write the y field file (sdcoords kind) with
    :func:`.fieldio.serialize_field` and a JSON sidecar of format 3, the one
    format :func:`load_triple` reads, with construction parameters and the
    deformation log.

    y determines the structure, so neither F nor J is built or written.
    Before any file is opened, the y file name ``<stem>.y.field`` must be a
    plain file name (:func:`_plain_name`), as :func:`load_triple` requires,
    y must pass :func:`_require_unit`, which names the worst node, and the
    sidecar must encode as JSON, so a failed save writes nothing."""
    y_name = _plain_name(f"{stem}.y.field")
    _require_unit(triple.grid, triple.y, None)
    sidecar = json.dumps({
        "format": 3,
        "grid_n": triple.grid.n,
        "files": {"y": y_name},
        "params": params or {},
        "deform_log": log.to_list() if log is not None else [],
    }, indent=2)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    serialize_field(SelfDualCoordField(triple.grid, triple.y), directory / y_name)
    path = directory / f"{stem}.json"
    path.write_text(sidecar)
    return path


def load_triple(sidecar_path) -> HermitianTriple:
    """Read a triple written by :func:`save_triple`, from the y file its
    sidecar names.

    The sidecar must be a JSON object of format 3, with an integer
    ``grid_n`` and a plain file name in ``files["y"]``; otherwise
    :class:`.fieldio.FieldFormatError` names it, as it does a set of format
    1 or 2, whose file held the fundamental form F.  The y file is read by
    :func:`.fieldio.deserialize_field`, so it must pass its format checks
    (header, sdcoords kind, grid, payload size) and hold finite values, and
    the triple built from it checks |y| = 1, naming the worst node.  A
    failed read of the sidecar raises as it is; non-UTF-8 is malformed.
    """
    sidecar_path = Path(sidecar_path)
    data = sidecar_path.read_bytes()
    try:
        meta = json.loads(data.decode())
        if not isinstance(meta, dict):
            raise ValueError("not a JSON object")
        fmt, n, files = meta.get("format"), meta.get("grid_n"), meta.get("files")
        if type(fmt) is not int or fmt != 3:
            raise ValueError(f"format {fmt!r} is not 3")
        if type(n) is not int:
            raise ValueError(f"needs an integer grid_n, got {n!r}")
        grid = GridSpec(n)
        name = _plain_name(files.get("y") if isinstance(files, dict) else None)
    except ValueError as exc:
        raise FieldFormatError(f"{sidecar_path}: malformed sidecar: {exc}") from exc
    field = deserialize_field(sidecar_path.parent / name, expect_grid=grid)
    return HermitianTriple(grid, field.values)
