"""Compatible almost-complex-structure fields on the torus and their
deformations.

On an oriented Euclidean 4-space a compatible structure J is a unit
self-dual 2-form, its fundamental form F, so a structure field is a unit
vector field y: T^4 -> S^2 of coordinates in the self-dual frame
(OMEGA1, OMEGA2, OMEGA3).  :class:`HermitianTriple` stores y alone and
derives F = sum_k y_k OMEGA_k and J = sum_k y_k J_k on access; both are
linear in y.  |y| = 1 is the only invariant left; :func:`_unit_defect`
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
:func:`deform_field` passes it whole grids as views, and
:func:`random_compatible_acs` a broadcast y with component-major a.  The
cut-off stages pass it the rows of their bump support and scatter the
result into a copy of y: off the support the bump is zero, so the
deformation form is zero and leaves y bit for bit, and nothing there can
fail a check.  Each new structure is still validated on the whole grid,
once, when its :class:`HermitianTriple` is built: :func:`_unit_defect`
reads y in cache-sized row blocks, and the triple keeps the worst defect
it measured, from which stage 2 logs its wedge-square residual without a
second pass.  :func:`save_triple` checks y once more before it writes,
and :func:`load_triple` checks the y it reads when it builds the triple;
so the cut-off construction with a save and load of both stages checks
a whole grid 7 times.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
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
    bump_support,
    frozen,
    low_pass,
    sealed,
)

#: bound on the disagreement of stage 2's normalization and rational
#: deformation routes
ROUTE_TOL = 1e-9
#: nodes per chunk of the J checked by AcsField; one chunk's 4x4 products
#: stay cache-sized
_ACS_CHUNK = 4096
#: nodes per row block of the unit check; one block of y (384 KB) and its
#: |y|^2 stay cache-sized
_UNIT_BLOCK = 16384


def _unit_defect(grid: GridSpec, y: np.ndarray, rows) -> float:
    """The worst defect ||y|^2 - 1| of the rows ``y`` of a structure field
    (at ``rows``, as in :func:`.torusfield._worst_node`), checked to be at
    most pl.ACS_TOL.  |y|^2 is :func:`.pointlin.coords_norm_sq`, taken over
    row blocks of ``_UNIT_BLOCK`` nodes of ``y.reshape(-1, 3)``, a view for
    the node-major and component-major layouts the package builds.  The
    block maxima are combined by ``np.max``, which keeps a NaN, so a
    non-finite y fails; only then is the defect taken on all rows at once,
    to name the worst node.  For
    J = sum_k y_k J_k, J^2 + Id = (1 - |y|^2) Id = Id - J^T J."""
    flat = y.reshape(-1, 3)
    worst = float(np.max([np.max(np.abs(pl.coords_norm_sq(flat[lo : lo + _UNIT_BLOCK]) - 1.0))
                          for lo in range(0, len(flat), _UNIT_BLOCK)], initial=0.0))
    if not worst <= pl.ACS_TOL:
        if not np.all(np.isfinite(y)):
            raise ValueError("y has non-finite values")
        defect = np.abs(pl.coords_norm_sq(y) - 1.0)
        raise ValueError(
            f"y is not a unit vector at node {_worst_node(grid, defect, rows)} "
            f"(||y|^2 - 1| = {worst:.3e}, tol {pl.ACS_TOL:.1e})"
        )
    return worst


def _require_unit(grid: GridSpec, y: np.ndarray, rows) -> np.ndarray:
    """``y``, once :func:`_unit_defect` has checked it."""
    _unit_defect(grid, y, rows)
    return y


class AcsField(_FieldBase):
    """Field of tangent-space endomorphisms, with planes (4, 4) + grid shape
    (entry (i, j) of every node's matrix is plane [i, j]), that is a
    compatible almost complex structure at every node, within pl.ACS_TOL.
    It is checked over node chunks of ``_ACS_CHUNK``: the values' four grid
    axes merge into one, so each chunk is a (chunk, 4, 4) view of the planes
    and the check adds no full-size temporary.  No field file holds one."""

    NCOMP = (4, 4)

    def __init__(self, grid: GridSpec, planes):
        super().__init__(grid, planes)
        nodes = self.values.reshape(-1, 4, 4)
        for lo in range(0, len(nodes), _ACS_CHUNK):
            pl.require_acs(nodes[lo : lo + _ACS_CHUNK])


@dataclass(frozen=True, eq=False)
class HermitianTriple:
    """A compatible structure field (the metric is flat), stored as its unit
    vector field ``y`` of shape ``grid.shape + (3,)``, read-only; J and F
    are derived on access, as fields of their own planes.  ``y`` is copied,
    keeping its memory layout, unless it is already read-only memory of its
    own (:func:`.torusfield.frozen`), as a new y handed over sealed is.
    Building one checks |y| = 1 on the whole grid, once, with
    :func:`_unit_defect`, and keeps the worst defect ||y|^2 - 1| that check
    measured as ``unit_defect``."""

    grid: GridSpec
    y: np.ndarray
    unit_defect: float = field(init=False)

    def __post_init__(self):
        y = frozen(self.y, "K")
        expected = self.grid.shape + (3,)
        if y.shape != expected:
            raise ValueError(f"y must have shape {expected}, got {y.shape}")
        object.__setattr__(self, "unit_defect", _unit_defect(self.grid, y, None))
        object.__setattr__(self, "y", y)

    @property
    def F(self) -> TwoFormField:
        """The fundamental form sum_k y_k OMEGA_k: its planes are the fresh
        product OMEGA_SD^T y^T, over y viewed as (nodes, 3), handed over
        sealed, so the field shares it.  Each entry is +-y_k exactly, as in
        y @ OMEGA_SD."""
        planes = np.empty((6,) + self.grid.shape)
        np.matmul(pl.OMEGA_SD.T, self.y.reshape(-1, 3).T, out=planes.reshape(6, -1))
        return TwoFormField(self.grid, sealed(planes))

    @property
    def J(self) -> AcsField:
        """The structure sum_k y_k J_k, placed from the planes of F as
        :func:`.pointlin.acs_from_coords` places F's components: J[j, i] =
        F_ij and J[i, j] = -F_ij for i < j, and +0 on the diagonal."""
        F = self.F.planes
        planes = np.zeros((4, 4) + self.grid.shape)
        for c, (i, j) in enumerate(pl.PAIRS):
            planes[j, i] = F[c]
            np.negative(F[c], out=planes[i, j])
        return AcsField(self.grid, sealed(planes))


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
    |a| < 1 on the rows, naming the worst node by its grid index, on the
    |a|^2 that the deformation then uses.  ``finish``
    checks the deformed rows for |y'| = 1, by building a
    :class:`HermitianTriple` or through :func:`_require_unit`, so no full
    grid is checked twice; when that fails, an invariant part inside
    FORM_TOL is named as the cause.
    """
    nsq = pl.coords_norm_sq(a)
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
        return finish(pl.deform_coords(y, a, nsq))
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
    ``rows`` set to ``values``: a fresh array of y's shape, written through a
    flat view and handed over sealed, so that :class:`HermitianTriple`
    shares it."""
    out = y.copy()
    out.reshape(-1, 3)[rows] = values
    return sealed(out)


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
    return _deform(grid, triple.y, a, None, lambda out: HermitianTriple(grid, sealed(out)))


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
    random trigonometric polynomials of modes up to ``bandlimit``, an
    integer in [1, n/2), rescaled so the sup of the pointwise wedge norm
    equals ``amplitude``, any value in (0, 1).  Deterministic per seed: a
    and b are white noise, drawn as one (2, n, n, n, n) batch into the rows
    1 and 2 of the component-major coefficients (0, a, b), then projected
    (:func:`.torusfield.low_pass`, on a batch axis of 2) and scaled there in
    place.

    The standard structure's y = (1, 0, 0) is a broadcast view, deformed by
    those coefficients through :func:`_deform` with its checks (a . y = 0,
    |a| < 1); the deformed y is validated once, when its triple is built,
    and kept without a further copy.
    """
    if not 0.0 < amplitude < 1.0:
        raise ValueError(f"amplitude must lie in (0, 1), got {amplitude}")
    if not (isinstance(bandlimit, (int, np.integer)) and 1 <= bandlimit < grid.n // 2):
        raise ValueError(f"bandlimit must be an integer in [1, n/2), got {bandlimit!r}")
    coeffs = np.empty((3,) + grid.shape)
    coeffs[0] = 0.0
    ab = coeffs[1:]
    np.random.default_rng(seed).standard_normal(out=ab)
    low_pass(ab, grid, bandlimit)
    sup = float(np.sqrt(np.max(ab[0] ** 2 + ab[1] ** 2)))
    ab *= amplitude / max(sup, 1e-300)
    e1 = np.broadcast_to([1.0, 0.0, 0.0], grid.shape + (3,))
    return _deform(grid, e1, np.moveaxis(coeffs, 0, -1), None,
                   lambda out: HermitianTriple(grid, sealed(out)))


def _cutoff_stage(triple: HermitianTriple, report, bump: BumpSpec, stage: str, what: str,
                  eps: float):
    """The steps both cut-off stages share on ``triple``, whose Gram report
    is ``report``: returns the first null direction w, the ascending flat
    node indices of the bump support and the bump values there (both from
    :func:`.torusfield.bump_support`), and the leading entries of the
    stage's log record.
    Raises unless the bump support volume (``what``) is below
    :func:`.cohomlab.delta_j_estimate` of ``triple``, a certified lower bound
    on delta_J, logged as ``delta_estimate``.  Both stages run only on
    structures with h_minus >= 1, and trace G = 4 keeps h_minus <= 2, so the
    non-null span has dimension 1 or 2, where that bound is defined.
    """
    w = cohomlab.select_null_form(report)
    rows, values = bump_support(triple.grid, bump.center, bump.radius, bump.height)
    support_volume = rows.size / triple.grid.node_count
    delta = cohomlab.delta_j_estimate(triple, report, eps)
    if not support_volume < delta:
        raise ValueError(
            f"{what} {support_volume:.6f} is not below the delta estimate {delta:.6f}"
        )
    head = {"stage": stage, "bump": to_json(bump), "delta_estimate": delta,
            "support_volume": support_volume}
    return w, rows, values, head


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
    both routes return y1 exactly.  The validation of the new structure runs
    on the whole grid, once, when its triple is built; the logged
    wedge-square residual max |2 |y2|^2 - 2| is twice the worst unit defect
    that validation measured (``stage2.unit_defect``), the same value to the
    bit, as scaling by 2 is exact.
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
        "wedge_square_residual": 2.0 * stage2.unit_defect,
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


def save_triple(triple: HermitianTriple, directory, stem: str, params: dict,
                log: DeformLog) -> Path:
    """Write the y field file (sdcoords kind) with
    :func:`.fieldio.serialize_field` and a JSON sidecar of format 3, the one
    format :func:`load_triple` reads, with the construction parameters
    ``params`` and the deformation log ``log``.

    y determines the structure, so neither F nor J is built or written.
    Before any file is opened, the y file name ``<stem>.y.field`` must be a
    plain file name (:func:`_plain_name`), as :func:`load_triple` requires,
    y must pass :func:`_unit_defect` on the whole grid, which names the
    worst node, and the sidecar must encode as JSON, so a failed save writes
    nothing.  The file is written from the planes of a
    :class:`.torusfield.SelfDualCoordField` of y, one components-major copy
    of y, the save's one full-size copy.  A y file already at the path is
    replaced by a new file, not truncated and rewritten
    (:func:`.fieldio.serialize_field`)."""
    y_name = _plain_name(f"{stem}.y.field")
    _unit_defect(triple.grid, triple.y, None)
    sidecar = json.dumps({
        "format": 3,
        "grid_n": triple.grid.n,
        "files": {"y": y_name},
        "params": params,
        "deform_log": log.to_list(),
    }, indent=2)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    serialize_field(SelfDualCoordField(triple.grid, np.moveaxis(triple.y, -1, 0)),
                    directory / y_name)
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
    (header, sdcoords kind, grid, payload size) and hold finite values.  Its
    planes are copied once into a node-major y, the load's one full-size
    copy, and freed before the triple built from y checks |y| = 1, naming
    the worst node.  A failed read of the sidecar raises as it is;
    non-UTF-8 is malformed.
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
    # the field's planes are freed once y is copied from them, before y is checked
    y = np.ascontiguousarray(deserialize_field(sidecar_path.parent / name, grid).values)
    return HermitianTriple(grid, sealed(y))
