"""Binary field-file serialization.

Layout: one ASCII header line ``AJC1 <kind> <n>\\n``, exactly so (single
spaces, n in plain decimal), followed immediately by the node values as
64-bit IEEE-754 little-endian floats, components-major (component index
slowest) with x4 the fastest axis.  The file must end exactly after the
payload.  The kinds and their components per node:

    scalar     1   :class:`.torusfield.ScalarField`
    oneform    4   :class:`.torusfield.OneFormField`
    twoform    6   :class:`.torusfield.TwoFormField`
    threeform  4   :class:`.torusfield.ThreeFormField`
    sdcoords   3   :class:`.torusfield.SelfDualCoordField`

:func:`serialize_field` and :func:`deserialize_field` are the only two
routes to and from a file; both see the payload as it lies in the file, an
``(ncomp, N)`` array of N = n^4 nodes.  A structure is stored as its unit
vector field y, of sdcoords kind: :func:`.hermitian.save_triple` writes y
with :func:`serialize_field`, and :func:`.hermitian.load_triple` reads it
with :func:`deserialize_field`.  Sets of format 1 and 2 hold the
fundamental form F instead, of twoform kind, and still load.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .torusfield import (
    GridSpec,
    OneFormField,
    ScalarField,
    SelfDualCoordField,
    ThreeFormField,
    TwoFormField,
)

MAGIC = "AJC1"

_KIND_TO_CLS = {
    "scalar": ScalarField,
    "oneform": OneFormField,
    "twoform": TwoFormField,
    "threeform": ThreeFormField,
    "sdcoords": SelfDualCoordField,
}


class FieldFormatError(ValueError):
    """Raised for malformed or mismatching field files."""


def _ncomp(cls) -> int:
    return int(np.prod(cls.NCOMP)) if cls.NCOMP else 1


def serialize_field(field, path) -> None:
    """Write a field to ``path`` in the documented binary format; a field of
    no kind :func:`deserialize_field` reads back raises
    :class:`FieldFormatError`, before the file is opened.  The contiguous
    little-endian payload goes to the file through the buffer protocol,
    without an intermediate bytes copy."""
    if _KIND_TO_CLS.get(field.KIND) is not type(field):
        raise FieldFormatError(f"{type(field).__name__} has no field-file kind")
    grid = field.grid
    rows = field.values.reshape(grid.node_count, _ncomp(field))
    payload = np.ascontiguousarray(rows.T, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(f"{MAGIC} {field.KIND} {grid.n}\n".encode("ascii"))
        fh.write(payload)


def deserialize_field(path, expect_grid: GridSpec | None = None):
    """Read a field file back; optionally enforce the expected grid.  The
    header, the grid and the payload size are checked first; a header that
    is not exactly ``f"{MAGIC} {kind} {n}"`` is malformed.  The values are a
    view of the file's bytes until the field copies them into node-major
    order, the one full-size copy of a read.  A value the field rejects (a
    non-finite one) raises :class:`FieldFormatError` naming the file."""
    path = Path(path)
    raw = path.read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise FieldFormatError(f"{path}: missing header line")
    try:
        header = raw[:nl].decode("ascii")
    except UnicodeDecodeError as exc:
        raise FieldFormatError(f"{path}: header is not ASCII") from exc
    parts = header.split()
    if len(parts) != 3:
        raise FieldFormatError(f"{path}: malformed header {header!r}")
    magic, kind, n_str = parts
    if magic != MAGIC:
        raise FieldFormatError(f"{path}: bad magic/version {magic!r}, expected {MAGIC!r}")
    cls = _KIND_TO_CLS.get(kind)
    if cls is None:
        raise FieldFormatError(f"{path}: unknown field kind {kind!r}")
    try:
        n = int(n_str)
    except ValueError as exc:
        raise FieldFormatError(f"{path}: bad grid size {n_str!r}") from exc
    if header != f"{MAGIC} {kind} {n}":
        raise FieldFormatError(f"{path}: malformed header {header!r}")
    try:
        grid = GridSpec(n)
    except ValueError as exc:
        raise FieldFormatError(f"{path}: {exc}") from exc
    if expect_grid is not None and grid != expect_grid:
        raise FieldFormatError(f"{path}: grid n={n}, expected n={expect_grid.n}")
    ncomp = _ncomp(cls)
    expected_bytes = 8 * ncomp * grid.node_count
    body_bytes = len(raw) - (nl + 1)
    if body_bytes != expected_bytes:
        raise FieldFormatError(
            f"{path}: payload has {body_bytes} bytes, expected {expected_bytes}"
        )
    payload = np.frombuffer(raw, dtype="<f8", offset=nl + 1).reshape(ncomp, grid.node_count)
    try:
        return cls(grid, payload.T.reshape(grid.shape + cls.NCOMP))
    except ValueError as exc:
        raise FieldFormatError(f"{path}: {exc}") from exc
