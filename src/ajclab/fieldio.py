"""Binary field-file serialization.

Layout: one ASCII header line ``AJC1 sdcoords <n>\\n``, exactly so (single
spaces, n in plain decimal), followed immediately by the node values as
64-bit IEEE-754 little-endian floats, components-major (component index
slowest) with x4 the fastest axis.  The file must end exactly after the
payload.  A file holds one kind of field:

    sdcoords   3 components   :class:`.torusfield.SelfDualCoordField`

The payload is the field's ``planes`` (:mod:`.torusfield`), byte for byte
on a little-endian host: :func:`serialize_field` writes them as they are,
and :func:`deserialize_field` reads the file into fresh planes that the
field shares, so neither makes a full-size copy.  A structure is stored as
its unit vector field y: :func:`.hermitian.save_triple` writes y with
:func:`serialize_field`, and :func:`.hermitian.load_triple` reads it with
:func:`deserialize_field`.  A write replaces a file already at its path
rather than rewriting it in place, which ext4 flushes at once.  A read
states each refusal once, as a plain ValueError, and one re-raise names the
file in a :class:`FieldFormatError`.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from .torusfield import GridSpec, SelfDualCoordField, sealed

MAGIC = "AJC1"
#: the kind named in the header, the one kind of field a file holds
KIND = "sdcoords"


class FieldFormatError(ValueError):
    """Raised for malformed or mismatching field files."""


def serialize_field(field, path) -> None:
    """Write a :class:`.torusfield.SelfDualCoordField` to ``path`` in the
    documented binary format; any other field raises
    :class:`FieldFormatError`, before the file is opened.  The field's
    planes are the payload: they go to the file through the buffer protocol
    as they are, with no copy on a little-endian host.

    A file already at ``path`` is unlinked and a new one written in its
    place, with the same bytes as a rewrite: on ext4 with its default
    ``auto_da_alloc``, closing a file that was truncated to zero and
    rewritten starts its writeback at once, which made each save of a
    structure over an existing set several times slower.  A hard link to
    the old file therefore keeps the old bytes, and a symlink at ``path``
    is replaced, not written through."""
    if type(field) is not SelfDualCoordField:
        raise FieldFormatError(f"{type(field).__name__} has no field-file kind")
    payload = np.ascontiguousarray(field.planes, dtype="<f8")
    path = Path(path)
    path.unlink(missing_ok=True)
    with open(path, "wb") as fh:
        fh.write(f"{MAGIC} {KIND} {field.grid.n}\n".encode("ascii"))
        fh.write(payload)


def deserialize_field(path, expect_grid: GridSpec):
    """Read a field file of grid ``expect_grid`` back as a
    :class:`.torusfield.SelfDualCoordField`.  The header, the kind, the grid
    and the payload size are checked first; a header that is not exactly
    ``f"{MAGIC} {KIND} {n}"``, n in plain decimal, is malformed, and one of
    another kind is unknown.  The payload is then read straight into fresh
    planes, which the field shares: the read is the one full-size write of
    the values.  Every refusal, a value the field rejects (a non-finite one)
    included, is a ValueError that one re-raise turns into
    :class:`FieldFormatError` naming the file."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            line = fh.readline()
            if not line.endswith(b"\n"):
                raise ValueError("missing header line")
            if not line.isascii():
                raise ValueError("header is not ASCII")
            header = line[:-1].decode("ascii")
            parts = header.split()
            if len(parts) != 3:
                raise ValueError(f"malformed header {header!r}")
            magic, kind, n_str = parts
            if magic != MAGIC:
                raise ValueError(f"bad magic/version {magic!r}, expected {MAGIC!r}")
            if kind != KIND:
                raise ValueError(f"unknown field kind {kind!r}")
            if not n_str.isdecimal() or header != f"{MAGIC} {KIND} {int(n_str)}":
                raise ValueError(f"malformed header {header!r}")
            grid = GridSpec(int(n_str))
            if grid != expect_grid:
                raise ValueError(f"grid n={grid.n}, expected n={expect_grid.n}")
            shape = SelfDualCoordField.NCOMP + grid.shape
            expected_bytes = 8 * math.prod(shape)
            body_bytes = os.fstat(fh.fileno()).st_size - len(line)
            if body_bytes != expected_bytes:
                raise ValueError(f"payload has {body_bytes} bytes, expected {expected_bytes}")
            planes = np.empty(shape, dtype="<f8")
            if fh.readinto(planes) != expected_bytes:
                raise ValueError("payload ended before its size")
        return SelfDualCoordField(grid, sealed(planes))
    except ValueError as exc:
        raise FieldFormatError(f"{path}: {exc}") from exc
