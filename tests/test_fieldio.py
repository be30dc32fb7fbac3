"""Field-file serialization round trips and failure modes; a file holds
self-dual coordinates (sdcoords), the one kind the format has."""

import re

import numpy as np
import pytest

from ajclab import fieldio, hermitian as hm, torusfield as tf
from constant_fields import from_values

G = tf.GridSpec(4)


def sd_constant(grid, value):
    return tf.SelfDualCoordField(grid, np.full((3,) + grid.shape, float(value)))


def _random_field(cls, rng):
    return cls(G, rng.standard_normal(cls.NCOMP + G.shape))


@pytest.mark.parametrize("cls", [tf.SelfDualCoordField])
def test_round_trip_bit_identical(cls, tmp_path):
    rng = np.random.default_rng(0)
    field = _random_field(cls, rng)
    path = tmp_path / "field.bin"
    fieldio.serialize_field(field, path)
    back = fieldio.deserialize_field(path, G)
    assert type(back) is cls
    assert back.grid == G
    assert np.array_equal(back.values, field.values)


def test_field_of_no_file_kind_is_not_written(tmp_path):
    J = hm.standard_acs(G).J
    with pytest.raises(fieldio.FieldFormatError, match="AcsField has no field-file kind"):
        fieldio.serialize_field(J, tmp_path / "J.field")
    assert not (tmp_path / "J.field").exists()


def test_twoform_field_is_not_written(tmp_path):
    F = hm.standard_acs(G).F
    with pytest.raises(fieldio.FieldFormatError, match="TwoFormField has no field-file kind"):
        fieldio.serialize_field(F, tmp_path / "F.field")
    assert not (tmp_path / "F.field").exists()


def test_header_layout(tmp_path):
    field = sd_constant(G, 1.5)
    path = tmp_path / "f.bin"
    fieldio.serialize_field(field, path)
    raw = path.read_bytes()
    assert raw.startswith(b"AJC1 sdcoords 4\n")
    assert len(raw) == len(b"AJC1 sdcoords 4\n") + 24 * G.node_count


@pytest.mark.parametrize(
    "header",
    [b"AJC1  sdcoords\t4 ", b"AJC1 sdcoords 0_4", b"AJC1 sdcoords +4", b"AJC1 sdcoords 04",
     b"AJC1 sdcoords x8", b"AJC1 sdcoords -4"],
    ids=["extra-whitespace", "underscore", "plus-sign", "leading-zero", "not-decimal",
         "negative"],
)
def test_header_must_be_exact(header, tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(header + b"\n" + b"\0" * (24 * G.node_count))
    with pytest.raises(fieldio.FieldFormatError,
                       match=rf"^{re.escape(str(path))}: malformed header"):
        fieldio.deserialize_field(path, G)


@pytest.mark.parametrize(
    "raw, message",
    [(b"AJC1 sdcoords 4", "missing header line"),
     (b"AJC1 sdcoords 4\xff\n", "header is not ASCII"),
     (b"AJC1 sdcoords 5\n", "grid size must be even")],
    ids=["no-newline", "non-ascii", "odd-size"],
)
def test_header_refusal_names_the_file(raw, message, tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(raw + b"\0" * (24 * G.node_count))
    with pytest.raises(fieldio.FieldFormatError, match=rf"^{re.escape(str(path))}: {message}"):
        fieldio.deserialize_field(path, G)


def test_path_with_a_nul_byte_is_refused_with_the_path(tmp_path):
    path = tmp_path / "f\0.bin"
    with pytest.raises(fieldio.FieldFormatError, match=rf"^{re.escape(str(path))}: "):
        fieldio.deserialize_field(path, G)


def test_component_major_x4_fastest(tmp_path):
    vals = np.zeros(G.shape + (3,))
    vals[0, 0, 0, 1, 2] = 7.0  # component 2, node (0,0,0,1)
    field = from_values(tf.SelfDualCoordField, G, vals)
    path = tmp_path / "f.bin"
    fieldio.serialize_field(field, path)
    raw = path.read_bytes()
    body = np.frombuffer(raw[raw.find(b"\n") + 1 :], dtype="<f8")
    assert body[2 * G.node_count + 1] == 7.0


def test_truncated_file_rejected(tmp_path):
    field = sd_constant(G, 1.0)
    path = tmp_path / "f.bin"
    fieldio.serialize_field(field, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(fieldio.FieldFormatError, match="payload"):
        fieldio.deserialize_field(path, G)


def test_trailing_garbage_rejected(tmp_path):
    field = sd_constant(G, 1.0)
    path = tmp_path / "f.bin"
    fieldio.serialize_field(field, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(fieldio.FieldFormatError, match="payload"):
        fieldio.deserialize_field(path, G)


def test_non_finite_value_rejected_with_the_path(tmp_path):
    path = tmp_path / "f.bin"
    fieldio.serialize_field(sd_constant(G, 1.0), path)
    raw = bytearray(path.read_bytes())
    raw[-8:] = np.array([np.inf], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(fieldio.FieldFormatError, match=rf"^{re.escape(str(path))}: .*non-finite"):
        fieldio.deserialize_field(path, G)


def test_bad_magic_rejected(tmp_path):
    field = sd_constant(G, 1.0)
    path = tmp_path / "f.bin"
    fieldio.serialize_field(field, path)
    raw = path.read_bytes()
    path.write_bytes(b"AJC2" + raw[4:])
    with pytest.raises(fieldio.FieldFormatError, match="magic"):
        fieldio.deserialize_field(path, G)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"AJC1 spinor 4\n" + b"\0" * (8 * G.node_count))
    with pytest.raises(fieldio.FieldFormatError, match="kind"):
        fieldio.deserialize_field(path, G)


def test_twoform_file_is_an_unknown_kind(tmp_path):
    # the kind that held a structure's fundamental form before files held y
    path = tmp_path / "F.field"
    path.write_bytes(b"AJC1 twoform 4\n" + b"\0" * (48 * G.node_count))
    with pytest.raises(fieldio.FieldFormatError,
                       match=rf"^{re.escape(str(path))}: unknown field kind 'twoform'"):
        fieldio.deserialize_field(path, G)


def test_grid_mismatch_rejected(tmp_path):
    field = sd_constant(G, 1.0)
    path = tmp_path / "f.bin"
    fieldio.serialize_field(field, path)
    with pytest.raises(fieldio.FieldFormatError, match="expected n=6"):
        fieldio.deserialize_field(path, expect_grid=tf.GridSpec(6))
