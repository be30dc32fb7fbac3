"""Field-file serialization round trips and failure modes."""

import re

import numpy as np
import pytest

from ajclab import fieldio, hermitian as hm, torusfield as tf

G = tf.GridSpec(4)


def scalar_constant(grid, value):
    return tf.ScalarField(grid, np.full(grid.shape, float(value)))


def _random_field(cls, rng):
    return cls(G, rng.standard_normal(G.shape + cls.NCOMP))


@pytest.mark.parametrize(
    "cls",
    [tf.ScalarField, tf.OneFormField, tf.TwoFormField, tf.ThreeFormField, tf.SelfDualCoordField],
)
def test_round_trip_bit_identical(cls, tmp_path):
    rng = np.random.default_rng(0)
    field = _random_field(cls, rng)
    path = tmp_path / "field.bin"
    fieldio.serialize_field(field, path)
    back = fieldio.deserialize_field(path)
    assert type(back) is cls
    assert back.grid == G
    assert np.array_equal(back.values, field.values)


def test_field_of_no_file_kind_is_not_written(tmp_path):
    J = hm.standard_acs(G).J
    with pytest.raises(fieldio.FieldFormatError, match="AcsField has no field-file kind"):
        fieldio.serialize_field(J, tmp_path / "J.field")
    assert not (tmp_path / "J.field").exists()


def test_header_layout(tmp_path):
    field = scalar_constant(G, 1.5)
    path = tmp_path / "f.bin"
    fieldio.serialize_field(field, path)
    raw = path.read_bytes()
    assert raw.startswith(b"AJC1 scalar 4\n")
    assert len(raw) == len(b"AJC1 scalar 4\n") + 8 * G.node_count


@pytest.mark.parametrize(
    "header",
    [b"AJC1  scalar\t4 ", b"AJC1 scalar 0_4", b"AJC1 scalar +4", b"AJC1 scalar 04"],
    ids=["extra-whitespace", "underscore", "plus-sign", "leading-zero"],
)
def test_header_must_be_exact(header, tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(header + b"\n" + b"\0" * (8 * G.node_count))
    with pytest.raises(fieldio.FieldFormatError,
                       match=rf"^{re.escape(str(path))}: malformed header"):
        fieldio.deserialize_field(path)


def test_component_major_x4_fastest(tmp_path):
    vals = np.zeros(G.shape + (4,))
    vals[0, 0, 0, 1, 2] = 7.0  # component 2, node (0,0,0,1)
    field = tf.OneFormField(G, vals)
    path = tmp_path / "f.bin"
    fieldio.serialize_field(field, path)
    raw = path.read_bytes()
    body = np.frombuffer(raw[raw.find(b"\n") + 1 :], dtype="<f8")
    assert body[2 * G.node_count + 1] == 7.0


def test_truncated_file_rejected(tmp_path):
    field = scalar_constant(G, 1.0)
    path = tmp_path / "f.bin"
    fieldio.serialize_field(field, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(fieldio.FieldFormatError, match="payload"):
        fieldio.deserialize_field(path)


def test_trailing_garbage_rejected(tmp_path):
    field = scalar_constant(G, 1.0)
    path = tmp_path / "f.bin"
    fieldio.serialize_field(field, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(fieldio.FieldFormatError, match="payload"):
        fieldio.deserialize_field(path)


def test_non_finite_value_rejected_with_the_path(tmp_path):
    path = tmp_path / "f.bin"
    fieldio.serialize_field(scalar_constant(G, 1.0), path)
    raw = bytearray(path.read_bytes())
    raw[-8:] = np.array([np.inf], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(fieldio.FieldFormatError, match=rf"^{re.escape(str(path))}: .*non-finite"):
        fieldio.deserialize_field(path)


def test_bad_magic_rejected(tmp_path):
    field = scalar_constant(G, 1.0)
    path = tmp_path / "f.bin"
    fieldio.serialize_field(field, path)
    raw = path.read_bytes()
    path.write_bytes(b"AJC2" + raw[4:])
    with pytest.raises(fieldio.FieldFormatError, match="magic"):
        fieldio.deserialize_field(path)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"AJC1 spinor 4\n" + b"\0" * (8 * G.node_count))
    with pytest.raises(fieldio.FieldFormatError, match="kind"):
        fieldio.deserialize_field(path)


def test_grid_mismatch_rejected(tmp_path):
    field = scalar_constant(G, 1.0)
    path = tmp_path / "f.bin"
    fieldio.serialize_field(field, path)
    with pytest.raises(fieldio.FieldFormatError, match="expected n=6"):
        fieldio.deserialize_field(path, expect_grid=tf.GridSpec(6))
