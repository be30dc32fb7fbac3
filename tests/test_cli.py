"""Command-line flags and config resolution: defaults < --config file < flags."""

import json

import numpy as np
import pytest

from ajclab import cli, cohomlab, fieldio, hermitian as hm, torusfield as tf
from ajclab.config import DEFAULT_BUMP1, DEFAULT_BUMP2, LabConfig
from ajclab.hermitian import BumpSpec

FLAGS = [
    "--help", "--config", "--output", "--grid-n", "--oracle-n", "--tol-null", "--eps-nodal",
    "--seed", "--amplitude", "--bandlimit", "--sweep-count", "--path-steps",
    "--bump1-center", "--bump1-radius", "--bump1-height",
    "--bump2-center", "--bump2-radius", "--bump2-height",
]


def resolve(*argv):
    return cli.resolve_config(cli.build_parser().parse_args(["baseline", *argv]))


def test_flag_names():
    parser = cli.build_parser()
    names = [s for action in parser._actions for s in action.option_strings if s != "-h"]
    assert names == FLAGS


def test_no_flags_give_the_defaults():
    assert resolve() == LabConfig()


def test_flags_override_the_file_which_overrides_the_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid_n": 8, "seed": 5, "tol_null": 1e-6, "output_dir": "file"}))
    cfg = resolve("--config", str(path), "--seed", "9", "--amplitude", "0.2", "--output", "flag")
    assert cfg == LabConfig(grid_n=8, seed=9, tol_null=1e-6, amplitude=0.2, output_dir="flag")
    assert type(cfg.seed) is int and type(cfg.amplitude) is float


def test_file_bump_is_overridden_per_entry_by_flags(tmp_path):
    path = tmp_path / "cfg.json"
    bump = {"center": [0.25] * 4, "radius": 0.2, "height": 0.4}
    path.write_text(json.dumps({"bump2": bump}))
    cfg = resolve("--config", str(path), "--bump2-height", "0.3")
    assert cfg.bump2 == BumpSpec((0.25,) * 4, 0.2, 0.3)
    assert cfg.bump1 == DEFAULT_BUMP1


def test_unknown_config_key_is_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"grid_n": 8, "grid_size": 8}))
    with pytest.raises(ValueError, match=r"unknown config keys: \['grid_size'\]"):
        resolve("--config", str(path))


@pytest.mark.parametrize(
    "data, match",
    [
        ({"grid_n": "8"}, r"config key 'grid_n' must be of type int, got '8'"),
        ({"seed": 1.0}, r"config key 'seed' must be of type int, got 1\.0"),
        ({"sweep_count": True}, r"config key 'sweep_count' must be of type int, got True"),
        ({"amplitude": "0.2"}, r"config key 'amplitude' must be of type float, got '0\.2'"),
        ({"output_dir": 3}, r"config key 'output_dir' must be of type str, got 3"),
        ([], r"config must be a JSON object, got \[\]"),
        (3, r"config must be a JSON object, got 3"),
        ([1, 2], r"config must be a JSON object, got \[1, 2\]"),
        (None, r"config must be a JSON object, got None"),
    ],
    ids=["int-as-string", "int-as-float", "int-as-bool", "float-as-string", "str-as-int",
         "empty-list", "number", "list", "null"],
)
def test_config_value_types_are_checked(tmp_path, data, match):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=match):
        resolve("--config", str(path))


def test_config_int_is_taken_where_a_float_is_expected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"amplitude": 0, "tol_null": 1}))
    cfg = resolve("--config", str(path))
    assert type(cfg.amplitude) is float and (cfg.amplitude, cfg.tol_null) == (0.0, 1.0)


@pytest.mark.parametrize(
    "bump, match",
    [
        ({"center": [0.5] * 4}, r"missing keys \['height', 'radius'\] and unknown keys \[\]"),
        ({"center": [0.5] * 4, "radius": 0.1, "hieght": 0.3},
         r"missing keys \['height'\] and unknown keys \['hieght'\]"),
        ([0.5] * 4, r"bump entry \[0\.5, 0\.5, 0\.5, 0\.5\] is not an object"),
        ({"center": [0.5] * 4, "radius": "x", "height": 0.3},
         r"bump entry \{.*\} has a bad radius 'x': could not convert"),
        ({"center": 0.5, "radius": 0.1, "height": 0.3}, r"bump entry \{.*\} has a bad center 0\.5"),
        ({"center": [0.5] * 3, "radius": 0.1, "height": 0.3},
         r"bump entry \{.*\} has a bad center \[0\.5, 0\.5, 0\.5\]: center needs 4 coordinates, got 3"),
    ],
    ids=["missing", "misspelt", "not-an-object", "radius-not-a-number", "center-not-a-list",
         "center-of-3"],
)
def test_config_bump_entry_keys_are_checked(tmp_path, bump, match):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bump1": bump}))
    with pytest.raises(ValueError, match=match):
        resolve("--config", str(path))


@pytest.mark.parametrize("text, match", [
    (None, "No such file or directory"),
    ("{not json", "Expecting property name enclosed in double quotes"),
    ('{"grid_n": "8"}', "config key 'grid_n' must be of type int, got '8'"),
], ids=["missing", "invalid-json", "rejected-value"])
def test_bad_config_file_is_a_usage_error(tmp_path, capsys, text, match):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as info:
        cli.main(["baseline", "--config", str(path), "--output", str(tmp_path / "out")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"ajclab: error: --config {path}: " in err and match in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_partial_bump_radius_keeps_center_and_height():
    cfg = resolve("--bump1-radius", "0.2")
    assert cfg.bump1 == BumpSpec(DEFAULT_BUMP1.center, 0.2, DEFAULT_BUMP1.height)
    assert cfg.bump2 == DEFAULT_BUMP2


def test_bump_center_needs_four_coordinates(capsys):
    assert resolve("--bump2-center", "0.1,0.2,0.3,0.4").bump2.center == (0.1, 0.2, 0.3, 0.4)
    with pytest.raises(SystemExit):
        resolve("--bump2-center", "0.1,0.2")
    assert "center needs 4 comma-separated coordinates" in capsys.readouterr().err


@pytest.mark.parametrize("argv, match", [
    (["random-sweep", "--sweep-count", "2", "--tol-null", "nan"], "tol_null must lie in (0, 1), got nan"),
    (["random-sweep", "--sweep-count", "2", "--tol-null", "-1"], "tol_null must lie in (0, 1), got -1.0"),
    (["baseline", "--tol-null", "nan"], "tol_null must lie in (0, 1), got nan"),
    (["one-bump", "--eps-nodal", "nan"], "eps must be positive and finite, got nan"),
], ids=["sweep-nan", "sweep-negative", "baseline-nan", "one-bump-eps-nan"])
def test_scenario_with_an_invalid_threshold_fails_naming_it(tmp_path, capsys, argv, match):
    assert cli.main([*argv, "--grid-n", "8", "--output", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL scenario completed" in out and match in out


def test_two_stage_field_files_load_back(tmp_path, capsys):
    assert cli.main(["two-stage", "--output", str(tmp_path)]) == 0
    assert "two-stage: PASS" in capsys.readouterr().out
    report = json.loads((tmp_path / "two-stage.report.json").read_text())
    sidecars = sorted((tmp_path / "fields").glob("*.json"))
    assert [p.name for p in sidecars] == ["two-stage.stage1.json", "two-stage.stage2.json"]
    for sidecar in sidecars:
        stem = sidecar.name.split(".")[1]
        triple = hm.load_triple(sidecar)
        gram = cohomlab.gram_matrix(triple, tol_null=LabConfig().tol_null)
        assert gram.h_minus == report["h_values"][stem]
        if stem == "stage2":
            assert np.array_equal(gram.matrix, report["summaries"]["stage2_gram"]["matrix"])
        meta = json.loads(sidecar.read_text())
        assert meta["format"] == 3
        assert meta["files"] == {"y": f"two-stage.{stem}.y.field"}
        fieldio.serialize_field(tf.SelfDualCoordField(triple.grid, triple.y), tmp_path / "generic.y")
        written = sidecar.with_name(f"two-stage.{stem}.y.field").read_bytes()
        assert written == (tmp_path / "generic.y").read_bytes()
    assert sorted(p.name for p in (tmp_path / "fields").iterdir()) == [
        f"two-stage.{stem}.{suffix}" for stem in ("stage1", "stage2") for suffix in ("json", "y.field")
    ]
