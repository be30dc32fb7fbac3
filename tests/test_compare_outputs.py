import importlib.util
import json
from pathlib import Path

import pytest

from ajclab import cli

_spec = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).parent.parent / "tools" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def write_outputs(root: Path, runtime: float, **changes) -> Path:
    """A small output directory in the shape ``ajclab all`` writes."""
    report = {
        "scenario": "two-stage",
        "output_dir": str(root),
        "h_values": {"stage1": 1, "stage2": 0},
        "deform_log": [{"stage": "cutoff-1", "runtime_ms": runtime, "h_after": 1}],
        "timings_ms": {"total": runtime},
    }
    report.update(changes.get("report", {}))
    (root / "fields").mkdir(parents=True)
    (root / "two-stage.report.json").write_text(json.dumps(report))
    (root / "fields" / "s.F.field").write_bytes(changes.get("field", b"AJC1 twoform 4\n\x00"))
    rows = changes.get("rows", [["1", "0", "0.05"], ["2", "0", "0.06"]])
    lines = ["seed,h_minus,lambda_min,runtime_ms"]
    lines += [",".join(row + [str(runtime)]) for row in rows]
    (root / "sweep.csv").write_text("\n".join(lines) + "\n")
    return root


def test_equal_apart_from_timings(tmp_path, capsys):
    a = write_outputs(tmp_path / "a", 12.5)
    b = write_outputs(tmp_path / "b", 99.0)
    assert compare_outputs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "changes, expected",
    [
        ({"report": {"h_values": {"stage1": 1, "stage2": 1}}},
         "two-stage.report.json: $.h_values.stage2: 0 != 1"),
        ({"report": {"h_values": {"stage2": 0, "stage1": 1}}},
         "two-stage.report.json: $.h_values: key order differs"),
        ({"report": {"deform_log": [{"stage": "cutoff-1", "h_after": 1.0}]}},
         "two-stage.report.json: $.deform_log[0].h_after: 1 != 1.0"),
        ({"field": b"AJC1 twoform 4\n\x01"}, "fields/s.F.field: bytes differ"),
        ({"rows": [["1", "0", "0.05"], ["2", "0", "0.07"]]},
         "sweep.csv: row 2: ['2', '0', '0.06'] != ['2', '0', '0.07']"),
    ],
    ids=["value", "key-order", "int-against-float", "field-bytes", "csv-row"],
)
def test_reports_each_difference(tmp_path, changes, expected):
    a = write_outputs(tmp_path / "a", 12.5)
    b = write_outputs(tmp_path / "b", 99.0, **changes)
    assert compare_outputs.compare_dirs(a, b) == [expected]
    assert compare_outputs.main([str(a), str(b)]) == 1


def test_lists_files_on_one_side_only(tmp_path):
    a = write_outputs(tmp_path / "a", 12.5)
    b = write_outputs(tmp_path / "b", 12.5)
    (a / "fields" / "s.J.field").write_bytes(b"")
    (b / "extra.json").write_text("{}")
    assert compare_outputs.compare_dirs(a, b) == [
        "only in A: fields/s.J.field", "only in B: extra.json"
    ]


def test_two_cli_runs_write_the_same_outputs(tmp_path, capsys):
    # the two-stage run writes its structures through save_triple
    runs = (["two-stage", "--grid-n", "8"],
            ["random-sweep", "--grid-n", "8", "--sweep-count", "3"])
    for side in ("a", "b"):
        for argv in runs:
            assert cli.main([*argv, "--output", str(tmp_path / side)]) == 0
    assert len(list((tmp_path / "a" / "fields").glob("*.y.field"))) == 2
    assert compare_outputs.compare_dirs(tmp_path / "a", tmp_path / "b") == []
