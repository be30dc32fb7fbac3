"""The oracle scenario: the elliptic route against Gram, end to end."""

import json

from ajclab import cli, scenarios
from ajclab.config import LabConfig
from ajclab.reporting import ScenarioReport

STAGE2_CHECK = "stage2: elliptic kernel dimension equals Gram h_minus"


def test_skipped_check_does_not_fail_a_report():
    report = ScenarioReport("x", {})
    report.check("ran", True)
    report.skip("not run", "why")
    assert report.passed
    assert report.to_dict()["checks"][1] == {
        "name": "not run", "passed": False, "tolerance": None, "measured": None,
        "detail": "why", "skipped": True,
    }
    report.check("failed", False)
    assert not report.passed


def test_default_config_agrees_and_records_the_stage2_refusal():
    report = scenarios.scenario_oracle(LabConfig())
    assert report.passed
    assert report.h_values == {"standard": 2, "stage1": 1, "random": 0}
    skipped = [c for c in report.checks if c.skipped]
    assert [c.name for c in skipped] == [STAGE2_CHECK]
    assert "stage-2 bump support volume" in skipped[0].detail
    assert "not below the delta estimate" in skipped[0].detail
    assert sum(not c.skipped for c in report.checks) == 3
    for label, elliptic in report.summaries["elliptic"].items():
        assert elliptic["grid_n"] == 6
        assert elliptic["kernel_dim"] == report.h_values[label]
        assert len(elliptic["smallest_singular_values"]) == 8


def test_cli_runs_stage2_where_the_construction_admits_it(tmp_path, capsys):
    # at n = 4 the default second bump covers no node, so stage 2 is built
    assert "oracle" in cli._SCENARIO_ORDER
    status = cli.main(["oracle", "--output", str(tmp_path), "--oracle-n", "4", "--bandlimit", "1"])
    assert status == 0
    assert "oracle: PASS (4/4 checks" in capsys.readouterr().out
    data = json.loads((tmp_path / "oracle.report.json").read_text())
    assert data["passed"]
    assert data["h_values"] == {"standard": 2, "stage1": 1, "random": 0, "stage2": 1}
    assert STAGE2_CHECK in [c["name"] for c in data["checks"] if not c["skipped"]]
