"""Scenarios end to end: the oracle route against Gram, and every fast
scenario and pointwise battery at the default config."""

import json

import numpy as np
import pytest

from scenario_reports import scenario_report
from ajclab import battery, cli, cohomlab, hermitian as hm
from ajclab.config import LabConfig
from ajclab.reporting import Check, ScenarioReport

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


def test_within_passes_at_its_tolerance_and_measures_max_abs():
    check = Check.within("at the bound", np.array([1e-10, -1e-9]), 1e-9)
    assert check == Check("at the bound", True, 1e-9, 1e-9)
    check = Check.within("negative", np.array([[-3e-9, 2e-9]]), 1e-9)
    assert check == Check("negative", False, 1e-9, 3e-9)
    assert type(check.passed) is bool and type(check.measured) is float
    report = ScenarioReport("x", {})
    report.within("scalar", -2.0, 2.0)
    assert report.checks == [Check("scalar", True, 2.0, 2.0)]


def test_default_config_decides_every_structure_at_the_gram_grid():
    report = scenario_report("oracle", LabConfig())
    assert report.passed
    assert report.h_values == {"standard": 2, "stage1": 1, "random": 0, "stage2": 0}
    assert [c.skipped for c in report.checks] == [False] * 4
    assert STAGE2_CHECK in [c.name for c in report.checks]
    for label, elliptic in report.summaries["elliptic"].items():
        assert elliptic["grid_n"] == LabConfig().grid_n == 16
        assert elliptic["kernel_dim"] == report.h_values[label]
        assert len(elliptic["lower_bounds"]) == 8
        # the count is decided on both sides of the threshold
        t = elliptic["threshold"]
        at_most = sum(b <= t for b in elliptic["lower_bounds"])
        assert at_most == sum(r <= t for r in elliptic["ritz_values"]) == elliptic["kernel_dim"]


def test_grid_6_agrees_and_records_the_stage2_refusal(monkeypatch):
    calls = []
    one_bump_deform = hm.one_bump_deform

    def counted(*args, **kwargs):
        calls.append(args)
        return one_bump_deform(*args, **kwargs)

    monkeypatch.setattr(hm, "one_bump_deform", counted)
    report = scenario_report("oracle", LabConfig(grid_n=6))
    assert len(calls) == 1  # stage 2 is built on the one stage-1 structure
    assert report.passed
    assert report.h_values == {"standard": 2, "stage1": 1, "random": 0}
    skipped = [c for c in report.checks if c.skipped]
    assert [c.name for c in skipped] == [STAGE2_CHECK]
    # the refusal is the construction's lattice tie at n = 6, not the oracle's
    assert "stage 2 refused at n=6: stage-2 bump support volume 0.000772" in skipped[0].detail
    assert "not below the delta estimate 0.000772" in skipped[0].detail
    assert sum(not c.skipped for c in report.checks) == 3
    for label, elliptic in report.summaries["elliptic"].items():
        assert elliptic["grid_n"] == 6
        assert elliptic["kernel_dim"] == report.h_values[label]


def test_cli_runs_stage2_where_the_construction_admits_it(tmp_path, capsys):
    # at n = 4 the default second bump covers no node, so stage 2 is built;
    # the random structure's bandlimit must lie below n/2 = 2
    assert "oracle" in cli._SCENARIO_ORDER
    status = cli.main(["oracle", "--output", str(tmp_path), "--grid-n", "4", "--bandlimit", "1"])
    assert status == 0
    assert "oracle: PASS (4/4 checks" in capsys.readouterr().out
    data = json.loads((tmp_path / "oracle.report.json").read_text())
    assert data["passed"]
    assert data["h_values"] == {"standard": 2, "stage1": 1, "random": 0, "stage2": 1}
    assert STAGE2_CHECK in [c["name"] for c in data["checks"] if not c["skipped"]]


@pytest.mark.parametrize(
    "name, grid_n, calls",
    [("one-bump", 16, 2), ("two-stage", 16, 3), ("oracle", 6, 3), ("oracle", 4, 4),
     ("oracle", 16, 4), ("resolution", 16, 12)],
    ids=["one-bump", "two-stage", "oracle-n6", "oracle-n4", "oracle-n16", "resolution"],
)
def test_gram_matrix_once_per_structure(monkeypatch, name, grid_n, calls):
    # the scenarios take the Gram reports the cut-off stages return; only a
    # structure no stage decides (oracle's random one) gets a call of its own.
    # Bandlimit 1 lies below the Nyquist band of every grid here.
    triples = []
    gram_matrix = cohomlab.gram_matrix

    def counted(triple, **kwargs):
        triples.append(triple)
        return gram_matrix(triple, **kwargs)

    monkeypatch.setattr(cohomlab, "gram_matrix", counted)
    report = scenario_report(name, LabConfig(grid_n=grid_n, bandlimit=1))
    assert report.passed
    assert len(triples) == calls
    assert len({id(t) for t in triples}) == calls


STAGE1_CHECKS = [
    "stage-1 kernel dimension at most 1",
    "stage-1 kernel contained in the standard kernel",
    "kernel intersection dimension at most 1",
]
STAGE1_LOG_KEYS = [
    "stage", "bump", "delta_estimate", "support_volume", "sup_norm", "null_direction",
    "h_before", "h_after", "runtime_ms",
]
STAGE2_LOG_KEYS = [
    "stage", "bump", "delta_estimate", "support_volume", "sup_norm", "null_direction",
    "wedge_square_residual", "route_disagreement", "h_before", "h_after", "runtime_ms",
]
DEFAULT_RUNS = {
    "baseline": (
        [
            "h_minus equals 2",
            "Gram matrix is diag(4, 0, 0)",
            "kernel forms are anti-invariant",
            "structure action rotates omega2 to omega3",
            "structure action squares to -Id on the kernel",
        ],
        {"standard": 2},
        None,
    ),
    "one-bump": (STAGE1_CHECKS, {"standard": 2, "stage1": 1}, [STAGE1_LOG_KEYS]),
    "two-stage": (
        STAGE1_CHECKS + [
            "stage-2 kernel is trivial",
            "smallest Gram eigenvalue clears 10x the null tolerance",
            "renormalized form has wedge square 2 at every node",
            "normalization route matches the rational deformation route",
        ],
        {"standard": 2, "stage1": 1, "stage2": 0},
        [STAGE1_LOG_KEYS, STAGE2_LOG_KEYS],
    ),
    "path": (
        ["kernel dimension starts at 2", "kernel dimension never exceeds its start value"],
        {f"t_{t:.2f}": 2 if t == 0 else 1 for t in np.linspace(0.0, 0.95, 20)},
        None,
    ),
    "random-sweep": (
        ["every seed has a trivial kernel"],
        {f"seed_{s}": 0 for s in range(1, 51)},
        None,
    ),
}


@pytest.mark.parametrize("name", list(DEFAULT_RUNS))
def test_default_config_scenarios(name):
    checks, h_values, log_keys = DEFAULT_RUNS[name]
    report = scenario_report(name, LabConfig())
    assert report.passed
    assert [c.name for c in report.checks] == checks
    assert report.h_values == h_values
    logged = report.summaries.get("deform_log")
    assert (None if logged is None else [list(r) for r in logged]) == log_keys


def test_a_scenario_that_raises_keeps_what_it_recorded(tmp_path, capsys):
    # at n = 6 stage 2's delta gate refuses at a lattice tie, after stage 1
    assert cli.main(["two-stage", "--grid-n", "6", "--output", str(tmp_path)]) == 1
    assert "two-stage: FAIL (3/4 checks" in capsys.readouterr().out
    report = json.loads((tmp_path / "two-stage.report.json").read_text())
    checks = [(c["name"], c["passed"]) for c in report["checks"]]
    assert checks == [(name, True) for name in STAGE1_CHECKS] + [("scenario completed", False)]
    assert "is not below the delta estimate" in report["checks"][-1]["detail"]
    assert report["h_values"] == {"standard": 2, "stage1": 1}
    # stage 2's timing runs up to the refusal
    assert list(report["timings_ms"]) == ["build", "stage1", "stage2"]
    assert not (tmp_path / "fields").exists()


@pytest.mark.parametrize(
    "run, seed", [(battery.run_deformation_battery, 1), (battery.run_splitting_battery, 2)],
    ids=["run_deformation_battery", "run_splitting_battery"],
)
def test_pointwise_batteries_pass_at_default_size(run, seed):
    checks = run(seed)
    assert checks and all(c.passed for c in checks), [c.name for c in checks if not c.passed]
