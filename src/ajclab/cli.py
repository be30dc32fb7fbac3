"""Command-line experiment runner.

Usage: ``ajclab <scenario> [flags]`` with scenario one of baseline,
one-bump, two-stage, oracle, random-sweep, path, resolution, battery, or
all.
Values are resolved as defaults < --config JSON file < explicit flags; a
config file that cannot be read or is rejected, and an output directory
that cannot be created, are usage errors (exit 2).
The numeric flags ``--grid-n`` ... ``--path-steps`` mirror the int and
float fields of :class:`~ajclab.config.LabConfig`, in field order.
Every run writes ``<scenario>.report.json`` under the output directory
(reports are written even when checks fail); random-sweep also writes
``sweep.csv`` and the bump scenarios dump their structure fields.
Exit status is 0 exactly when every executed check passed.
"""

from __future__ import annotations

import argparse
import csv
import sys
import traceback
from dataclasses import fields, replace
from pathlib import Path

from .config import LabConfig
from .hermitian import save_triple
from .reporting import ScenarioReport
from .scenarios import SCENARIOS

_SCENARIO_ORDER = list(SCENARIOS)
#: the LabConfig fields that each get a flag of their own type
_NUMERIC_FIELDS = [f for f in fields(LabConfig) if type(f.default) in (int, float)]


def _parse_center(text: str) -> tuple[float, float, float, float]:
    try:
        x1, x2, x3, x4 = (float(p) for p in text.split(","))
    except ValueError:  # a part that is not a number, or not 4 parts
        raise argparse.ArgumentTypeError(f"center needs 4 comma-separated coordinates, got {text!r}")
    return x1, x2, x3, x4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ajclab",
        description="Experiment runner for anti-invariant cohomology on the flat 4-torus",
    )
    parser.add_argument("scenario", choices=_SCENARIO_ORDER + ["all"])
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--output", type=Path, help="output directory (overrides config)")
    for f in _NUMERIC_FIELDS:
        parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), dest=f.name)
    for tag in ("bump1", "bump2"):
        parser.add_argument(f"--{tag}-center", type=_parse_center, dest=f"{tag}_center")
        parser.add_argument(f"--{tag}-radius", type=float, dest=f"{tag}_radius")
        parser.add_argument(f"--{tag}-height", type=float, dest=f"{tag}_height")
    return parser


def resolve_config(args: argparse.Namespace) -> LabConfig:
    cfg = LabConfig.from_file(args.config) if args.config else LabConfig()
    cfg = cfg.override(
        **{f.name: getattr(args, f.name) for f in _NUMERIC_FIELDS},
        output_dir=str(args.output) if args.output else None,
    )
    for tag in ("bump1", "bump2"):
        given = {key: getattr(args, f"{tag}_{key}") for key in ("center", "radius", "height")}
        bump = replace(getattr(cfg, tag), **{k: v for k, v in given.items() if v is not None})
        cfg = cfg.override(**{tag: bump})
    return cfg


def _write_sweep_csv(rows: list[dict], path: Path) -> None:
    columns = ["seed", "amplitude", "bandlimit", "h_minus", "lambda_min", "runtime_ms"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c] for c in columns])


def run_scenario(name: str, cfg: LabConfig, out_dir: Path) -> ScenarioReport:
    """Run scenario ``name`` into a new report and write what it records: the
    report, random-sweep's rows and the bump scenarios' structure fields.  A
    scenario that raises keeps what it recorded before, and the report adds
    the failed check "scenario completed" with the exception."""
    report = ScenarioReport(name, cfg.to_dict())
    try:
        SCENARIOS[name](report, cfg)
    except Exception as exc:  # precondition violations still produce a report
        report.check("scenario completed", False, detail=f"{type(exc).__name__}: {exc}")
        report.summaries["traceback"] = traceback.format_exc().splitlines()[-3:]
    report.save(out_dir / f"{name}.report.json")
    rows = report.artifacts.get("rows")
    if rows is not None:
        _write_sweep_csv(rows, out_dir / "sweep.csv")
    triples = report.artifacts.get("triples", {})
    for stem, (triple, log) in triples.items():
        save_triple(triple, out_dir / "fields", f"{name}.{stem}", params=cfg.to_dict(), log=log)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (OSError, ValueError) as exc:  # a missing, unparsable or rejected --config file
        parser.error(f"--config {args.config}: {exc}")
    out_dir = Path(cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a path that is a file, not writable, or has a NUL
        parser.error(f"output directory {str(out_dir)!r}: {exc}")
    names = _SCENARIO_ORDER if args.scenario == "all" else [args.scenario]
    all_passed = True
    for name in names:
        report = run_scenario(name, cfg, out_dir)
        status = "PASS" if report.passed else "FAIL"
        n_ok = sum(c.passed for c in report.checks)
        n_run = sum(not c.skipped for c in report.checks)
        n_skip = len(report.checks) - n_run
        total_ms = sum(report.timings_ms.values())
        skipped = f", {n_skip} skipped" if n_skip else ""
        print(f"{name}: {status} ({n_ok}/{n_run} checks{skipped}, {total_ms:.0f} ms)")
        for check in report.checks:
            if check.skipped:
                print(f"  SKIP {check.name}: {check.detail}")
            elif not check.passed:
                print(f"  FAIL {check.name}: measured={check.measured} "
                      f"tol={check.tolerance} {check.detail}")
        all_passed = all_passed and report.passed
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
