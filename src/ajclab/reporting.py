"""Check and report records shared by the scenario runner and the batteries."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np


def to_json(record):
    """The JSON form of a report record: a dataclass as its fields in
    declaration order, an array or numpy scalar through ``tolist()``, a
    tuple as a list; any other value as it is."""
    if is_dataclass(record):
        return {f.name: to_json(getattr(record, f.name)) for f in fields(record)}
    if isinstance(record, (np.ndarray, np.generic)):
        return record.tolist()
    if isinstance(record, tuple):
        return [to_json(v) for v in record]
    return record


@dataclass
class Check:
    """One asserted quantity: what was required, what was measured.  A
    skipped check was not run; its detail says why."""

    name: str
    passed: bool
    tolerance: float | None = None
    measured: float | None = None
    detail: str = ""
    skipped: bool = False

    @staticmethod
    def within(name: str, residual, tolerance: float) -> "Check":
        """The check max|residual| <= tolerance, measuring max|residual|."""
        measured = float(np.max(np.abs(residual)))
        return Check(name, measured <= tolerance, tolerance, measured)


@dataclass
class ScenarioReport:
    """Serialized record of one experiment run."""

    scenario: str
    config: dict
    h_values: dict = field(default_factory=dict)
    summaries: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)
    timings_ms: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)  # in-memory only, not serialized

    @property
    def passed(self) -> bool:
        return all(c.passed or c.skipped for c in self.checks)

    def check(self, name: str, passed: bool, tolerance: float | None = None,
              measured: float | None = None, detail: str = "") -> None:
        self.checks.append(Check(name, bool(passed), tolerance, measured, detail))

    def within(self, name: str, residual, tolerance: float) -> None:
        self.checks.append(Check.within(name, residual, tolerance))

    def skip(self, name: str, detail: str) -> None:
        self.checks.append(Check(name, False, detail=detail, skipped=True))

    @contextmanager
    def timed(self, key: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timings_ms[key] = 1000.0 * (time.perf_counter() - t0)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "config": self.config,
            "h_values": self.h_values,
            "summaries": self.summaries,
            "checks": [to_json(c) for c in self.checks],
            "timings_ms": self.timings_ms,
        }

    def save(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path
