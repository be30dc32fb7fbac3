"""Experiment configuration: documented defaults, JSON files, overrides."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .hermitian import BumpSpec
from .reporting import to_json

DEFAULT_BUMP1 = BumpSpec((0.5, 0.5, 0.5, 0.5), 0.15, 0.5)
DEFAULT_BUMP2 = BumpSpec((1 / 3, 1 / 3, 1 / 3, 1 / 3), 0.12, 0.5)


@dataclass(frozen=True)
class LabConfig:
    """One record drives every scenario; file values override the defaults
    below and command-line flags override the file."""

    grid_n: int = 16
    oracle_n: int = 6
    tol_null: float = 1e-7
    eps_nodal: float = 1e-6
    bump1: BumpSpec = DEFAULT_BUMP1
    bump2: BumpSpec = DEFAULT_BUMP2
    seed: int = 1
    amplitude: float = 0.3
    bandlimit: int = 2
    sweep_count: int = 50
    path_steps: int = 20
    output_dir: str = "out"

    def to_dict(self) -> dict:
        return to_json(self)

    @staticmethod
    def from_dict(data: dict) -> "LabConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {data!r}")
        defaults = {f.name: f.default for f in fields(LabConfig)}
        unknown = set(data) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for key, value in data.items():
            kind = type(defaults[key])
            if kind is BumpSpec:
                value = BumpSpec.from_dict(value)
            elif kind is float and type(value) is int:
                value = float(value)
            elif type(value) is not kind:
                raise ValueError(f"config key {key!r} must be of type {kind.__name__}, got {value!r}")
            kwargs[key] = value
        return LabConfig(**kwargs)

    @staticmethod
    def from_file(path) -> "LabConfig":
        return LabConfig.from_dict(json.loads(Path(path).read_text()))

    def override(self, **kwargs) -> "LabConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs)
