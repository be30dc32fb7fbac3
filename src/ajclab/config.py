"""Experiment configuration: documented defaults, JSON files, overrides.

A value in a config file, at the top level or in a bump entry, must be a
JSON value of its field's type: an int may stand for a float when a float
can hold it, and no string or boolean for a number."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .hermitian import BumpSpec
from .reporting import to_json

DEFAULT_BUMP1 = BumpSpec((0.5, 0.5, 0.5, 0.5), 0.15, 0.5)
DEFAULT_BUMP2 = BumpSpec((1 / 3, 1 / 3, 1 / 3, 1 / 3), 0.12, 0.5)


def _typed(what: str, value, kind: type):
    """``value`` if it is a JSON value of type ``kind``, an int standing for a
    float and a bump entry for a bump; otherwise ValueError naming ``what``."""
    if kind is BumpSpec:
        return _bump(value)
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{what} must be of type float, got an int past its range") from None
    if type(value) is not kind:
        raise ValueError(f"{what} must be of type {kind.__name__}, got {value!r}")
    return value


def _bump(entry) -> BumpSpec:
    """The bump of a config entry, an object with exactly its three keys."""
    keys = {f.name for f in fields(BumpSpec)}
    if not isinstance(entry, dict):
        raise ValueError(f"bump entry {entry!r} is not an object with keys {sorted(keys)}")
    if set(entry) != keys:
        raise ValueError(f"bump entry has missing keys {sorted(keys - set(entry))} "
                         f"and unknown keys {sorted(set(entry) - keys)}")
    bad = {k: f"bump entry {entry!r} has a bad {k} {v!r}: {k}" for k, v in entry.items()}
    center = tuple(_typed(bad["center"] + " coordinate", x, float)
                   for x in _typed(bad["center"], entry["center"], list))
    if len(center) != 4:
        raise ValueError(f"{bad['center']} needs 4 coordinates, got {len(center)}")
    return BumpSpec(center, *(_typed(bad[k], entry[k], float) for k in ("radius", "height")))


@dataclass(frozen=True)
class LabConfig:
    """One record drives every scenario; file values override the defaults
    below and command-line flags override the file."""

    grid_n: int = 16
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
        """The config of a JSON object, each value checked as the module says;
        an unknown key or a rejected value raises ValueError naming it."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {data!r}")
        defaults = {f.name: f.default for f in fields(LabConfig)}
        unknown = set(data) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return LabConfig(**{key: _typed(f"config key {key!r}", value, type(defaults[key]))
                            for key, value in data.items()})

    @staticmethod
    def from_file(path) -> "LabConfig":
        return LabConfig.from_dict(json.loads(Path(path).read_text()))

    def override(self, **kwargs) -> "LabConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs)
