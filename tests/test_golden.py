"""The design gate: Gram matrices and h-values stay those recorded in
tests/data/golden_gram.json.

Regenerate the file (only when a change is meant to alter these numbers):

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from ajclab import cohomlab, hermitian as hm, scenarios, torusfield as tf
from ajclab.config import LabConfig

GOLDEN = Path(__file__).with_name("data") / "golden_gram.json"
GRAM_TOL = 1e-12

#: the bumps of the two-stage tests in test_hermitian
BUMP1 = hm.BumpSpec((0.5, 0.5, 0.5, 0.5), 0.3, 0.5)
BUMP2 = hm.BumpSpec((0.25, 0.25, 0.25, 0.25), 0.25, 0.5)
RANDOM_SEEDS = (1, 2, 3, 4, 5)


def structures():
    """(key, triple) pairs whose Gram matrices are pinned."""
    cfg = LabConfig()
    g8 = tf.GridSpec(8)
    base = hm.standard_acs(g8)
    stage1, stage2, _ = hm.two_stage_deform(base, BUMP1, BUMP2)
    yield "n8/standard", base
    yield "n8/stage1", stage1
    yield "n8/stage2", stage2
    for n in (8, 16):
        for seed in RANDOM_SEEDS:
            triple = hm.random_compatible_acs(tf.GridSpec(n), seed, cfg.amplitude, cfg.bandlimit)
            yield f"n{n}/random/{seed}", triple


def path_h_values() -> dict:
    return scenarios.scenario_path(LabConfig(grid_n=8)).h_values


def record() -> dict:
    grams = {}
    for key, triple in structures():
        report = cohomlab.gram_matrix(triple)
        grams[key] = {"matrix": report.matrix.tolist(), "h_minus": report.h_minus}
    return {"gram": grams, "path_n8": path_h_values()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_gram_matrices_and_h_values(golden):
    keys = []
    for key, triple in structures():
        keys.append(key)
        report = cohomlab.gram_matrix(triple)
        expected = golden["gram"][key]
        dev = float(np.max(np.abs(report.matrix - np.asarray(expected["matrix"]))))
        assert dev <= GRAM_TOL, f"{key}: Gram matrix deviates by {dev:.3e}"
        assert report.h_minus == expected["h_minus"], key
    assert sorted(keys) == sorted(golden["gram"])


def test_path_h_sequence(golden):
    assert path_h_values() == golden["path_n8"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
