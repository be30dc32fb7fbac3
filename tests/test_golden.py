"""The design gate: Gram matrices, h-values, the elliptic oracle's counts
with its dense reference's spectrum summaries, and the cut-off stages' log
values stay those recorded in tests/data/golden_gram.json.

Regenerate the file (only when a change is meant to alter these numbers):

    PYTHONPATH=src python tests/test_golden.py

This keeps every pinned entry that its test still passes and writes only the
new entries and those that fail, so rounding drift within a tolerance does
not re-pin values that did not change.
"""

import hashlib
import json
import operator
from pathlib import Path

import numpy as np
import pytest

import elliptic_reference as reference
from scenario_reports import scenario_report
from ajclab import cohomlab, hermitian as hm, torusfield as tf
from ajclab.config import LabConfig

GOLDEN = Path(__file__).with_name("data") / "golden_gram.json"
GRAM_TOL = 1e-12
#: the dense reference's singular values are pinned to this fraction of the
#: largest one, absolute: kernel eigenvalues are rounding noise (1e-28 to
#: 1e-13) far below the oracle's threshold tau * lambda_gap (1.97e-5)
ORACLE_TOL = 1e-10

#: the bumps of the two-stage tests in test_hermitian
BUMP1 = hm.BumpSpec((0.5, 0.5, 0.5, 0.5), 0.3, 0.5)
BUMP2 = hm.BumpSpec((0.25, 0.25, 0.25, 0.25), 0.25, 0.5)
RANDOM_SEEDS = (1, 2, 3, 4, 5)
#: the deform-log values of each stage pinned exactly; a stage pins those it logs
LOG_KEYS = ("delta_estimate", "support_volume", "sup_norm", "route_disagreement",
            "wedge_square_residual")
#: SHA-256 of stage 1's and stage 2's y of each construction, over y's
#: node-major bytes, ``np.ascontiguousarray(y).tobytes()``
STAGE_Y_SHA256 = {
    "n8/golden": ("ec1d72ae1b5bcb7efa6b8c53cbe5106a973544020558a673a1786d75798dfa5f",
                  "da0776e3a7c8da574bd5f347501d5b36010d955c7b26f66668b723d927804f28"),
    "n16/default": ("c205a1a6476a40ec52a6a9691b24146fe2423120fc0cc0e77e39902d7c95be3d",
                    "f6fc4c256ddb9512fc9b521a97a8251f428d48799d034412b9c042097f324ad5"),
}


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


def oracle_structures():
    """(key, triple) pairs at n = 6 whose oracle spectra are pinned: the
    structures of the oracle tests in test_cohomlab."""
    g6 = tf.GridSpec(6)
    base = hm.standard_acs(g6)
    yield "standard", base
    yield "stage1", hm.one_bump_deform(base, BUMP1)[0]
    yield "random/2", hm.random_compatible_acs(g6, seed=2, amplitude=0.3, bandlimit=2)


def oracle_summary(triple) -> dict:
    """The oracle's certified count, and the smallest and largest singular
    values of the dense reference matrix (:mod:`elliptic_reference`) in the
    oracle's frame."""
    singular = reference.spectrum(triple)
    return {
        "kernel_dim": cohomlab.elliptic_kernel_dim(triple, triple.grid).kernel_dim,
        "smallest_singular_values": singular[:8].tolist(),
        "largest_singular_value": float(singular[-1]),
    }


def constructions():
    """(key, stage-1 bump, stage-2 bump, grid) of the two-stage constructions
    whose log values are pinned: the golden one at n = 8 and the default
    config's at n = 16."""
    cfg = LabConfig()
    yield "n8/golden", BUMP1, BUMP2, tf.GridSpec(8)
    yield "n16/default", cfg.bump1, cfg.bump2, tf.GridSpec(cfg.grid_n)


def log_values(bump1, bump2, grid) -> list[dict]:
    cfg = LabConfig()
    _, _, log = hm.two_stage_deform(hm.standard_acs(grid), bump1, bump2, cfg.tol_null, cfg.eps_nodal)
    return [{k: record[k] for k in LOG_KEYS if k in record} for record in log.to_list()]


def path_h_values() -> dict:
    return scenario_report("path", LabConfig(grid_n=8)).h_values


def gram_entry(triple) -> dict:
    report = cohomlab.gram_matrix(triple)
    return {"matrix": report.matrix.tolist(), "h_minus": report.h_minus}


def gram_deviation(got: dict, pinned: dict) -> float:
    return float(np.max(np.abs(np.asarray(got["matrix"]) - np.asarray(pinned["matrix"]))))


def oracle_deviation(got: dict, pinned: dict) -> float:
    """The largest deviation of the singular values, s_max included."""
    values = np.append(got["smallest_singular_values"], got["largest_singular_value"])
    expected = np.append(pinned["smallest_singular_values"], pinned["largest_singular_value"])
    return float(np.max(np.abs(values - expected)))


#: per section, whether a recomputed entry passes the test of its pinned one
PASSES = {
    "gram": lambda got, pinned: (got["h_minus"] == pinned["h_minus"]
                                 and gram_deviation(got, pinned) <= GRAM_TOL),
    "path_n8": operator.eq,
    "oracle_n6": lambda got, pinned: (got["kernel_dim"] == pinned["kernel_dim"]
                                      and oracle_deviation(got, pinned)
                                      <= ORACLE_TOL * pinned["largest_singular_value"]),
    "deform_logs": operator.eq,
}


def record() -> dict:
    grams = {key: gram_entry(triple) for key, triple in structures()}
    oracle = {key: oracle_summary(triple) for key, triple in oracle_structures()}
    logs = {key: log_values(*spec) for key, *spec in constructions()}
    return {"gram": grams, "path_n8": path_h_values(), "oracle_n6": oracle, "deform_logs": logs}


def merged(pinned: dict, fresh: dict) -> tuple[dict, list[str]]:
    """The sections of ``fresh``, with each entry that passes the test of its
    pinned entry in ``pinned`` replaced by that pinned entry, and the
    section/key names of the entries taken from ``fresh``.  Entries that
    ``fresh`` no longer has are dropped."""
    out, written = {}, []
    for section, entries in fresh.items():
        old = pinned.get(section, {})
        out[section] = {}
        for key, value in entries.items():
            if key in old and PASSES[section](value, old[key]):
                out[section][key] = old[key]
            else:
                out[section][key] = value
                written.append(f"{section}/{key}")
    return out, written


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_gram_matrices_and_h_values(golden):
    keys = []
    for key, triple in structures():
        keys.append(key)
        got, expected = gram_entry(triple), golden["gram"][key]
        dev = gram_deviation(got, expected)
        assert dev <= GRAM_TOL, f"{key}: Gram matrix deviates by {dev:.3e}"
        assert got["h_minus"] == expected["h_minus"], key
    assert sorted(keys) == sorted(golden["gram"])


def test_path_h_sequence(golden):
    assert path_h_values() == golden["path_n8"]


def test_oracle_spectra(golden):
    keys = []
    for key, triple in oracle_structures():
        keys.append(key)
        got, expected = oracle_summary(triple), golden["oracle_n6"][key]
        assert got["kernel_dim"] == expected["kernel_dim"], key
        s_max = expected["largest_singular_value"]
        dev = oracle_deviation(got, expected)
        assert dev <= ORACLE_TOL * s_max, f"{key}: singular values deviate by {dev:.3e}"
    assert sorted(keys) == sorted(golden["oracle_n6"])


@pytest.mark.parametrize("key", [spec[0] for spec in constructions()])
def test_deform_log_values(golden, key):
    _, bump1, bump2, grid = next(spec for spec in constructions() if spec[0] == key)
    assert log_values(bump1, bump2, grid) == golden["deform_logs"][key]


@pytest.mark.parametrize("key", list(STAGE_Y_SHA256))
def test_stage_structures_keep_their_bytes(key):
    # every bit of y, which the Gram and log pins see only through sums
    _, bump1, bump2, grid = next(spec for spec in constructions() if spec[0] == key)
    cfg = LabConfig()
    stages = hm.two_stage_deform(hm.standard_acs(grid), bump1, bump2, cfg.tol_null, cfg.eps_nodal)[:2]
    digests = tuple(hashlib.sha256(np.ascontiguousarray(t.y).tobytes()).hexdigest() for t in stages)
    assert digests == STAGE_Y_SHA256[key]


def test_regeneration_keeps_passing_pins():
    pinned = {"gram": {"a": {"matrix": [[1.0]], "h_minus": 0},
                       "b": {"matrix": [[1.0]], "h_minus": 0},
                       "gone": {"matrix": [[1.0]], "h_minus": 0}},
              "deform_logs": {"c": [{"sup_norm": 0.5}]}}
    fresh = {"gram": {"a": {"matrix": [[1.0 + 1e-15]], "h_minus": 0},
                      "b": {"matrix": [[1.0 + 1e-9]], "h_minus": 0},
                      "new": {"matrix": [[2.0]], "h_minus": 1}},
             "deform_logs": {"c": [{"sup_norm": float(np.nextafter(0.5, 1.0))}]},
             "path_n8": {"t_0.00": 2}}
    out, written = merged(pinned, fresh)
    assert out == {"gram": {"a": pinned["gram"]["a"], "b": fresh["gram"]["b"],
                            "new": fresh["gram"]["new"]},
                   "deform_logs": fresh["deform_logs"], "path_n8": fresh["path_n8"]}
    assert written == ["gram/b", "gram/new", "deform_logs/c", "path_n8/t_0.00"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    pinned = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    data, written = merged(pinned, record())
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}; new or failing entries: {', '.join(written) or 'none'}")
