"""The benchmark's workloads (``perfbench/workloads.py``) run at small grids:
they call ajclab in fixed forms (``two_stage_deform``'s 3-tuple and
``log.to_list()``, ``one_bump_deform(...)[0]``, ``save_triple(..., params=,
log=)`` and ``load_triple`` read back through ``.J`` and ``.F``,
``elliptic_kernel_dim(triple, grid)``, ``run_calculus_battery(grid_n=,
count=, seed=)``), so a change to one of those signatures or return shapes
fails here as well as in the benchmark.  The traced run wraps the
``ajclab`` attributes that ``perfbench/spans.py`` names, so renaming or
removing one fails here too, instead of reading 0 in the benchmark."""

import sys
from pathlib import Path

import pytest

from ajclab import cohomlab, hermitian

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402

#: the oracle keeps its n=6, where the random structure's bandlimit 2 fits
SMALL_GRID = {"sweep": 8, "cutoff": 8, "oracle": 6, "calculus": 8}


@pytest.mark.parametrize("name", list(SMALL_GRID))
def test_first_operations_of_each_workload_pass_their_checks(name, monkeypatch, tmp_path):
    cls = workloads.WORKLOADS[name]
    monkeypatch.setattr(cls, "grid_n", SMALL_GRID[name])
    workload = cls(0, tmp_path)
    for i in range(3):  # the oracle cycles through its three structure kinds
        inp = workload.input(i)
        assert workload.verify(inp, workload.operate(inp), {}) == [], inp


def _attributes(holders):
    return {(id(h), name): value for h in holders for name, value in vars(h).items()}


def test_every_trace_target_exists_and_is_restored():
    targets = [(spans._resolve(owner), attr) for _, owner, attr, _, _ in spans.TARGETS]
    holders = [h for h, _ in targets] + spans._ajclab_modules()
    before = _attributes(holders)
    with spans.installed(spans.Tracer()) as absent:
        assert absent == []
        assert all(vars(h)[attr] is not before[(id(h), attr)] for h, attr in targets)
        # the frame, traced as hermitian's, is also the cohomlab name the oracle calls
        assert cohomlab.anti_invariant_frame is hermitian.anti_invariant_frame
    after = _attributes(holders)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
