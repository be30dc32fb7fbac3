"""The benchmark's workloads (``perfbench/workloads.py``) run at small grids:
they call ajclab in fixed forms (``two_stage_deform``'s 3-tuple and
``log.to_list()``, ``one_bump_deform(...)[0]``, ``save_triple(..., params=,
log=)`` and ``load_triple`` read back through ``.J`` and ``.F``,
``elliptic_kernel_dim(triple, grid)``, ``run_calculus_battery(grid_n=,
count=, seed=)``), so a change to one of those signatures or return shapes
fails here as well as in the benchmark."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
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
