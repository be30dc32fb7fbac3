"""Self-tests of the benchmark harness.

Run from the root of a checkout: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402

ajclab = run.import_program()
import workloads  # noqa: E402


def _span(name, start, end, parent=-1, op=0):
    return spans.Span(name, float(start), float(end), parent=parent, op=op)


def test_self_time_of_nested_spans():
    tree = [
        _span("a", 0, 10),            # 0: children 1 and 2
        _span("b", 1, 4, parent=0),   # 1: child 3
        _span("c", 5, 9, parent=0),   # 2: children 4 and 5, which overlap
        _span("d", 2, 3, parent=1),
        _span("e", 6, 7, parent=2),
        _span("f", 6.5, 8, parent=2),
        _span("g", 11, 12, op=1),     # another operation
    ]
    assert spans.self_times(tree) == pytest.approx([3, 2, 2, 1, 1, 1.5, 1])
    totals = spans.op_self_totals(tree[:4])
    assert totals[0] == pytest.approx(10.0)  # self times tile a span tree


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 19) is None
    t = run.tail([float(i) for i in range(1, 41)])
    assert (t["percentile"], t["value"], t["beyond"], t["samples"]) == (75, 30.0, 10, 40)
    assert run.tail([float(i) for i in range(100)])["percentile"] == 90
    assert run.tail([float(i) for i in range(1000)])["percentile"] == 99


class _Fake:
    """Operations of 5 ms; operation 1 raises and operation 2 gives a wrong answer."""

    grid_n = 4

    def input(self, i):
        return i

    def operate(self, i):
        time.sleep(0.005)
        if i == 1:
            raise ValueError("boom")
        return i

    def verify(self, i, output, reference):
        return ["wrong"] if i == 2 else []


def test_raising_and_wrong_operations_count_as_failed():
    log = run.measure(_Fake(), 0.1, {})
    assert log.attempted == len(log.durations) >= 3
    assert log.failed == 2
    assert any("ValueError: boom" in p for p in log.problems)


def _fake_modules():
    layer = types.ModuleType("perfbench_fake_layer")

    def f(x):
        return x + 1

    def fails():
        raise KeyError("x")

    def outer():
        return layer.fails()  # looked up at call time, like a module global

    layer.f, layer.fails, layer.outer = f, fails, outer
    alias = types.ModuleType("perfbench_fake_alias")
    alias.g = f
    sys.modules[layer.__name__] = layer
    return layer, alias


def test_wrappers_restored_after_exception_and_absent_targets_reported():
    layer, alias = _fake_modules()
    originals = (layer.f, layer.fails, layer.outer)
    targets = [
        ("fake.f", layer.__name__, "f", None, ("self_s", "calls")),
        ("fake.fails", layer.__name__, "fails", None, ("calls",)),
        ("fake.outer", layer.__name__, "outer", None, ("calls",)),
        ("fake.gone", layer.__name__, "gram_h_minus", None, ("calls",)),
        ("fake.nomodule", "perfbench_no_such_module", "f", None, ("calls",)),
    ]
    tracer = spans.Tracer()
    try:
        with pytest.raises(RuntimeError):
            with spans.installed(tracer, targets, alias_modules=[alias]) as absent:
                assert absent == ["fake.gone", "fake.nomodule"]
                assert layer.f is not originals[0] and alias.g is layer.f
                assert alias.g(1) == 2
                with pytest.raises(KeyError):
                    layer.outer()
                raise RuntimeError("leave the block early")
        assert (layer.f, layer.fails, layer.outer) == originals
        assert alias.g is originals[0]
        assert [s.name for s in tracer.spans] == ["fake.f", "fake.outer", "fake.fails"]
        assert tracer.spans[2].parent == 1 and tracer.spans[2].error
        assert len(tracer.errors["fake"]) == 1  # one exception, counted once per layer
    finally:
        del sys.modules[layer.__name__]


def _snapshot():
    import numpy.linalg

    mods = spans._ajclab_modules() + [numpy.linalg]
    state = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    for cls in (ajclab.AcsField, ajclab.HermitianTriple, ajclab.torusfield._FieldBase):
        state.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return state


def test_every_target_exists_and_is_restored():
    before = _snapshot()
    with spans.installed(spans.Tracer()) as absent:
        assert absent == []
        assert ajclab.gram_matrix is not before[("ajclab.cohomlab", "gram_matrix")]
        # an alias imported by name is wrapped too
        assert ajclab.cohomlab.anti_invariant_frame is ajclab.hermitian.anti_invariant_frame
        assert ajclab.cohomlab.anti_invariant_frame is not before[
            ("ajclab.hermitian", "anti_invariant_frame")]
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_run_fits_in_the_operation_and_matches_benchmark_json():
    tracer = spans.Tracer()
    log = run.measure(workloads.Sweep(0, BENCH / "out"), 0.1, {}, tracer)
    assert log.failed == 0 and len(log.traced) == 1
    totals = spans.op_self_totals(tracer.spans)
    assert 0.0 < totals[0] <= log.traced[0]
    layer = run.per_layer(log, tracer)
    assert layer["cohomlab.gram_matrix.calls"][0] == 1.0
    assert layer["pointlin.acs_defect.calls"][0] >= 1.0

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = run.end_to_end(log, [1.0])
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer)
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(e2e)
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    assert all(units[k] == u for k, (_, u) in {**layer, **e2e}.items())


class _Gram:
    def __init__(self, h):
        self.h_minus = h
        self.matrix = [[0.0] * 3] * 3


def test_wrong_h_value_is_a_problem():
    sweep = workloads.Sweep(0, BENCH / "out")
    assert sweep.verify(5, _Gram(0), {}) == []
    assert sweep.verify(5, _Gram(1), {}) != []
    reference = {"sweep/5": [[1e-11, 0.0, 0.0], [0.0] * 3, [0.0] * 3]}
    assert sweep.verify(5, _Gram(0), reference) != []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_operation_of_each_workload_passes_its_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name](run.DEFAULT_SEED, tmp_path)
    inp = workload.input(0)
    problems = workload.verify(inp, workload.operate(inp), workloads.load_reference())
    assert problems == []
