"""tools/paired_bench.py: the order of its paired runs and their summary,
on synthetic records, without running a benchmark."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "paired_bench", Path(__file__).parent.parent / "tools" / "paired_bench.py"
)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

END_TO_END = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
]


def run(ops, rss, correct=True):
    return {"correct": correct, "attempted": 10, "failed": 0 if correct else 1,
            "metrics": {"ops_per_s": ops, "peak_rss_mb": rss}}


def records(parent, change):
    """Pairs of (ops_per_s, peak_rss_mb) runs, the parent's and the change's."""
    return [{"seed": 21 + i, "first": "parent", "parent": run(*p), "change": run(*c)}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_the_summary_of_a_clear_gain():
    parent = [(10.0, 100.0), (12.0, 100.0), (11.0, 101.0), (13.0, 99.0), (9.0, 100.0)]
    change = [(15.0, 100.0), (16.0, 99.0), (14.0, 102.0), (17.0, 99.0), (15.5, 100.0)]
    summary = paired_bench.summarize(records(parent, change), END_TO_END)
    assert summary["pairs"] == 5 and summary["incorrect_runs"] == 0
    ops = summary["ops_per_s"]
    # inclusive quartiles of 9, 10, 11, 12, 13 and of 14, 15, 15.5, 16, 17
    assert ops["parent"] == {"median": 11.0, "q1": 10.0, "q3": 12.0}
    assert ops["change"] == {"median": 15.5, "q1": 15.0, "q3": 16.0}
    assert ops["won"] == 5 and ops["ratio"] == pytest.approx(15.5 / 11.0)
    assert ops["worse_by"] == 0.0 and ops["within_bound"]
    # a gain of 4.5 against the parent's quartile spread of 2
    assert ops["gain_exceeds_parent_iqr"]
    rss = summary["peak_rss_mb"]
    # lower is better: the change is lower in pair 2 alone, and equal in 1, 4 and 5
    assert rss["won"] == 1 and rss["parent"]["median"] == rss["change"]["median"] == 100.0
    assert not rss["gain_exceeds_parent_iqr"] and rss["within_bound"]


def test_a_worse_median_is_measured_against_the_bound():
    parent = [(10.0, 100.0), (10.0, 100.0), (10.0, 100.0)]
    change = [(8.0, 110.0), (7.0, 120.0), (9.0, 116.0)]
    summary = paired_bench.summarize(records(parent, change), END_TO_END)
    assert summary["ops_per_s"]["worse_by"] == pytest.approx(0.2)
    assert summary["ops_per_s"]["within_bound"] and summary["ops_per_s"]["won"] == 0
    assert summary["peak_rss_mb"]["worse_by"] == pytest.approx(0.16)
    assert not summary["peak_rss_mb"]["within_bound"]


def test_incorrect_runs_are_counted():
    pairs = records([(10.0, 100.0)] * 2, [(11.0, 100.0)] * 2)
    pairs[1]["change"] = run(11.0, 100.0, correct=False)
    summary = paired_bench.summarize(pairs, END_TO_END)
    assert summary["incorrect_runs"] == 1
    # one pair: its single values stand for every quartile
    one = paired_bench.summarize(pairs[:1], END_TO_END)["ops_per_s"]
    assert one["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.0}


def test_pairs_alternate_which_side_runs_first(monkeypatch):
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append((tree, seed))
        return run(1.0, 1.0)

    monkeypatch.setattr(paired_bench, "run_once", fake_run)
    trees = {"parent": Path("p"), "change": Path("c")}
    got = paired_bench.run_pairs(trees, "cutoff", 3, 21, 24.0)
    assert calls == [(Path("p"), 21), (Path("c"), 21), (Path("c"), 22), (Path("p"), 22),
                     (Path("p"), 23), (Path("c"), 23)]
    assert [r["first"] for r in got] == ["parent", "change", "parent"]
    assert [r["seed"] for r in got] == [21, 22, 23]


def write_tree(root: Path, src_byte: bytes) -> Path:
    """A source tree whose one src/ module ends in ``src_byte``."""
    for rel, data in [("src/ajclab/a.py", b"x = 1" + src_byte), ("perfbench/run.py", b"run"),
                      ("BENCHMARK.json", b"{}"), ("tests/test_a.py", b"test")]:
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return root


def test_tree_digest_is_of_the_content_alone(tmp_path):
    first = paired_bench.tree_digest(write_tree(tmp_path / "a", b"\n"))
    assert len(first) == 64
    # the same content in another directory digests alike
    assert paired_bench.tree_digest(write_tree(tmp_path / "b", b"\n")) == first
    # one byte under src/ differs
    assert paired_bench.tree_digest(write_tree(tmp_path / "c", b"2")) != first
    # neither run leftovers nor files outside src/, perfbench/ and
    # BENCHMARK.json count
    for rel in ("src/ajclab/__pycache__/a.pyc", "perfbench/out/spans.json", "tests/new.py"):
        (tmp_path / "b" / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / "b" / rel).write_bytes(b"left")
    assert paired_bench.tree_digest(tmp_path / "b") == first
    (tmp_path / "b" / "perfbench" / "new.py").write_bytes(b"")
    assert paired_bench.tree_digest(tmp_path / "b") != first
