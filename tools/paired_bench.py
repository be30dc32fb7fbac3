"""Paired benchmark runs of two source trees, alternating, and their summary.

Usage::

    python3 tools/paired_bench.py PARENT_TREE CHANGE_TREE --workload W --pairs K --out FILE \
        [--seed S]

Pair i runs ``perfbench/run.py --workload W --seed S+i --seconds T --trace 0``
once in each tree, from that tree's own checkout, where T is the
``run_seconds`` of CHANGE_TREE's ``BENCHMARK.json``: the run length is the
benchmark's, the same on both sides.  The parent runs first in
the even pairs and the change in the odd ones, so a host whose speed drifts
over the runs slows both sides alike.  The end-to-end metrics, and whether
higher or lower is better, are those that CHANGE_TREE's ``BENCHMARK.json``
declares.

FILE is a JSON document with one entry per workload: every pair's metrics
and correctness, and per metric each side's median and quartiles, the pairs
the change won, the change's median relative to the parent's, whether that
stays inside the metric's bound, and whether the median gain exceeds the
spread between the parent's quartiles.  An existing FILE keeps the entries
of the other workloads, so one file collects them all.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one ``perfbench/run.py`` run in ``tree``: its
    correctness, operation counts and end-to-end metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return {"correct": last["correct"], "attempted": last["attempted"], "failed": last["failed"],
            "metrics": {name: m["value"] for name, m in last["metrics"].items()}}


def run_pairs(trees: dict, workload: str, pairs: int, seed: int, seconds: float) -> list[dict]:
    """``pairs`` alternating pairs of runs, the parent first in the even ones."""
    records = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        record = {"seed": seed + i, "first": order[0]}
        for side in order:
            record[side] = run_once(trees[side], workload, seed + i, seconds)
            print(f"{workload} pair {i + 1}/{pairs} {side}: {record[side]['metrics']}",
                  file=sys.stderr)
        records.append(record)
    return records


def _quartiles(values: list[float]) -> list[float]:
    """The first quartile, the median and the third quartile."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(records: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric of ``end_to_end`` (BENCHMARK.json's entries:
    name, better, bound): each side's quartiles, the pairs the change won
    (strictly better), the change's median over the parent's, the relative
    worsening of the median against the bound, and the median gain against
    the parent's interquartile spread.  Also the runs that were not
    correct."""
    summary = {"pairs": len(records),
               "incorrect_runs": sum(not r[side]["correct"] for r in records for side in SIDES)}
    for spec in end_to_end:
        name, sign = spec["name"], (1.0 if spec["better"] == "higher" else -1.0)
        values = {side: [r[side]["metrics"][name] for r in records] for side in SIDES}
        q = {side: _quartiles(values[side]) for side in SIDES}
        parent, change = q["parent"][1], q["change"][1]
        gain = sign * (change - parent)
        worse = max(0.0, -gain) / abs(parent) if parent else 0.0
        summary[name] = {
            "better": spec["better"],
            "parent": {"median": parent, "q1": q["parent"][0], "q3": q["parent"][2]},
            "change": {"median": change, "q1": q["change"][0], "q3": q["change"][2]},
            "won": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
            "ratio": change / parent if parent else None,
            "worse_by": worse,
            "bound": spec["bound"],
            "within_bound": worse <= spec["bound"],
            "gain_exceeds_parent_iqr": gain > q["parent"][2] - q["parent"][0],
        }
    return summary


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's source tree")
    parser.add_argument("change", type=Path, help="the change's source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    parser.add_argument("--seed", type=int, default=21, help="the first pair's seed")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = float(bench["run_seconds"])
    records = run_pairs(trees, args.workload, args.pairs, args.seed, seconds)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    doc["workloads"][args.workload] = {
        "command": f"perfbench/run.py --workload {args.workload} --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count(), "platform": platform.platform()},
        "summary": summarize(records, bench["end_to_end"]),
        "records": records,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
