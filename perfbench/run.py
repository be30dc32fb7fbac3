"""Benchmark of ajclab, the h-minus lab for the flat 4-torus.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 24 --trace 0

Each run is one process and one closed loop: a single caller, and the next
operation starts only when the previous one and its output check have
finished.  The loop runs at least one operation and stops where its
expected end is nearest ``--seconds``: before an operation that would end
more than half an operation past it.  With ``--trace 0`` the last
line of standard output holds the end-to-end metrics; with ``--trace 1``
each operation runs twice, untraced and then traced, and the last line
holds the per-layer metrics.  The line before it is a record with the
environment, the operation counts, the tail latency and any failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: the workload seed the recorded Gram references belong to
DEFAULT_SEED = 0
#: set-up is timed in this many fresh processes and reported as their median
SETUP_SAMPLES = 5
#: percentiles tried for the tail, highest first
TAIL_LADDER = (99.9, 99, 95, 90, 75)
#: samples that must lie beyond the tail percentile
TAIL_BEYOND = 10
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """Cap BLAS/OpenMP threads at the CPU count; must run before numpy loads."""
    n = nproc()
    for var in BLAS_VARS:
        try:
            current = int(os.environ.get(var, n))
        except ValueError:
            current = n
        os.environ[var] = str(max(1, min(current, n)))


def import_program():
    """Import ajclab from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "ajclab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: ajclab sources not found in {package}")
    sys.path.insert(0, str(SRC))
    import ajclab

    if Path(ajclab.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported ajclab from {ajclab.__file__}, not {package}")
    return ajclab


def tail(durations: list[float]) -> dict | None:
    """The highest ladder percentile with at least TAIL_BEYOND samples above
    its nearest-rank value, or None when the run is too short for one."""
    ordered = sorted(durations)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)  # 1-based nearest rank
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return {"value": ordered[rank - 1], "percentile": pct, "samples": n,
                    "beyond": n - rank}
    return None


@dataclass
class OpLog:
    """What the closed loop measured."""

    durations: list[float] = field(default_factory=list)   # untraced wall times
    traced: list[float] = field(default_factory=list)      # traced wall times
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    absent: list[str] = field(default_factory=list)


def _call(operate, inp):
    t0 = perf_counter()
    try:
        output = operate(inp)
    except Exception as exc:
        return None, perf_counter() - t0, exc
    return output, perf_counter() - t0, None


def _run_checked(workload, inp, reference, log: OpLog, tracer=None, op: int = -1) -> float:
    """Run one operation and check its outputs; returns its wall time."""
    log.attempted += 1
    if tracer is None:
        output, dt, exc = _call(workload.operate, inp)
    else:
        tracer.op = op
        with spans.installed(tracer) as absent:
            log.absent = absent
            tracemalloc.start()
            try:
                output, dt, exc = _call(workload.operate, inp)
            finally:
                tracemalloc.stop()
    if exc is not None:
        traceback.print_exception(exc, file=sys.stderr)
        problems = [f"operation raised {type(exc).__name__}: {exc}"]
    else:
        try:
            problems = workload.verify(inp, output, reference)
        except Exception as exc:
            traceback.print_exception(exc, file=sys.stderr)
            problems = [f"output check raised {type(exc).__name__}: {exc}"]
    if problems:
        log.failed += 1
        log.problems.extend(problems)
        print(f"operation failed: {problems}", file=sys.stderr)
    return dt


def measure(workload, seconds: float, reference: dict, tracer=None) -> OpLog:
    """The closed loop.  With a tracer, operation i runs untraced and then
    traced on the same input, and the pair counts as one step."""
    log = OpLog()
    start = perf_counter()
    i = 0
    while True:
        inp = workload.input(i)
        log.durations.append(_run_checked(workload, inp, reference, log))
        if tracer is not None:
            log.traced.append(_run_checked(workload, inp, reference, log, tracer, op=i))
        i += 1
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / i >= seconds:
            return log


def setup(name: str, seed: int):
    """Everything an operation needs: the program, the workload, its first input."""
    import_program()
    import workloads

    workdir = HERE / "out" / f"work-{name}-{os.getpid()}"
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.input(0)
    return workloads, workload, workdir


def setup_seconds(name: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, from their start until inputs are ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def git_sha() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": nproc(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "grid_n": workload.grid_n,
    }


def end_to_end(log: OpLog, setup_samples: list[float]) -> dict:
    completed = log.attempted - log.failed
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (completed / sum(log.durations), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(log: OpLog, tracer) -> dict:
    ops = len(log.traced)
    totals = spans.op_self_totals(tracer.spans)
    for op, wall in enumerate(log.traced):
        if totals.get(op, 0.0) > wall:
            raise RuntimeError(
                f"span self times of operation {op} sum to {totals[op]:.6f} s, "
                f"more than its wall time {wall:.6f} s"
            )
    metrics = spans.layer_metrics(tracer, ops)
    metrics["trace.overhead_frac"] = (sum(log.traced) / sum(log.durations) - 1.0, "ratio")
    metrics["trace.ops"] = (float(ops), "count")
    return metrics


def write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [[s.name, s.start, s.end, s.parent, s.op, s.nbytes, s.mem_peak, s.error]
            for s in tracer.spans]
    path.write_text(json.dumps({"columns": ["name", "start", "end", "parent", "op", "bytes",
                                            "peak_bytes", "error"], "spans": rows}))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "cutoff", "oracle", "calculus"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    cap_threads()
    args = parse_args(argv)
    if args.setup_probe:
        setup(args.workload, args.seed)
        print(monotonic())
        return 0

    import_program()  # fail before any measurement when the sources are missing
    setup_samples = [] if args.trace else setup_seconds(args.workload, args.seed)
    workloads, workload, workdir = setup(args.workload, args.seed)
    reference = workloads.load_reference()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
    try:
        log = measure(workload, args.seconds, reference, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = end_to_end(log, setup_samples)
    else:
        metrics = per_layer(log, tracer)
        spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        write_spans(tracer, spans_path)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(workload),
        "attempted": log.attempted,
        "failed": log.failed,
        "fail_frac": log.failed / log.attempted,
        "op_p50_s": statistics.median(log.durations),
        "op_tail_s": tail(log.durations),
        "op_durations_s": log.durations,
        "traced_durations_s": log.traced,
        "setup_samples_s": setup_samples,
        "absent_targets": log.absent,
        "problems": log.problems[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        record["inclusive_s_per_call"] = spans.inclusive_per_call(tracer.spans)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
