"""Record the Gram matrices that the benchmark's output checks compare with.

Run from the root of a checkout, at the commit whose results are the
reference:

    python3 perfbench/record_reference.py

It rewrites perfbench/reference_gram.json with the matrices of the inputs
the default workload seed generates: the first SWEEP_OPS sweep structures,
the three cut-off structures and the structures of the first ORACLE_OPS
oracle operations.  The cut-off structures and the oracle's standard and
stage-1 structures do not depend on the seed, so they are checked on every
seed.
"""

from __future__ import annotations

import json

import run

SWEEP_OPS = 96
ORACLE_OPS = 48


def main() -> None:
    run.cap_threads()
    ajclab = run.import_program()
    import workloads

    seed = run.DEFAULT_SEED
    reference = {}
    sweep = workloads.Sweep(seed, None)
    for i in range(SWEEP_OPS):
        struct_seed = sweep.input(i)
        reference[f"sweep/{struct_seed}"] = sweep.operate(struct_seed).matrix.tolist()
    cutoff = workloads.Cutoff(seed, None)
    triples, _ = cutoff.construct()
    for label, triple in triples.items():
        reference[f"cutoff/{label}"] = ajclab.gram_matrix(triple).matrix.tolist()
    oracle = workloads.Oracle(seed, None)
    for i in range(ORACLE_OPS):
        inp = oracle.input(i)
        gram = ajclab.gram_matrix(oracle.structure(*inp))
        reference[oracle.reference_key(*inp)] = gram.matrix.tolist()
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} Gram matrices to {workloads.REFERENCE_PATH.name}")


if __name__ == "__main__":
    main()
