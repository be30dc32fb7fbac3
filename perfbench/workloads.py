"""The benchmark's four workloads.

Each workload turns the workload seed into the inputs of its operations
(:meth:`input`), runs one operation through ajclab's public API
(:meth:`operate`, the timed part) and checks that operation's outputs
(:meth:`verify`, untimed; it returns the problems found).  Why each
workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import ajclab
from ajclab import battery

#: Gram matrices recorded at the commit that defined the benchmark
REFERENCE_PATH = Path(__file__).with_name("reference_gram.json")
#: the ROADMAP's design gate for Gram matrices
GRAM_TOL = 1e-12
#: bound on the stage-2 wedge-square and route residuals
RESIDUAL_TOL = 1e-9

#: bump of the oracle's stage-1 structure, the one the oracle tests use
ORACLE_BUMP = ajclab.BumpSpec((0.5, 0.5, 0.5, 0.5), 0.3, 0.5)
ORACLE_KINDS = ("standard", "stage1", "random")


def op_seed(seed: int, i: int) -> int:
    """The structure or battery seed of operation ``i`` under a workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() else {}


def gram_problems(reference: dict, key: str, matrix) -> list[str]:
    """Compare a Gram matrix with the recorded one, when one was recorded."""
    if key not in reference:
        return []
    dev = float(np.max(np.abs(np.asarray(matrix) - np.asarray(reference[key]))))
    return [] if dev <= GRAM_TOL else [f"{key}: Gram matrix deviates by {dev:.3e}"]


def h_problems(label: str, got: int, expected: int) -> list[str]:
    return [] if got == expected else [f"{label}: h_minus {got}, expected {expected}"]


class Sweep:
    """Random compatible structures decided by Gram."""

    name = "sweep"
    grid_n = 16

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cfg = ajclab.LabConfig()
        self.grid = ajclab.GridSpec(self.grid_n)

    def input(self, i: int) -> int:
        return op_seed(self.seed, i)

    def operate(self, struct_seed: int):
        triple = ajclab.random_compatible_acs(
            self.grid, struct_seed, self.cfg.amplitude, self.cfg.bandlimit
        )
        return ajclab.gram_matrix(triple, tol_null=self.cfg.tol_null)

    def verify(self, struct_seed: int, gram, reference: dict) -> list[str]:
        return h_problems(f"seed {struct_seed}", gram.h_minus, 0) + gram_problems(
            reference, f"sweep/{struct_seed}", gram.matrix
        )


class Cutoff:
    """The two-stage cut-off construction, saved and loaded in AJC1."""

    name = "cutoff"
    grid_n = 24
    expected_h = {"standard": 2, "stage1": 1, "stage2": 0}

    def __init__(self, seed: int, workdir: Path):
        self.cfg = ajclab.LabConfig()
        self.grid = ajclab.GridSpec(self.grid_n)
        self.workdir = workdir

    def input(self, i: int) -> int:
        """Every operation builds the same structures; the seed changes nothing."""
        return i

    def construct(self):
        cfg = self.cfg
        base = ajclab.standard_acs(self.grid)
        stage1, stage2, log = ajclab.two_stage_deform(
            base, cfg.bump1, cfg.bump2, tol_null=cfg.tol_null, eps=cfg.eps_nodal
        )
        return {"standard": base, "stage1": stage1, "stage2": stage2}, log

    def operate(self, i: int):
        """The construction, then what ``ajclab two-stage`` writes, read back."""
        triples, log = self.construct()
        loaded = {}
        for stem in ("stage1", "stage2"):
            path = ajclab.save_triple(
                triples[stem], self.workdir, stem, params=self.cfg.to_dict(), log=log
            )
            loaded[stem] = ajclab.load_triple(path)
        return triples, log.to_list(), loaded

    def verify(self, i: int, output, reference: dict) -> list[str]:
        triples, log, loaded = output
        problems = []
        for label, triple in triples.items():
            gram = ajclab.gram_matrix(triple, tol_null=self.cfg.tol_null)
            problems += h_problems(label, gram.h_minus, self.expected_h[label])
            problems += gram_problems(reference, f"cutoff/{label}", gram.matrix)
        stage1_log, stage2_log = log
        logged = {"standard": stage1_log["h_before"], "stage1": stage1_log["h_after"],
                  "stage2": stage2_log["h_after"]}
        for label, h in logged.items():
            problems += h_problems(f"logged {label}", h, self.expected_h[label])
        for key in ("wedge_square_residual", "route_disagreement"):
            if not stage2_log[key] <= RESIDUAL_TOL:
                problems.append(f"stage 2 {key} {stage2_log[key]:.3e} > {RESIDUAL_TOL:.0e}")
        for stem, back in loaded.items():
            for part in ("J", "F"):
                original = getattr(triples[stem], part).values
                if getattr(back, part).values.tobytes() != original.tobytes():
                    problems.append(f"{stem}.{part} changed in the AJC1 round trip")
        return problems


class Oracle:
    """The elliptic oracle cross-checked against Gram at n=6."""

    name = "oracle"
    grid_n = 6

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cfg = ajclab.LabConfig()
        self.grid = ajclab.GridSpec(self.grid_n)

    def input(self, i: int) -> tuple[str, int]:
        """Structures cycle through the kinds, starting where the seed says."""
        return ORACLE_KINDS[(self.seed + i) % 3], op_seed(self.seed, i)

    def structure(self, kind: str, struct_seed: int):
        base = ajclab.standard_acs(self.grid)
        if kind == "standard":
            return base
        if kind == "stage1":
            return ajclab.one_bump_deform(base, ORACLE_BUMP, tol_null=self.cfg.tol_null)[0]
        return ajclab.random_compatible_acs(
            self.grid, struct_seed, self.cfg.amplitude, self.cfg.bandlimit
        )

    def operate(self, inp: tuple[str, int]):
        triple = self.structure(*inp)
        return (ajclab.elliptic_kernel_dim(triple, self.grid),
                ajclab.gram_matrix(triple, tol_null=self.cfg.tol_null))

    @staticmethod
    def reference_key(kind: str, struct_seed: int) -> str:
        return f"oracle/random/{struct_seed}" if kind == "random" else f"oracle/{kind}"

    def verify(self, inp: tuple[str, int], output, reference: dict) -> list[str]:
        kind, struct_seed = inp
        elliptic, gram = output
        expected = {"standard": 2, "random": 0}.get(kind)
        problems = []
        if expected is not None:
            problems += h_problems(f"{kind} Gram", gram.h_minus, expected)
        elif gram.h_minus > 1:
            problems.append(f"stage1 Gram h_minus {gram.h_minus} > 1")
        problems += h_problems(f"{kind} elliptic", elliptic.kernel_dim, gram.h_minus)
        return problems + gram_problems(reference, self.reference_key(*inp), gram.matrix)


class Calculus:
    """One random bandlimited case of the spectral calculus battery."""

    name = "calculus"
    grid_n = 16

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def input(self, i: int) -> int:
        return op_seed(self.seed, i)

    def operate(self, case_seed: int):
        return battery.run_calculus_battery(grid_n=self.grid_n, count=1, seed=case_seed)

    def verify(self, case_seed: int, checks, reference: dict) -> list[str]:
        return [f"case {case_seed}: {c.name} (measured {c.measured:.3e}, tol {c.tolerance:.0e})"
                for c in checks if not c.passed]


WORKLOADS = {cls.name: cls for cls in (Sweep, Cutoff, Oracle, Calculus)}
