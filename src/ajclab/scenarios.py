"""Experiment scenarios reproducing the expected phenomenology end to end.

Each scenario is a function of a :class:`~ajclab.reporting.ScenarioReport`
and a :class:`~ajclab.config.LabConfig`, deterministic given the config,
that fills the report it is given: h-values, summaries, timings and checks
that carry the asserted tolerance and the measured value.  What it records
before it raises stays in the report.  Wall-clock timings are recorded in
the reports but never gate a check here.
"""

from __future__ import annotations

import time

import numpy as np

from . import battery, cohomlab
from . import hermitian as hm
from . import pointlin as pl
from . import torusfield as tf
from .config import LabConfig
from .reporting import ScenarioReport, to_json

#: grids of the resolution study
RESOLUTION_GRID_SIZES = (8, 16, 24, 32)


def scenario_baseline(report: ScenarioReport, cfg: LabConfig) -> None:
    """The undeformed structure: exact kernel of dimension 2.  h_plus needs
    no check of its own: every J on a closed 4-manifold is C-infinity pure
    and full (Draghici, Li and Zhang, IMRN 2010), so h_plus = b_2 - h_minus
    = 6 - h_minus here, and it is 4 exactly when h_minus is 2."""
    grid = tf.GridSpec(cfg.grid_n)
    with report.timed("build"):
        triple = hm.standard_acs(grid)
    with report.timed("gram"):
        gram = cohomlab.gram_matrix(triple, tol_null=cfg.tol_null)
    report.h_values["standard"] = gram.h_minus
    report.summaries["gram"] = to_json(gram)
    report.check("h_minus equals 2", gram.h_minus == 2, measured=float(gram.h_minus))
    report.within("Gram matrix is diag(4, 0, 0)", gram.matrix - np.diag([4.0, 0.0, 0.0]), 1e-10)
    J = pl.acs_from_coords(triple.y)
    report.within(
        "kernel forms are anti-invariant",
        [pl.split_j(J, v @ pl.OMEGA_SD).plus for v in gram.null_coords], 1e-10,
    )
    report.within("structure action rotates omega2 to omega3",
                  pl.j_act_anti(pl.J0, pl.OMEGA2) - pl.OMEGA3, 1e-12)
    report.within("structure action squares to -Id on the kernel",
                  pl.j_act_anti(pl.J0, pl.j_act_anti(pl.J0, pl.OMEGA2)) + pl.OMEGA2, 1e-12)


def _stage1(report: ScenarioReport, cfg: LabConfig):
    """Stage 1 of the cut-off construction from the standard structure at
    ``cfg.grid_n``, timed as ``build`` and ``stage1``.  Records the h-values
    of both structures and the three checks of stage 1 against the standard
    kernel in ``report``; returns (stage1, its deform log, its Gram report)."""
    grid = tf.GridSpec(cfg.grid_n)
    with report.timed("build"):
        base = hm.standard_acs(grid)
    with report.timed("stage1"):
        stage1, log, (base_gram, stage1_gram) = hm.one_bump_deform(
            base, cfg.bump1, tol_null=cfg.tol_null, eps=cfg.eps_nodal
        )
    report.h_values["standard"] = base_gram.h_minus
    report.h_values["stage1"] = stage1_gram.h_minus
    report.check(
        "stage-1 kernel dimension at most 1",
        stage1_gram.h_minus <= 1, measured=float(stage1_gram.h_minus),
    )
    angle = cohomlab.null_containment_angle(stage1_gram, base_gram)
    report.check(
        "stage-1 kernel contained in the standard kernel",
        angle < cohomlab.ANGLE_TOL, cohomlab.ANGLE_TOL, angle,
    )
    inter = cohomlab.intersection_dim(base_gram, stage1_gram)
    report.check("kernel intersection dimension at most 1", inter <= 1, measured=float(inter))
    return stage1, log, stage1_gram


def scenario_one_bump(report: ScenarioReport, cfg: LabConfig) -> None:
    """Stage 1 of the cut-off construction from the standard structure."""
    stage1, log, stage1_gram = _stage1(report, cfg)
    report.summaries["deform_log"] = log.to_list()
    report.summaries["stage1_gram"] = to_json(stage1_gram)
    report.artifacts["triples"] = {"stage1": (stage1, log)}


def scenario_two_stage(report: ScenarioReport, cfg: LabConfig) -> None:
    """Both cut-off stages; the kernel must be exhausted at the end."""
    stage1, log, stage1_gram = _stage1(report, cfg)
    with report.timed("stage2"):
        stage2, stage2_gram = hm.second_bump_deform(stage1, stage1_gram, cfg.bump2, log,
                                                    cfg.eps_nodal)
    report.h_values["stage2"] = stage2_gram.h_minus
    report.summaries["deform_log"] = log.to_list()
    report.summaries["stage2_gram"] = to_json(stage2_gram)
    report.check(
        "stage-2 kernel is trivial", stage2_gram.h_minus == 0,
        measured=float(stage2_gram.h_minus),
    )
    lam = stage2_gram.lambda_min()
    report.check(
        "smallest Gram eigenvalue clears 10x the null tolerance",
        lam > 10.0 * cfg.tol_null, 10.0 * cfg.tol_null, lam,
    )
    F2 = stage2.F.values
    report.within("renormalized form has wedge square 2 at every node",
                  pl.wedge_to_volume(F2, F2) - 2.0, 1e-9)
    report.within(
        "normalization route matches the rational deformation route",
        [r.get("route_disagreement", 0.0) for r in log.to_list()], hm.ROUTE_TOL,
    )
    report.artifacts["triples"] = {"stage1": (stage1, log), "stage2": (stage2, log)}


def scenario_oracle(report: ScenarioReport, cfg: LabConfig) -> None:
    """The second route end to end: at ``cfg.grid_n`` the certified elliptic
    kernel dimension (:func:`.cohomlab.elliptic_kernel_dim`) must equal the
    Gram h_minus on the standard structure, stage 1, stage 2 and one random
    structure.  The Gram reports of the standard structure and the two
    stages are the ones the cut-off stages return; only the random
    structure's is computed here.  A stage 2 that the construction refuses
    at that grid (the default bumps at n = 6) is recorded as a skipped check
    with the refusal."""
    grid = tf.GridSpec(cfg.grid_n)
    with report.timed("build"):
        base = hm.standard_acs(grid)
        stage1, log, (report0, report1) = hm.one_bump_deform(
            base, cfg.bump1, cfg.tol_null, cfg.eps_nodal
        )
        generic = hm.random_compatible_acs(grid, cfg.seed, cfg.amplitude, cfg.bandlimit)
        structures = {
            "standard": (base, report0),
            "stage1": (stage1, report1),
            "random": (generic, cohomlab.gram_matrix(generic, tol_null=cfg.tol_null)),
        }
        try:
            structures["stage2"] = hm.second_bump_deform(
                stage1, report1, cfg.bump2, log, cfg.eps_nodal
            )
        except ValueError as exc:
            report.skip("stage2: elliptic kernel dimension equals Gram h_minus",
                        f"stage 2 refused at n={grid.n}: {exc}")
    elliptic_reports = {}
    for label, (triple, gram) in structures.items():
        with report.timed(label):
            elliptic = cohomlab.elliptic_kernel_dim(triple, grid)
        report.h_values[label] = gram.h_minus
        elliptic_reports[label] = to_json(elliptic)
        report.check(
            f"{label}: elliptic kernel dimension equals Gram h_minus",
            elliptic.kernel_dim == gram.h_minus, measured=float(elliptic.kernel_dim),
            detail=f"elliptic {elliptic.kernel_dim}, Gram {gram.h_minus}",
        )
    report.summaries["elliptic"] = elliptic_reports


def scenario_random_sweep(report: ScenarioReport, cfg: LabConfig) -> None:
    """Random compatible structures: the kernel is expected to vanish for
    every seed; any seed with a surviving kernel fails the assertion but is
    recorded, not crashed on."""
    if cfg.sweep_count < 1:
        raise ValueError("sweep_count must be >= 1")
    grid = tf.GridSpec(cfg.grid_n)
    rows = []
    with report.timed("sweep"):
        for seed in range(1, cfg.sweep_count + 1):
            t0 = time.perf_counter()
            triple = hm.random_compatible_acs(grid, seed, cfg.amplitude, cfg.bandlimit)
            gram = cohomlab.gram_matrix(triple, tol_null=cfg.tol_null)
            rows.append(
                {
                    "seed": seed,
                    "amplitude": cfg.amplitude,
                    "bandlimit": cfg.bandlimit,
                    "h_minus": gram.h_minus,
                    "lambda_min": gram.lambda_min(),
                    "runtime_ms": 1000.0 * (time.perf_counter() - t0),
                }
            )
    zero_fraction = float(np.mean([row["h_minus"] == 0 for row in rows]))
    nonzero = [row["seed"] for row in rows if row["h_minus"] != 0]
    report.h_values = {f"seed_{row['seed']}": row["h_minus"] for row in rows}
    report.summaries["zero_fraction"] = zero_fraction
    report.summaries["nonzero_seeds"] = nonzero
    report.summaries["lambda_min_range"] = [
        min(r["lambda_min"] for r in rows), max(r["lambda_min"] for r in rows)
    ]
    report.check(
        "every seed has a trivial kernel", zero_fraction == 1.0, 1.0, zero_fraction,
        detail=f"seeds with surviving kernel: {nonzero}" if nonzero else "",
    )
    report.artifacts["rows"] = rows


def scenario_path(report: ScenarioReport, cfg: LabConfig) -> None:
    """Scaling one fixed bump deformation: the kernel dimension never
    exceeds its value at the start of the path."""
    if cfg.path_steps < 2:
        raise ValueError("path_steps must be >= 2")
    grid = tf.GridSpec(cfg.grid_n)
    with report.timed("path"):
        base = hm.standard_acs(grid)
        base_gram = cohomlab.gram_matrix(base, tol_null=cfg.tol_null)
        w = cohomlab.select_null_form(base_gram)
        a = cfg.bump1.build(grid).values[..., None] * w
        ts = np.linspace(0.0, 0.95, cfg.path_steps)
        hs = []
        for t in ts:
            triple = hm.deform_field(base, float(t) * a)
            hs.append(cohomlab.gram_matrix(triple, tol_null=cfg.tol_null).h_minus)
    report.h_values = {f"t_{t:.2f}": h for t, h in zip(ts, hs)}
    report.summaries["t_grid"] = [float(t) for t in ts]
    report.summaries["h_path"] = hs
    report.check("kernel dimension starts at 2", hs[0] == 2, measured=float(hs[0]))
    worst = max(hs)
    report.check(
        "kernel dimension never exceeds its start value",
        worst <= hs[0], measured=float(worst),
    )


def scenario_resolution(report: ScenarioReport, cfg: LabConfig) -> None:
    """Gram entries of the two-stage structure across grid refinements."""
    matrices = {}
    for n in RESOLUTION_GRID_SIZES:
        with report.timed(f"n{n}"):
            base = hm.standard_acs(tf.GridSpec(n))
            stage1, log, (_, report1) = hm.one_bump_deform(base, cfg.bump1, cfg.tol_null,
                                                           cfg.eps_nodal)
            _, report2 = hm.second_bump_deform(stage1, report1, cfg.bump2, log, cfg.eps_nodal)
            matrices[n] = report2.matrix
    diffs = []
    sizes = list(RESOLUTION_GRID_SIZES)
    for prev, cur in zip(sizes, sizes[1:]):
        num = float(np.linalg.norm(matrices[cur] - matrices[prev]))
        den = float(np.linalg.norm(matrices[cur]))
        diffs.append(num / den)
    report.summaries["grid_sizes"] = sizes
    report.summaries["gram_matrices"] = {str(n): m.tolist() for n, m in matrices.items()}
    report.summaries["successive_relative_differences"] = diffs
    report.check(
        "final successive relative difference below 1e-3",
        diffs[-1] < 1e-3, 1e-3, diffs[-1],
    )


def identity_battery(report: ScenarioReport, cfg: LabConfig) -> None:
    """Random-case identity batteries for the pointwise algebra, the
    spectral calculus and the oracle's symbol; zero failures expected."""
    with report.timed("deformation"):
        checks = battery.run_deformation_battery(cfg.seed)
    with report.timed("splitting"):
        checks += battery.run_splitting_battery(cfg.seed + 1)
    with report.timed("calculus"):
        checks += battery.run_calculus_battery(16, 100, seed=cfg.seed + 2)
    with report.timed("symbol"):
        checks += battery.run_symbol_battery(16, cfg.seed + 3)
    report.checks.extend(checks)
    report.summaries["total_checks"] = len(checks)


SCENARIOS = {
    "baseline": scenario_baseline,
    "one-bump": scenario_one_bump,
    "two-stage": scenario_two_stage,
    "oracle": scenario_oracle,
    "random-sweep": scenario_random_sweep,
    "path": scenario_path,
    "resolution": scenario_resolution,
    "battery": identity_battery,
}
