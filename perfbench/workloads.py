"""Workload definitions: the RunConfigs each workload sends, the driver that
runs them, and the physics check that decides whether an operation failed.

Importing this module does not import remvqe, so the parent process stays
light; the functions that need the package import it when called.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# Seeds of one benchmark run are consecutive: operation k of a run started
# with --seed n uses RunConfig seed n * SEED_STRIDE + k.
SEED_STRIDE = 10_000


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


# Each check takes a driver result and returns (failure reason or None,
# |REM-corrected error| in mHa). The checks are physics criteria, not byte
# digests, so a deliberate correctness change moves err_rem_mha without
# failing operations.


def _single_point_error(result) -> tuple[str | None, float]:
    rep = result.report
    if not _finite(rep.e_vqe_ref, rep.e_vqe_min, rep.e_rem, rep.e_exact_min):
        return "non-finite energy", math.nan
    return None, 1e3 * abs(rep.err_rem)


def check_deep_circuit(result) -> tuple[str | None, float]:
    """Criterion 7: Nelder-Mead converges and REM shrinks the error."""
    reason, err = _single_point_error(result)
    rep = result.report
    if reason is None and not result.converged:
        reason = "Nelder-Mead did not converge"
    if reason is None and abs(rep.err_rem) >= abs(rep.err_vqe):
        reason = f"|err_rem| {err:.3f} mHa not below |err_vqe| {1e3 * abs(rep.err_vqe):.3f} mHa"
    return reason, err


# Over 71 seeds the largest |err_rem| of lih-hwe-shots was 56 mHa; an error
# beyond this means a broken pipeline, not shot noise.
SHOT_SPSA_MAX_ERR_HA = 0.1


def check_shot_spsa(result) -> tuple[str | None, float]:
    """Energies are finite and the corrected one lies within 0.1 Ha of exact.

    An SPSA run that exhausts its budget is not a failure. |err_rem| <
    |err_vqe| is not required: the REM shift comes from one shot-noisy
    reference measurement, which over-corrected on 4 of 71 seeds.
    """
    reason, err = _single_point_error(result)
    if reason is None and err > 1e3 * SHOT_SPSA_MAX_ERR_HA:
        reason = f"|err_rem| {err:.3f} mHa beyond {1e3 * SHOT_SPSA_MAX_ERR_HA:.0f} mHa"
    return reason, err


def check_readout_curve(result) -> tuple[str | None, float]:
    """Per curve: finite energies, and mean raw error >= 10x the corrected one.

    Criterion 5's other half, mean corrected error <= 2 mHa, is checked on
    the mean over the run's curves (see run_problems), as the acceptance test
    checks it on a mean over seeds: single curves exceed it by shot noise
    alone (seed 1090001 read 2.010 mHa, 1 of about 460 curves measured).
    """
    pts = result.points
    if not all(
        _finite(p.e_exact, p.e_vqe, p.e_vqe_readout, p.e_rem, p.e_readout_rem) for p in pts
    ):
        return "non-finite energy", math.nan
    corrected = sum(abs(p.e_readout_rem - p.e_exact) for p in pts) / len(pts)
    raw = sum(abs(p.e_vqe - p.e_exact) for p in pts) / len(pts)
    if raw < 10 * corrected:
        return f"raw/corrected error ratio {raw / corrected:.2f} below 10", 1e3 * corrected
    return None, 1e3 * corrected


@dataclass(frozen=True)
class Workload:
    name: str
    driver: str  # name of the driver in remvqe.experiments
    fields: tuple[tuple[str, object], ...]  # RunConfig fields except seed
    traced_ops: int  # operations in a traced run (a fixed count, not a time)
    check: Callable  # result -> (failure reason or None, err_rem_mha)
    max_mean_err_mha: float | None = None  # bound on err_rem_mha over a run


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lih-uccsd-density",
            "cmd_single_point",
            (("molecule", "lih"), ("backend", "noisy"), ("p2", 4e-3), ("mitigation", "rem")),
            1,
            check_deep_circuit,
        ),
        Workload(
            "lih-hwe-shots",
            "cmd_single_point",
            (
                ("molecule", "lih"),
                ("ansatz", "hwe"),
                ("backend", "noisy"),
                ("p2", 4e-3),
                ("shots", 8192),
                ("mitigation", "rem"),
            ),
            1,
            check_shot_spsa,
        ),
        Workload(
            "h2-readout-curves",
            "cmd_dissociation",
            (
                ("molecule", "h2"),
                ("backend", "noisy"),
                ("shots", 5000),
                ("confusion", "calibrate"),
                ("mitigation", "readout+rem"),
            ),
            10,
            check_readout_curve,
            max_mean_err_mha=2.0,
        ),
    )
}


def run_config(workload: Workload, seed: int, k: int):
    """RunConfig of operation k in a run started with --seed `seed`."""
    from remvqe.experiments import RunConfig

    return RunConfig(**dict(workload.fields), seed=seed * SEED_STRIDE + k)


def driver(workload: Workload):
    """The public driver behind the workload's CLI subcommand."""
    from remvqe import experiments

    return getattr(experiments, workload.driver)


def evaluations(cfg, result) -> int:
    """Energy evaluations one driver call made, as its result reports them.

    A single point measures the reference and re-measures the optimum on top
    of the optimizer's own evaluations; a sweep evaluates its grid only. A
    sweep curve runs every point's grid once per pipeline (raw, unfolded).
    """
    if hasattr(result, "points"):
        pipelines = 2 if cfg.readout_flag else 1
        return len(result.points) * cfg.grid_points * pipelines
    n = result.record["n_evaluations"]
    return n + 2 if result.outcome is not None else n


def run_problems(workload: Workload, ops: list[dict]) -> list[str]:
    """Checks on all the operations of one run together."""
    errors = [op["err_rem_mha"] for op in ops if not op["failed"]]
    if workload.max_mean_err_mha is None or not errors:
        return []
    mean = sum(errors) / len(errors)
    if mean <= workload.max_mean_err_mha:
        return []
    return [
        f"mean err_rem_mha {mean:.3f} over {len(errors)} operations exceeds "
        f"{workload.max_mean_err_mha} mHa"
    ]
