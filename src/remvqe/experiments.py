"""Experiment drivers: dissociation curves, depolarizing-noise sweeps, single
point runs, and readout calibration, with deterministic CSV and optional SVG
output.

Pipelines per point: `resolve` decides once which pipelines a command
measures, as `_Problem.unfolds` (one unfolding matrix per pipeline, None for
raw), and one runner, `_run_point`, serves every command. A single point
measures the pipeline --mitigation selects: unfolded when its readout part is
set, raw otherwise, and REM-corrected either way. The curves (dissociation,
noise-sweep) measure both, for four energies at each point:

- e_vqe: raw energies through the configured backend.
- e_vqe_readout: same counts, unfolded through the confusion matrix.
- e_rem / e_readout_rem: the above minus the reference-state shift, where the
  shift is (measured reference energy) - (exact reference energy) through the
  matching pipeline. Sweep-based runs take the measured reference from the
  fitted curve at theta = 0 rather than a separate draw.

err_vqe compares the raw pipeline and err_rem the readout+rem pipeline
against exact diagonalization. Identical configurations (seed included)
produce byte-identical CSV text, because every random draw is keyed by the
point's index and the evaluation index under the master seed (vqe's seed
rule), not by the order in which points run.

One function, `_values`, turns a point into named printed values, errors
from its reports among them; every CSV, plot, text row and JSON field selects
from it, so no writer does REM arithmetic. `PointResult`'s energy properties
and `SinglePointResult`'s `report`, `outcome` and `converged` stay because
perfbench reads them. One writer, `_write`, writes --out and --svg once both
are built, to paths that `_readout_truth` checked before the run.
"""
from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import _svg
from ._frozen import frozen
from .ansatz import AnsatzSpec
from .chemdata import MoleculeDataset, builtin, load
from .mitigation import (
    ConfusionMatrix,
    RemReport,
    calibrate_confusion,
    device_confusion,
    format_confusion_csv,
    read_confusion_csv,
)
from .pauli import _DENSE_LIMIT, PauliHamiltonian, ground_state_energy
from .sim import NoiseModel
from .vqe import (
    MEASURE_INDEX,
    REFERENCE_INDEX,
    EnergyEvaluator,
    SweepFit,
    VqeOutcome,
    _plan,
    default_grid,
    evaluate,
    minimize,
    reference_exact_energy,
    sweep_and_fit,
)

DEVICE_P2 = 1.8e-2

BACKENDS = ("ideal", "noisy")
MITIGATIONS = ("none", "readout", "rem", "readout+rem")
ANSATZE = {"compact": "compact-uccd", "uccsd": "uccsd", "hwe": "hardware-efficient"}
OPTIMIZERS = ("nelder-mead", "spsa", "sweep")
# A noisy op of k = 1 or 2 rotations stores a (3^k, 4^n / 2^k) int64 gather
# and float table: 24 * 4^n bytes per rotation alone, 18 * 4^n in a pair
# (nbytes at 4-8 qubits). The 30 rotations of a 10-qubit hardware-efficient
# chain all pair: 0.53 GiB. A higher limit needs a measured 11-qubit run.
_NOISY_LIMIT = 10
# Caps on the size options (README "Readout models" and "Datasets"): numpy
# draws int64 counts; a sweep keeps its angles and energies in arrays and
# tuples, about 150 B per grid point at peak; a calibration stacks its shares
# in (repeats, 2^n, 2^n) arrays, 20 MB each at the cap on 4 qubits, which
# _CALIBRATION_ENTRIES keeps on every width.
_CAPS = (("shots", 2**63 - 1), ("shots_per_state", 2**63 - 1),
         ("grid_points", 10**5), ("repeats", 10**4))
_CALIBRATION_ENTRIES = 10**4 * 4**4


class ConfigError(ValueError):
    """Invalid run configuration; maps to CLI exit code 2."""


@frozen
class RunConfig:
    molecule: str | None = None
    hamiltonian_path: str | None = None
    backend: str = "ideal"
    p2: float | None = None  # DEVICE_P2 on the noisy backend
    p1: float | None = None
    shots: int | None = None
    seed: int = 0
    mitigation: str = "none"
    confusion: str = "ideal"
    ansatz: str | None = None
    optimizer: str | None = None
    out: str | None = None
    svg: str | None = None
    r: float | None = None
    reference: str | None = None
    grid_points: int = default_grid().size
    shots_per_state: int = 1000
    repeats: int = 100

    @property
    def readout_flag(self) -> bool:
        return self.mitigation in ("readout", "readout+rem")

    @property
    def rem_flag(self) -> bool:
        return self.mitigation in ("rem", "readout+rem")


@frozen
class _Problem:
    """Validated, fully resolved run inputs."""

    cfg: RunConfig
    dataset: MoleculeDataset | None
    # the file's Hamiltonian, or the dataset's at --r (default equilibrium)
    hamiltonian: PauliHamiltonian
    spec: AnsatzSpec
    optimizer: str
    noise: NoiseModel | None  # None on the ideal backend
    applied_confusion: ConfusionMatrix | None
    # one unfolding matrix per measured pipeline (None: raw); the first is optimized
    unfolds: tuple[ConfusionMatrix | None, ...]


def _readout_truth(cfg: RunConfig, n_qubits: int | None) -> ConfusionMatrix | None:
    """The readout matrix cfg.confusion names, on n_qubits if given; None for `ideal`.

    `figure-s2`, `device` and `calibrate` name the stock device matrix, any
    other value a confusion CSV path.
    """
    # every command reaches this before its first seeded draw or written file
    for path in (cfg.out, cfg.svg):
        if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
            raise ConfigError(f"cannot write {path}: not a file in an existing directory")
    if cfg.out and cfg.svg and Path(cfg.out).resolve() == Path(cfg.svg).resolve():
        raise ConfigError(f"cannot write {cfg.svg}: --out names the same file")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    for budget in ("shots_per_state", "repeats"):  # calibration's, checked where unused too
        if getattr(cfg, budget) <= 0:
            raise ConfigError(f"{budget} must be positive")
    for name, cap in _CAPS:
        if (getattr(cfg, name) or 0) > cap:
            raise ConfigError(f"{name} must be at most {cap}, got {getattr(cfg, name)}")
    src = cfg.confusion
    if src == "ideal":
        return None
    if src in ("device", "figure-s2", "calibrate"):
        truth = device_confusion()
    else:
        path = Path(src)
        if not path.exists():
            raise ConfigError(f"confusion source {src!r} is not a known mode or a file")
        try:
            truth = read_confusion_csv(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{src}: {exc}") from None
    if n_qubits is not None and truth.n_qubits != n_qubits:
        raise ConfigError(
            f"confusion matrix covers {truth.n_qubits} qubits but the problem "
            f"has {n_qubits}"
        )
    return truth


def _calibrated(cfg: RunConfig, truth: ConfusionMatrix) -> ConfusionMatrix:
    """Prepare-and-measure estimate of truth with cfg's budget and seed."""
    cap = _CALIBRATION_ENTRIES // 4**truth.n_qubits
    if cfg.repeats > cap:
        raise ConfigError(
            f"repeats must be at most {cap} on {truth.n_qubits} qubits, got {cfg.repeats}"
        )
    return calibrate_confusion(truth, cfg.shots_per_state, cfg.repeats, cfg.seed)


def _resolve_ansatz(
    cfg: RunConfig, dataset: MoleculeDataset | None, n_qubits: int, hf_bitstring: str
) -> AnsatzSpec:
    name = cfg.ansatz
    if name is None:
        if dataset is not None and dataset.name == "h2":
            name = "compact"
        elif n_qubits in (2, 4):
            name = "uccsd"
        else:
            name = "hwe"
    if name not in ANSATZE:
        raise ConfigError(f"unknown ansatz {name!r} (choose from {', '.join(ANSATZE)})")
    # the compact circuit starts from its own reference state, |01>; a
    # --reference other than 01 is left to AnsatzSpec to reject
    hf = "01" if name == "compact" and cfg.reference is None else hf_bitstring
    try:
        return AnsatzSpec(ANSATZE[name], n_qubits, hf)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _noise_model(p2: float, p1: float | None) -> NoiseModel:
    try:
        return NoiseModel(p2, p1)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def resolve(cfg: RunConfig, every_pipeline: bool = False) -> _Problem:
    """Validate the configuration before any simulation starts, and decide the
    pipelines each point measures: raw, then unfolded when there is a matrix
    to unfold with, if `every_pipeline` (the curves); else the one pipeline
    readout mitigation selects."""
    if cfg.backend not in BACKENDS:
        raise ConfigError(f"unknown backend {cfg.backend!r}")
    if cfg.mitigation not in MITIGATIONS:
        raise ConfigError(f"unknown mitigation {cfg.mitigation!r}")
    noise = _noise_model(DEVICE_P2 if cfg.p2 is None else cfg.p2, cfg.p1)
    if cfg.backend == "ideal" and (cfg.p2, cfg.p1) != (None, None):
        raise ConfigError("p2 and p1 set gate noise, which only the noisy backend has")
    if cfg.shots is not None and cfg.shots <= 0:
        raise ConfigError("shots must be positive")
    if cfg.grid_points < 4:
        raise ConfigError("sweep grids need at least 4 points")
    if cfg.molecule is not None and cfg.hamiltonian_path is not None:
        raise ConfigError("give either a molecule or a Hamiltonian file, not both")

    dataset = None
    if cfg.molecule is not None:
        if cfg.reference is not None:
            raise ConfigError("--reference applies to Hamiltonian files, not molecules")
        try:
            dataset = builtin(cfg.molecule)
            r = dataset.equilibrium_r if cfg.r is None else cfg.r
            hamiltonian = dataset.geometry(r).hamiltonian
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        n_qubits = dataset.n_qubits
        hf = dataset.hf_bitstring
        hamiltonians = tuple(g.hamiltonian for g in dataset.geometries)
    elif cfg.hamiltonian_path is not None:
        if cfg.r is not None:
            raise ConfigError("--r picks a molecule's geometry; a file has only one")
        try:
            hamiltonian = load(cfg.hamiltonian_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        n_qubits = hamiltonian.n_qubits
        if n_qubits > _DENSE_LIMIT:
            raise ConfigError(
                f"{cfg.hamiltonian_path} has {n_qubits} qubits; exact "
                f"diagonalization is limited to {_DENSE_LIMIT}"
            )
        hamiltonians = (hamiltonian,)
        if cfg.reference is not None:
            if len(cfg.reference) != n_qubits or set(cfg.reference) - {"0", "1"}:
                raise ConfigError(
                    f"reference {cfg.reference!r} is not a {n_qubits}-bit string"
                )
            hf = cfg.reference
        else:
            if cfg.rem_flag:
                raise ConfigError(
                    "rem on a file-loaded Hamiltonian needs --reference "
                    "<bitstring> to define the reference state"
                )
            hf = "0" * n_qubits
    else:
        raise ConfigError("a molecule or a Hamiltonian file is required")
    if cfg.backend == "noisy" and n_qubits > _NOISY_LIMIT:
        raise ConfigError(
            f"the noisy backend is limited to {_NOISY_LIMIT} qubits (its Pauli-transfer "
            f"ops hold 4^n numbers each); the problem has {n_qubits}"
        )
    if cfg.shots is not None:
        # each measurement group needs a shot, at every geometry a command may run
        n_groups = max(len(_plan(h)[0]) for h in hamiltonians)
        if cfg.shots < n_groups:
            raise ConfigError(
                f"{cfg.shots} shots cannot cover the {n_groups} measurement "
                f"groups of one energy evaluation; give at least {n_groups}"
            )

    spec = _resolve_ansatz(cfg, dataset, n_qubits, hf)
    optimizer = cfg.optimizer
    if optimizer is None:
        if spec.n_params == 1:
            optimizer = "sweep"
        elif cfg.shots is not None:
            optimizer = "spsa"
        else:
            optimizer = "nelder-mead"
    if optimizer not in OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {optimizer!r}")
    if optimizer == "sweep" and spec.n_params != 1:
        raise ConfigError(
            f"the sweep optimizer needs a 1-parameter ansatz, "
            f"{spec.family} has {spec.n_params}"
        )
    applied = _readout_truth(cfg, n_qubits)
    if cfg.readout_flag and applied is None:
        raise ConfigError("readout mitigation needs a confusion source other than 'ideal'")
    unfolds = (None,)  # raw
    if applied is not None and (cfg.readout_flag or every_pipeline):
        # calibrate applies the stock matrix and unfolds with an estimate
        unfolding = _calibrated(cfg, applied) if cfg.confusion == "calibrate" else applied
        if unfolding._kkt is None:  # unfold's full KKT matrix, probed when it was built
            raise ConfigError(
                f"confusion source {cfg.confusion!r}: the unfolding matrix is singular"
            )
        unfolds = (None, unfolding) if every_pipeline else (unfolding,)
    return _Problem(
        cfg, dataset, hamiltonian, spec, optimizer,
        noise if cfg.backend == "noisy" else None, applied, unfolds,
    )


@frozen
class PointResult:
    """One point's record: the exact ground energy, the REM report of each
    measured pipeline, the optimum theta, and the optimizer outcome or the
    sweep fit that chose it. Its first report is raw on a curve, its last
    unfolded (the raw one again when nothing unfolds).
    """

    e_exact: float
    reports: tuple[RemReport, ...]
    theta: tuple[float, ...]
    outcome: VqeOutcome | None
    fit: SweepFit | None

    e_vqe = property(lambda self: self.reports[0].e_vqe_min)
    e_vqe_readout = property(lambda self: self.reports[-1].e_vqe_min)
    e_rem = property(lambda self: self.reports[0].e_rem)
    e_readout_rem = property(lambda self: self.reports[-1].e_rem)
    converged = property(lambda self: self.outcome is None or self.outcome.converged)


def _run_point(problem: _Problem, h: PauliHamiltonian, point: int) -> PointResult:
    """Optimize at `point`, then correct each pipeline's energy at the optimum.

    The pipelines are `problem.unfolds`: the first is optimized and the
    others share its theta and every random draw. A sweep fits each pipeline
    on the same grid and takes both REM energies from the fit, its minimum
    and its value at theta = 0; otherwise the optimum and the reference
    state (all parameters 0) are measured afresh under their own evaluation
    indices.
    """
    evs = [
        EnergyEvaluator(
            h, problem.spec, noise=problem.noise, shots=problem.cfg.shots, seed=problem.cfg.seed,
            confusion=problem.applied_confusion, unfold_matrix=matrix, point=point,
        )
        for matrix in problem.unfolds
    ]
    e_exact = ground_state_energy(h)[0]
    e_exact_ref = reference_exact_energy(evs[0])
    if problem.optimizer == "sweep":
        grid = default_grid(problem.cfg.grid_points)
        fits = [sweep_and_fit(ev, grid) for ev in evs]
        outcome, fit, theta = None, fits[0], (fits[0].theta_min,)
        measured = [(f.e_min, f.value_at(0.0)) for f in fits]
    else:
        outcome, fit = minimize(evs[0], optimizer=problem.optimizer), None
        theta = outcome.theta
        measured = [
            (evaluate(ev, theta, index=MEASURE_INDEX),
             evaluate(ev, np.zeros(len(theta)), index=REFERENCE_INDEX))
            for ev in evs
        ]
    reports = tuple(RemReport(ref, e_exact_ref, e_min, e_exact) for e_min, ref in measured)
    return PointResult(e_exact, reports, theta, outcome, fit)


_REPORT_ENERGIES = ("e_exact_ref", "e_vqe_ref", "delta_rem", "e_vqe_min", "e_rem", "e_exact_min",
                    "err_vqe", "err_rem")  # of a single-point report, in printed order


def _values(point: PointResult) -> dict:
    """A point's printed values, which every writer selects from: the first report's
    fields, the last one's under readout names, and theta, convergence and count."""
    first, last = point.reports[0], point.reports[-1]
    return {
        **{name: getattr(first, name) for name in _REPORT_ENERGIES},
        "e_vqe_readout": last.e_vqe_min, "e_readout_rem": last.e_rem,
        "err_readout": last.err_vqe, "err_readout_rem": last.err_rem,
        "theta_min": list(point.theta), "converged": point.converged,
        "n_evaluations": point.outcome.n_evaluations if point.fit is None else len(point.fit.grid),
    }


_PIPELINES = (  # in CSV column order: _values keys, dissociation and noise-sweep labels, color
    ("e_vqe_min", "err_vqe", "vqe", "vqe", "#c62828"),
    ("e_vqe_readout", "err_readout", "vqe+readout", "readout", "#ef6c00"),
    ("e_rem", "err_rem", "rem", "rem", "#1565c0"),
    ("e_readout_rem", "err_readout_rem", "readout+rem", "readout+rem", "#2e7d32"),
)
_DISSOCIATION_COLUMNS = dict(  # CSV header name=_values key
    e_exact="e_exact_min", e_vqe="e_vqe_min", e_vqe_readout="e_vqe_readout", e_rem="e_rem",
    e_readout_rem="e_readout_rem", err_vqe="err_vqe", err_rem="err_readout_rem")
_BAND = (0.0, 1.6e-3)  # chemical accuracy, shaded on the error plots


def _columns(points) -> dict:
    """Each name of _values, mapped to its values across the points."""
    rows = [_values(p) for p in points]
    return {name: tuple(row[name] for row in rows) for name in rows[0]}


def _curve_csv(head: list[str], xs, columns) -> str:
    """The head lines, then one row per x: x and each column's value there."""
    rows = (f"{x:g}," + ",".join(f"{v:.6f}" for v in row) for x, row in zip(xs, zip(*columns)))
    return "\n".join([*head, *rows]) + "\n"


def _write(cfg: RunConfig, text: str, panels=()) -> None:
    """Write text to cfg.out and the chart panels, (series, line_chart options)
    pairs, as one SVG to cfg.svg, once both are built."""
    outputs = [(cfg.out, text)]
    if cfg.svg and panels:  # single-point and calibrate chart nothing
        outputs.append((cfg.svg, _svg.document([_svg.line_chart(s, **kw) for s, kw in panels])))
    for path, content in outputs:
        if path:
            Path(path).write_text(content)


@frozen
class DissociationResult:
    rs: tuple[float, ...]
    points: tuple[PointResult, ...]
    text: str
    warnings: tuple[str, ...]


def cmd_dissociation(cfg: RunConfig) -> DissociationResult:
    """Four-pipeline energies across a molecule's dissociation series."""
    if cfg.r is not None:
        raise ConfigError(f"dissociation runs at every geometry of the series, not at r={cfg.r}")
    problem = resolve(cfg, every_pipeline=True)
    if problem.dataset is None:
        raise ConfigError("dissociation runs over a builtin molecule dataset")
    geometries = problem.dataset.geometries
    if len(geometries) < 2:
        raise ConfigError(
            f"{problem.dataset.name} has a single geometry; use single-point"
        )
    points = [_run_point(problem, g.hamiltonian, i) for i, g in enumerate(geometries)]
    rs = tuple(g.r for g in geometries)
    col = _columns(points)
    text = _curve_csv(["r," + ",".join(_DISSOCIATION_COLUMNS)], rs,
                      [col[key] for key in _DISSOCIATION_COLUMNS.values()])
    _write(cfg, text, [
        (
            [_svg.Series("exact", rs, col["e_exact_min"], "#222222")]
            + [_svg.Series(label, rs, col[energy], color, markers=True)
               for energy, _, label, _, color in _PIPELINES],
            dict(title="Dissociation curve", xlabel="r (angstrom)", ylabel="energy (hartree)"),
        ),
        (
            [_svg.Series(f"err {short}", rs, tuple(map(abs, col[error])), color, markers=True)
             for _, error, _, short, color in (_PIPELINES[0], _PIPELINES[-1])],
            dict(title="Absolute error", xlabel="r (angstrom)", ylabel="|error| (hartree)",
                 band=_BAND),
        ),
    ])
    warnings = tuple(f"r={r:g}: optimizer did not converge"
                     for r, converged in zip(rs, col["converged"]) if not converged)
    return DissociationResult(rs, tuple(points), text, warnings)


@frozen
class NoiseSweepResult:
    p2_values: tuple[float, ...]
    err_vqe: tuple[float, ...]
    err_readout: tuple[float, ...]
    err_rem: tuple[float, ...]
    err_readout_rem: tuple[float, ...]
    csv: str


def default_p2_grid() -> tuple[float, ...]:
    return tuple(float(v) for v in np.geomspace(1e-4, 5e-2, 14))


def cmd_noise_sweep(cfg: RunConfig, p2_grid=None) -> NoiseSweepResult:
    """Absolute errors of the four pipelines vs two-qubit error rate.

    Runs the 1-parameter sweep protocol at one geometry (--r, default
    equilibrium) for each p2; p1 keeps the NoiseModel default unless pinned.
    """
    if cfg.p2 is not None:
        raise ConfigError(f"noise sweeps take p2 from p2_grid, not p2={cfg.p2}")
    grid = tuple(float(v) for v in (default_p2_grid() if p2_grid is None else p2_grid))
    if not grid:
        raise ConfigError("p2 grid is empty")
    noises = [_noise_model(p2, cfg.p1) for p2 in grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("p2 grid must be strictly increasing")
    if cfg.svg and grid[0] <= 0:
        raise ConfigError(f"the SVG's p2 axis is logarithmic; p2={grid[0]:g} cannot be plotted")
    if cfg.hamiltonian_path is not None:
        raise ConfigError("noise sweeps run on builtin molecules only")
    base = replace(cfg, backend="noisy", molecule=cfg.molecule or "h2")
    problem = resolve(base, every_pipeline=True)
    if problem.optimizer != "sweep":  # resolve picks sweep for every 1-parameter ansatz
        raise ConfigError(
            "noise sweeps use the 1-parameter sweep protocol on a builtin molecule, "
            f"not the {problem.optimizer} optimizer on the {problem.spec.family} ansatz"
        )

    points = [
        _run_point(replace(problem, noise=noise), problem.hamiltonian, i)
        for i, noise in enumerate(noises)
    ]
    col = _columns(points)
    errors = [tuple(map(abs, col[error])) for _, error, *_ in _PIPELINES]
    head = ",".join(["p2", *(error for _, error, *_ in _PIPELINES)])
    csv = _curve_csv([head, f"# device p2={DEVICE_P2:.6f}"], grid, errors)
    _write(cfg, csv, [(
        [_svg.Series(short, grid, err, color, markers=True)
         for (*_, short, color), err in zip(_PIPELINES, errors)],
        dict(title="Error vs depolarizing rate", xlabel="two-qubit error probability p2",
             ylabel="|error| (hartree)", logx=True, band=_BAND, vline=DEVICE_P2),
    )])
    return NoiseSweepResult(grid, *errors, csv)


@frozen
class SinglePointResult:
    point: PointResult  # of the one pipeline --mitigation selects
    record: dict
    text: str
    warnings: tuple[str, ...]

    report = property(lambda self: self.point.reports[0])
    outcome = property(lambda self: self.point.outcome)
    converged = property(lambda self: self.point.converged)


def cmd_single_point(cfg: RunConfig) -> SinglePointResult:
    """Reference evaluation, minimization, and correction at one geometry, of
    the one pipeline `resolve` selects; errors compare against exact diagonalization."""
    problem = resolve(cfg)
    label = str(cfg.hamiltonian_path) if problem.dataset is None else problem.dataset.name
    point = _run_point(problem, problem.hamiltonian, 0)
    values = _values(point)
    noise = problem.noise or NoiseModel()
    record = {
        "problem": label,
        "r": cfg.r if problem.dataset is None or cfg.r is not None
        else problem.dataset.equilibrium_r,
        "backend": cfg.backend,
        "p2": noise.p2,
        "p1": noise.p1,
        "shots": cfg.shots,
        "seed": cfg.seed,
        "ansatz": problem.spec.family,
        "optimizer": problem.optimizer,
        "mitigation": cfg.mitigation,
        **{k: values[k] for k in ("theta_min", *_REPORT_ENERGIES, "converged", "n_evaluations")},
    }
    rows = [
        ("problem", label),
        ("ansatz", f"{problem.spec.family} ({problem.spec.n_params} parameters)"),
        ("optimizer", problem.optimizer + ("" if values["converged"] else "  [not converged]")),
        *((name, f"{values[name]:+.6f}") for name in _REPORT_ENERGIES),
    ]
    payload = json.dumps(record, indent=2) + "\n"
    text = "".join(f"{name + ':':<14}{value}\n" for name, value in rows) + "\n" + payload
    _write(cfg, payload)
    warnings = () if values["converged"] else ("optimizer did not converge",)
    return SinglePointResult(point, record, text, warnings)


def cmd_calibrate(cfg: RunConfig) -> ConfusionMatrix:
    """Prepare-and-measure calibration against the configured readout model,
    on the molecule's qubits or else the source's own (2 for `ideal`)."""
    n_qubits = None
    if cfg.molecule is not None:
        try:
            n_qubits = builtin(cfg.molecule).n_qubits
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    truth = _readout_truth(cfg, n_qubits) or ConfusionMatrix.identity(n_qubits or 2)
    estimate = _calibrated(cfg, truth)
    _write(cfg, format_confusion_csv(estimate))
    return estimate
