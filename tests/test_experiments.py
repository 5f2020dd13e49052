"""Experiment drivers: config resolution, the four pipelines, file outputs."""
import json
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import replace
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest
from hypothesis import given, strategies as st

from remvqe import (
    ConfusionMatrix,
    NoiseModel,
    builtin,
    device_confusion,
    format_confusion_csv,
    h2_compact_spec,
    read_confusion_csv,
)
from remvqe import experiments, mitigation, sim, vqe
from remvqe.experiments import (
    ANSATZE,
    BACKENDS,
    DEVICE_P2,
    MEASURE_INDEX,
    ConfigError,
    RunConfig,
    _run_point,
    cmd_calibrate,
    cmd_dissociation,
    cmd_noise_sweep,
    cmd_single_point,
    default_p2_grid,
    resolve,
)
from remvqe._svg import escape
from remvqe.vqe import REFERENCE_INDEX
from helpers import dump, four_pipelines


def h2_file(tmp_path) -> str:
    return str(dump(builtin("h2"), tmp_path)[4])  # r=0.7414


# --- configuration -----------------------------------------------------------


def test_mitigation_flags():
    assert not RunConfig(mitigation="none").readout_flag
    assert not RunConfig(mitigation="none").rem_flag
    assert RunConfig(mitigation="readout").readout_flag
    assert not RunConfig(mitigation="readout").rem_flag
    assert RunConfig(mitigation="rem").rem_flag
    assert RunConfig(mitigation="readout+rem").readout_flag
    assert RunConfig(mitigation="readout+rem").rem_flag


def test_measure_index_disjoint_from_reference():
    assert MEASURE_INDEX == REFERENCE_INDEX + 1


BAD_CONFIGS = [
    (dict(molecule="h2", backend="exact"), "unknown backend"),
    (dict(molecule="h2", mitigation="zne"), "unknown mitigation"),
    (dict(molecule="h2", p2=1.5), r"p2 must lie in \[0, 1\]"),
    (dict(molecule="h2", p1=-0.1), r"p1 must lie in \[0, 1\]"),
    (dict(molecule="h2", shots=0), "shots must be positive"),
    (dict(molecule="h2", confusion="calibrate", repeats=0), "repeats must be positive"),
    (dict(molecule="h2", grid_points=3), "at least 4 points"),
    (dict(molecule="h2", hamiltonian_path="x.txt"), "not both"),
    (dict(), "a molecule or a Hamiltonian file is required"),
    (dict(molecule="xyz"), "unknown molecule"),
    (dict(molecule="lih", ansatz="compact"), "2-qubit only"),
    (dict(molecule="h2", ansatz="adapt"), "unknown ansatz"),
    (dict(molecule="heh+", optimizer="bfgs"), "unknown optimizer"),
    (dict(molecule="heh+", optimizer="sweep"), "1-parameter ansatz"),
    (dict(molecule="h2", mitigation="readout"), "other than 'ideal'"),
    (dict(molecule="h2", confusion="/nonexistent.csv"), "not a known mode or a file"),
    (dict(molecule="lih", confusion="figure-s2"), "covers 2 qubits but the problem has 4"),
    (
        dict(molecule="h2", confusion="calibrate", shots_per_state=0),
        "shots_per_state must be positive",
    ),
    (dict(molecule="h2", seed=-1), "seed must be non-negative"),
    (dict(molecule="heh+", shots=3), "3 shots cannot cover the 4 measurement groups"),
    (dict(molecule="h2", reference="10"), "--reference applies to Hamiltonian files"),
    # gate error rates are meaningless on the ideal backend, even the default one
    (dict(molecule="h2", p2=0.5), "only the noisy backend has"),
    (dict(molecule="h2", p1=0.2), "only the noisy backend has"),
    (dict(molecule="h2", backend="ideal", p2=DEVICE_P2), "only the noisy backend has"),
    # the calibration budget is checked even where nothing is calibrated
    (dict(molecule="h2", confusion="figure-s2", repeats=-2), "repeats must be positive"),
]


@pytest.mark.parametrize("kwargs,fragment", BAD_CONFIGS)
def test_resolve_rejects_bad_configs(kwargs, fragment):
    with pytest.raises(ConfigError, match=fragment):
        resolve(RunConfig(**kwargs))


def test_resolve_file_reference_validation(tmp_path):
    path = h2_file(tmp_path)
    with pytest.raises(ConfigError, match="not a 2-bit string"):
        resolve(RunConfig(hamiltonian_path=path, reference="012"))
    with pytest.raises(ConfigError, match="needs --reference"):
        resolve(RunConfig(hamiltonian_path=path, mitigation="rem"))
    resolve(RunConfig(hamiltonian_path=path, mitigation="rem", reference="01"))


def test_resolve_rejects_unknown_geometry():
    with pytest.raises(ValueError, match="has no geometry"):
        resolve(RunConfig(molecule="h2", r=0.5))


def test_resolve_defaults():
    p = resolve(RunConfig(molecule="h2"))
    assert p.spec.n_params == 1 and p.optimizer == "sweep"
    p = resolve(RunConfig(molecule="heh+"))
    assert p.spec.family.startswith("uccsd") and p.optimizer == "nelder-mead"
    p = resolve(RunConfig(molecule="lih", shots=1000))
    assert p.spec.family.startswith("uccsd") and p.optimizer == "spsa"
    p = resolve(RunConfig(molecule="lih", ansatz="hwe"))
    assert p.spec.n_params == 12
    assert resolve(RunConfig(molecule="h2")).noise is None
    assert resolve(RunConfig(molecule="h2", backend="noisy")).noise.p2 == DEVICE_P2


def test_resolved_readout_problems_compare_equal():
    # each holds confusion matrices; the calibrated one draws at the config's seed
    for confusion in ("figure-s2", "calibrate"):
        cfg = RunConfig(molecule="h2", backend="noisy", shots=1000, confusion=confusion,
                        mitigation="readout+rem", repeats=2)
        one, other = resolve(cfg), resolve(cfg)
        assert len(one.unfolds) == 1 and one.unfolds[0] is not None
        assert one == other and hash(one) == hash(other)
    assert resolve(cfg).unfolds != resolve(replace(cfg, seed=1)).unfolds
    evaluators = [vqe.EnergyEvaluator(p.hamiltonian, p.spec, p.noise, 1000, confusion=p.applied_confusion,
                                      unfold_matrix=p.unfolds[0]) for p in (one, other)]
    assert evaluators[0] == evaluators[1]


def test_resolve_hwe_chain_for_odd_widths(tmp_path):
    path = tmp_path / "three.txt"
    path.write_text("qubits=3\nZII 1.0\nIZI 0.5\n")
    p = resolve(RunConfig(hamiltonian_path=str(path)))
    assert p.spec.family == "hardware-efficient"
    assert p.spec.n_qubits == 3
    with pytest.raises(ConfigError, match="cover 2 or 4 qubits"):
        resolve(RunConfig(hamiltonian_path=str(path), ansatz="uccsd"))


def test_resolve_readout_sources():
    # each pipeline's unfolding matrix, None for raw; the first is optimized
    for every_pipeline in (False, True):
        p = resolve(RunConfig(molecule="h2"), every_pipeline)
        assert p.applied_confusion is None and p.unfolds == (None,)
    cfg = RunConfig(molecule="h2", confusion="figure-s2")
    p = resolve(cfg)
    assert np.array_equal(p.applied_confusion.matrix, device_confusion().matrix)
    assert p.unfolds == (None,)  # a single point without readout mitigation measures raw
    p = resolve(replace(cfg, mitigation="readout"))
    assert len(p.unfolds) == 1 and p.unfolds[0] is p.applied_confusion
    p = resolve(cfg, every_pipeline=True)
    assert len(p.unfolds) == 2 and p.unfolds[0] is None and p.unfolds[1] is p.applied_confusion
    # calibrate mode unfolds with an estimate, not the true matrix
    p = resolve(
        RunConfig(molecule="h2", confusion="calibrate", shots_per_state=200, repeats=4),
        every_pipeline=True,
    )
    assert np.array_equal(p.applied_confusion.matrix, device_confusion().matrix)
    raw, unfolding = p.unfolds
    assert raw is None
    assert not np.array_equal(unfolding.matrix, p.applied_confusion.matrix)
    assert np.max(np.abs(unfolding.matrix - p.applied_confusion.matrix)) < 0.05


def test_resolve_confusion_from_file(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(format_confusion_csv(device_confusion()))
    p = resolve(RunConfig(molecule="h2", confusion=str(path), mitigation="readout"))
    assert np.allclose(p.applied_confusion.matrix, device_confusion().matrix, atol=1e-7)
    bad = tmp_path / "bad.csv"
    bad.write_text("not a matrix\n")
    with pytest.raises(ConfigError, match="bad.csv"):
        resolve(RunConfig(molecule="h2", confusion=str(bad)))


def test_resolve_rejects_a_singular_calibrated_estimate(monkeypatch):
    # one shot per state: seed 0 reads two prepared states as the same outcome
    cfg = RunConfig(molecule="h2", confusion="calibrate", shots_per_state=1, repeats=1)
    with monkeypatch.context() as m:  # nothing unfolds, so nothing is calibrated
        m.setattr(experiments, "calibrate_confusion", lambda *a: pytest.fail("calibrated"))
        assert resolve(cfg).unfolds == (None,)
    for kwargs in ({"mitigation": "readout"}, {"mitigation": "readout+rem"}, {}):
        with pytest.raises(ConfigError, match="'calibrate': the unfolding matrix is singular"):
            resolve(replace(cfg, **kwargs), every_pipeline=not kwargs)


# --- four_pipelines ----------------------------------------------------------


def test_four_pipelines_ideal_h2_recovers_exact():
    p = four_pipelines(RunConfig(molecule="h2"))
    assert p.converged
    assert p.e_vqe == pytest.approx(p.e_exact, abs=1e-6)
    assert p.e_vqe_readout == p.e_vqe
    assert p.e_rem == pytest.approx(p.e_vqe, abs=1e-9)
    assert p.e_readout_rem == pytest.approx(p.e_vqe, abs=1e-9)
    assert len(p.theta) == 1


def test_four_pipelines_deterministic_heh_point():
    cfg = RunConfig(
        molecule="heh+",
        r=0.7899,
        backend="noisy",
        p2=DEVICE_P2,
        confusion="figure-s2",
        mitigation="readout+rem",
    )
    p = four_pipelines(cfg)
    assert p.converged
    assert p.e_exact == pytest.approx(-2.8542, abs=1e-6)
    assert p.e_readout_rem - p.e_exact == pytest.approx(0.0015309, abs=1e-6)
    assert abs(p.e_readout_rem - p.e_exact) < 2e-3
    # shotless noisy runs are fully deterministic
    q = four_pipelines(cfg)
    assert (p.e_vqe, p.e_vqe_readout, p.e_rem, p.e_readout_rem) == (
        q.e_vqe,
        q.e_vqe_readout,
        q.e_rem,
        q.e_readout_rem,
    )


def test_four_pipelines_file_loaded_hamiltonian(tmp_path):
    cfg = RunConfig(hamiltonian_path=h2_file(tmp_path), reference="01")
    p = four_pipelines(cfg)
    assert p.e_exact == pytest.approx(-1.1373, abs=5e-4)
    assert p.e_vqe == pytest.approx(p.e_exact, abs=1e-5)


# --- dissociation ------------------------------------------------------------

HEADER = "r,e_exact,e_vqe,e_vqe_readout,e_rem,e_readout_rem,err_vqe,err_rem"


def test_dissociation_ideal_h2():
    res = cmd_dissociation(RunConfig(molecule="h2"))
    lines = res.csv.strip().split("\n")
    assert lines[0] == HEADER
    assert len(lines) == 13
    assert res.warnings == ()
    assert res.rs == tuple(g.r for g in builtin("h2").geometries)
    for p in res.points:
        assert abs(p.e_vqe - p.e_exact) < 1e-6
    # csv error columns restate the stored energies
    first = lines[1].split(",")
    assert float(first[6]) == pytest.approx(
        res.points[0].e_vqe - res.points[0].e_exact, abs=1e-6
    )
    assert float(first[7]) == pytest.approx(
        res.points[0].e_readout_rem - res.points[0].e_exact, abs=1e-6
    )


def test_dissociation_rejects_a_single_geometry():
    # r names one geometry; the series runs them all, so r is refused
    with pytest.raises(ConfigError, match="every geometry of the series, not at r=0.7414"):
        cmd_dissociation(RunConfig(molecule="h2", r=0.7414))


def test_dissociation_rejects_single_geometry_dataset():
    with pytest.raises(ConfigError, match="single geometry"):
        cmd_dissociation(RunConfig(molecule="lih"))


def test_dissociation_rejects_a_hamiltonian_file(tmp_path):
    with pytest.raises(ConfigError, match="dissociation runs over a builtin molecule dataset"):
        cmd_dissociation(RunConfig(hamiltonian_path=h2_file(tmp_path)))


def noisy_h2_cfg(**kwargs) -> RunConfig:
    return RunConfig(
        molecule="h2",
        backend="noisy",
        p2=DEVICE_P2,
        shots=5000,
        seed=42,
        confusion="figure-s2",
        mitigation="readout+rem",
        **kwargs,
    )


def test_dissociation_noisy_h2_mitigation_wins_everywhere():
    res = cmd_dissociation(noisy_h2_cfg())
    errs_vqe = [abs(p.e_vqe - p.e_exact) for p in res.points]
    errs_rem = [abs(p.e_readout_rem - p.e_exact) for p in res.points]
    for ev, er in zip(errs_vqe, errs_rem):
        assert er < ev
    near = [er for r, er in zip(res.rs, errs_rem) if r <= 1.0]
    assert sum(near) / len(near) < 2e-3
    assert max(errs_rem) < 5e-3


def test_dissociation_runs_are_reproducible():
    a = cmd_dissociation(noisy_h2_cfg())
    b = cmd_dissociation(noisy_h2_cfg())
    assert a.csv == b.csv


@pytest.mark.parametrize("optimizer", ["sweep", "nelder-mead"])
def test_dissociation_points_keep_their_reports(optimizer):
    res = cmd_dissociation(noisy_h2_cfg(optimizer=optimizer))
    for p in res.points:
        raw, unfolded = p.reports
        assert raw.e_vqe_min != unfolded.e_vqe_min and raw.delta_rem != unfolded.delta_rem
        assert (p.e_vqe, p.e_rem, p.e_vqe_readout, p.e_readout_rem) == (
            raw.e_vqe_min, raw.e_rem, unfolded.e_vqe_min, unfolded.e_rem
        )
        assert p.e_exact == raw.e_exact_min == unfolded.e_exact_min
        if optimizer == "sweep":
            assert p.outcome is None and p.theta == (p.fit.theta_min,)
        else:
            assert p.fit is None and p.theta == p.outcome.theta
    assert res.warnings == tuple(
        f"r={r:g}: optimizer did not converge"
        for r, p in zip(res.rs, res.points) if not p.converged
    )


def test_dissociation_prepares_each_grid_state_once(monkeypatch):
    # the state depends on the angle and the noise model, not on the bond
    # length or the pipeline: the kernel runs once per grid angle, and each
    # evaluation reads its state once; the state's basis distributions are
    # computed once, when its sampling grid is built, since h2's geometries
    # share their bases and both pipelines apply the one stock matrix
    sim._program.cache_clear()
    kernel, calls = [], Counter()
    run = sim._TransferProgram.run

    def spy_run(program, bound):
        kernel.append(tuple(bound))
        return run(program, bound)

    def counted(module, name):
        original = getattr(module, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return spy

    monkeypatch.setattr(sim._TransferProgram, "run", spy_run)
    monkeypatch.setattr(vqe, "run_density", counted(vqe, "run_density"))
    basis = counted(sim, "_basis_probabilities")
    for module in (sim, vqe):
        monkeypatch.setattr(module, "_basis_probabilities", basis)
    cfg = noisy_h2_cfg()
    res = cmd_dissociation(cfg)
    evaluations = len(res.points) * cfg.grid_points * 2  # raw and unfolded
    assert evaluations == 600
    assert len(kernel) == len(set(kernel)) == cfg.grid_points == 25
    assert len({vqe._plan(g.hamiltonian)[0] for g in builtin("h2").geometries}) == 1
    assert calls == {"run_density": evaluations, "_basis_probabilities": cfg.grid_points}


def test_dissociation_plans_each_geometry_once_and_builds_each_grid_once(monkeypatch):
    # one curve groups each geometry's Hamiltonian once (vqe._plan), and
    # rounds each state's distributions onto its sampling grid once per
    # (labels, C) (sim._sampling_grid): every later evaluation of the state,
    # at any bond length and in either pipeline, draws from the kept grid
    from remvqe.ansatz import ansatz_circuit

    vqe._plan.cache_clear()
    sim._program.cache_clear()
    grouped, folds = [], []
    group_terms, on_grid = vqe.group_terms, sim.on_grid
    monkeypatch.setattr(vqe, "group_terms", lambda h: grouped.append(h) or group_terms(h))
    monkeypatch.setattr(sim, "on_grid", lambda p: folds.append(p) or on_grid(p))
    cfg = noisy_h2_cfg()
    res = cmd_dissociation(cfg)
    assert len(grouped) == len(set(grouped)) == len(res.points) == 12
    program = sim._program(ansatz_circuit(h2_compact_spec()), NoiseModel(p2=DEVICE_P2))
    keys = [key for state in program.memo.values()
            for key in state._distributions if isinstance(key[0], tuple)]
    assert len(folds) == len(keys) == len(program.memo) == cfg.grid_points


def test_readout_rem_sweep_point_hashes_each_key_once(monkeypatch):
    # the sweep's 25 keys share a block of 64 indices, hashed in one pass
    # from one SeedSequence pool of the seed and the point; the unfolded
    # sweep draws every key of the raw sweep again, and finds their state
    # words kept
    problem = resolve(noisy_h2_cfg(), every_pipeline=True)
    keys = []
    pools = []

    def spy(*key):
        keys.append(key)
        return mitigation._stream(*key)

    def seed_sequence(*args, **kwargs):
        pools.append((args, kwargs))
        return built(*args, **kwargs)

    built = np.random.SeedSequence
    monkeypatch.setattr(vqe, "_stream", spy)
    monkeypatch.setattr(np.random, "SeedSequence", seed_sequence)
    mitigation._block_words.cache_clear()
    h = problem.dataset.geometry(problem.dataset.equilibrium_r).hamiltonian
    _run_point(problem, h, 3)
    info = mitigation._block_words.cache_info()
    distinct = set(keys)
    assert distinct == {(42, 3, index) for index in range(problem.cfg.grid_points)}
    assert Counter(keys) == {key: 2 for key in distinct}
    assert (info.misses, info.hits) == (1, len(keys) - 1)
    assert pools == [((42,), {"spawn_key": (3,)})]


def test_dissociation_output_files(tmp_path):
    out = tmp_path / "curve.csv"
    svg = tmp_path / "curve.svg"
    res = cmd_dissociation(RunConfig(molecule="h2", out=str(out), svg=str(svg)))
    assert out.read_text() == res.csv
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    plain = cmd_dissociation(RunConfig(molecule="h2"))
    assert plain.csv == res.csv


@given(st.text(st.sampled_from("&<>\"'; a#1") | st.characters(), max_size=40))
def test_svg_escape_matches_saxutils(text):
    assert escape(text) == sax_escape(text)


# --- noise sweep -------------------------------------------------------------


def test_default_p2_grid_shape():
    grid = default_p2_grid()
    assert len(grid) == 14
    assert grid[0] == pytest.approx(1e-4)
    assert grid[-1] == pytest.approx(5e-2)
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_noise_sweep_csv_layout():
    res = cmd_noise_sweep(RunConfig(molecule="h2"), p2_grid=(1e-3, 1e-2))
    lines = res.csv.strip().split("\n")
    assert lines[0] == "p2,err_vqe,err_readout,err_rem,err_readout_rem"
    assert lines[1] == "# device p2=0.018000"
    assert len(lines) == 4


def test_noise_sweep_zero_rate_columns_coincide():
    # without a confusion source the readout pipeline is the raw pipeline,
    # and sampling noise is all that remains at p2=0
    res = cmd_noise_sweep(RunConfig(molecule="h2", shots=20000), p2_grid=(0.0,))
    assert res.err_vqe[0] == res.err_readout[0]
    assert res.err_rem[0] == res.err_readout_rem[0]
    assert res.err_vqe[0] == pytest.approx(0.0005034085, abs=1e-9)
    assert res.err_rem[0] == pytest.approx(0.0003114946, abs=1e-9)
    assert res.err_rem[0] < res.err_vqe[0]
    assert all(v < 5e-3 for v in res.err_vqe + res.err_rem)


def test_noise_sweep_device_rate_ratio():
    res = cmd_noise_sweep(
        RunConfig(molecule="h2", confusion="figure-s2", mitigation="readout+rem"),
        p2_grid=(DEVICE_P2,),
    )
    assert res.err_vqe[0] / res.err_readout_rem[0] >= 10
    assert res.err_readout[0] == pytest.approx(0.0180842, abs=1e-6)
    assert res.err_readout_rem[0] == pytest.approx(0.0004204, abs=1e-6)


def test_noise_sweep_guards(tmp_path):
    with pytest.raises(ConfigError, match="builtin molecules only"):
        cmd_noise_sweep(RunConfig(hamiltonian_path=h2_file(tmp_path)))
    for grid in ((-0.1, 0.1), (0.5, 2.0), (float("nan"),)):
        with pytest.raises(ConfigError, match=r"p2 must lie in \[0, 1\]"):
            cmd_noise_sweep(RunConfig(molecule="h2"), p2_grid=grid)
    with pytest.raises(ConfigError, match="strictly increasing"):
        cmd_noise_sweep(RunConfig(molecule="h2"), p2_grid=(0.01, 0.01))
    with pytest.raises(ConfigError, match="p2 grid is empty"):
        cmd_noise_sweep(RunConfig(molecule="h2"), p2_grid=())
    with pytest.raises(ConfigError, match="1-parameter sweep protocol"):
        cmd_noise_sweep(RunConfig(molecule="lih"))
    # a single p2 would be dropped for the grid's, so it is refused
    with pytest.raises(ConfigError, match="p2 from p2_grid, not p2=0.5"):
        cmd_noise_sweep(RunConfig(molecule="h2", p2=0.5), p2_grid=(0.001, 0.01))
    # the CLI has no --optimizer on noise-sweep; a library caller's other
    # optimizer is refused, not replaced by a sweep
    for optimizer in ("nelder-mead", "spsa"):
        with pytest.raises(ConfigError, match=f"not the {optimizer} optimizer on the compact-uccd"):
            cmd_noise_sweep(RunConfig(molecule="h2", optimizer=optimizer, grid_points=5), p2_grid=(0.001, 0.01))


def test_noise_sweep_defaults_to_h2(tmp_path):
    out = tmp_path / "sweep.csv"
    res = cmd_noise_sweep(RunConfig(out=str(out)), p2_grid=(1e-3, 5e-3))
    assert out.read_text() == res.csv
    assert res.p2_values == (1e-3, 5e-3)
    assert res.err_vqe[0] < res.err_vqe[1]


# --- single point ------------------------------------------------------------

RECORD_KEYS = {
    "problem", "r", "backend", "p2", "p1", "shots", "seed", "ansatz", "optimizer",
    "mitigation", "theta_min", "e_exact_ref", "e_vqe_ref", "delta_rem", "e_vqe_min",
    "e_rem", "e_exact_min", "err_vqe", "err_rem", "converged", "n_evaluations",
}


def test_single_point_ideal_h2():
    res = cmd_single_point(RunConfig(molecule="h2"))
    assert res.converged
    assert res.fit is not None and res.outcome is None
    assert set(res.record) == RECORD_KEYS
    assert res.record["p2"] == 0.0 and res.record["p1"] == 0.0
    assert res.record["r"] == 0.7414
    assert res.report.delta_rem == pytest.approx(0.0, abs=1e-9)
    assert res.report.e_vqe_min == pytest.approx(-1.1373, abs=5e-4)
    for line in ("problem:", "delta_rem:", "e_rem:", "err_rem:"):
        assert line in res.text
    assert "[not converged]" not in res.text
    assert json.loads(res.text.split("\n\n", 1)[1]) == res.record


@pytest.mark.parametrize("mitigation", ["rem", "readout+rem"])
def test_single_point_measures_only_what_it_reports(monkeypatch, mitigation):
    # the optimizer evaluates through vqe's name, the runner through experiments'
    unfolds = {vqe: [], experiments: []}

    def spy(module):
        real = module.evaluate

        def evaluate(ev, *args, **kwargs):
            unfolds[module].append(ev.unfold_matrix)
            return real(ev, *args, **kwargs)
        return evaluate

    for module in unfolds:
        monkeypatch.setattr(module, "evaluate", spy(module))
    res = cmd_single_point(RunConfig(molecule="heh+", backend="noisy", shots=1000,
                                     confusion="figure-s2", mitigation=mitigation))
    assert len(unfolds[vqe]) == res.outcome.n_evaluations
    assert len(unfolds[experiments]) == 2
    seen = unfolds[vqe] + unfolds[experiments]
    if mitigation == "rem":
        assert all(m is None for m in seen)
    else:
        assert all(m is not None for m in seen)


def test_single_point_writes_record(tmp_path):
    out = tmp_path / "point.json"
    res = cmd_single_point(RunConfig(molecule="h2", out=str(out)))
    assert json.loads(out.read_text()) == res.record


def test_single_point_rem_is_post_processing():
    # the reference-state shift is computed after measurement, so asking for
    # it changes no draw, no optimum and no measured energy
    a, b = (
        cmd_single_point(
            RunConfig(
                molecule="h2", backend="noisy", shots=2000, seed=3, mitigation=m
            )
        ).record
        for m in ("rem", "none")
    )
    for key in ("theta_min", "e_vqe_ref", "e_vqe_min", "e_rem"):
        assert a[key] == b[key]


def test_single_point_file_loaded_reference(tmp_path):
    cfg = RunConfig(hamiltonian_path=h2_file(tmp_path), reference="01", mitigation="rem")
    res = cmd_single_point(cfg)
    assert res.converged
    assert res.report.delta_rem == pytest.approx(0.0, abs=1e-9)
    assert res.report.e_exact_ref == pytest.approx(-1.1167, abs=5e-4)
    assert res.report.e_exact_min == pytest.approx(-1.1373, abs=5e-4)
    assert res.record["r"] is None


def test_single_point_lih_noiseless_ground():
    res = cmd_single_point(RunConfig(molecule="lih"))
    assert res.converged
    assert res.record["ansatz"].startswith("uccsd")
    assert res.record["optimizer"] == "nelder-mead"
    assert res.report.e_vqe_min == pytest.approx(-7.8811, abs=1e-3)
    assert res.report.delta_rem == pytest.approx(0.0, abs=1e-9)
    assert abs(res.report.err_rem) < 1e-3


@pytest.mark.parametrize("molecule", ["h2", "heh+", "lih"])
def test_exact_nelder_mead_runs_converge_within_the_default_budget(molecule):
    # every ansatz _resolve_ansatz gives the molecule, ideal and at the device
    # p2, on exact distributions: exit 3 would mean the budget cut the run short
    runs = []
    for ansatz in ANSATZE:
        for backend in BACKENDS:
            cfg = RunConfig(molecule=molecule, ansatz=ansatz, backend=backend,
                            optimizer="nelder-mead", mitigation="rem")
            try:
                resolve(cfg)
            except ConfigError:  # the compact ansatz is 2-qubit only
                continue
            res = cmd_single_point(cfg)
            runs.append((ansatz, backend, res.record["n_evaluations"]))
            assert res.converged, runs[-1]
    assert len(runs) == (4 if molecule == "lih" else 6)


def test_single_point_lih_noisy_hardware_efficient():
    res = cmd_single_point(
        RunConfig(
            molecule="lih", ansatz="hwe", backend="noisy", p2=DEVICE_P2,
            mitigation="rem",
        )
    )
    # the 12-parameter simplex settles after 11 777 evaluations (under
    # conftest.py's OpenBLAS kernel), inside the exact-path budget, and the
    # reference correction removes most of the depolarizing bias
    assert res.converged and res.record["n_evaluations"] == 11777
    assert "[not converged]" not in res.text
    assert res.report.err_vqe == pytest.approx(0.0783, abs=1e-3)
    assert abs(res.report.err_rem) < res.report.err_vqe / 10


# --- calibration command -----------------------------------------------------


def test_calibrate_ideal_is_exact_identity():
    est = cmd_calibrate(RunConfig(molecule="h2", shots_per_state=100, repeats=3))
    assert np.array_equal(est.matrix, np.eye(4))
    assert np.array_equal(est.uncertainty, np.zeros((4, 4)))


def test_calibrate_device_small_budget():
    est = cmd_calibrate(
        RunConfig(confusion="figure-s2", shots_per_state=50, repeats=5, seed=1)
    )
    assert est.matrix.shape == (4, 4)
    assert np.allclose(est.matrix.sum(axis=0), 1.0, atol=1e-9)
    assert np.max(np.abs(est.matrix - device_confusion().matrix)) < 0.2


def test_calibrate_matches_molecule_width():
    est = cmd_calibrate(RunConfig(molecule="lih", shots_per_state=20, repeats=2))
    assert est.matrix.shape == (16, 16)
    with pytest.raises(ConfigError, match="covers 2 qubits but the problem has 4"):
        cmd_calibrate(RunConfig(molecule="lih", confusion="figure-s2"))


def test_calibrate_unknown_source():
    with pytest.raises(ConfigError, match="not a known mode or a file"):
        cmd_calibrate(RunConfig(confusion="/missing.csv"))


def test_calibrate_roundtrips_through_file(tmp_path):
    out = tmp_path / "estimate.csv"
    est = cmd_calibrate(
        RunConfig(confusion="figure-s2", shots_per_state=200, repeats=4, out=str(out))
    )
    back = read_confusion_csv(out)
    assert np.allclose(back.matrix, est.matrix, atol=1e-7)
    truth = tmp_path / "truth.csv"
    truth.write_text(format_confusion_csv(device_confusion()))
    est2 = cmd_calibrate(
        RunConfig(confusion=str(truth), shots_per_state=200, repeats=4)
    )
    assert est2.matrix.shape == (4, 4)
