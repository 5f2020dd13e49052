"""Energy evaluation, readout unfolding, minimization, and sweep-and-fit."""
import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from remvqe import (
    ConfusionMatrix,
    EnergyEvaluator,
    NoiseModel,
    PauliHamiltonian,
    builtin,
    default_grid,
    device_confusion,
    evaluate,
    h2_compact_spec,
    minimize,
    reference_exact_energy,
    sweep_and_fit,
    uccsd_spec,
)
from remvqe.mitigation import CALIBRATION_POINT, _state_words, counts_to_distribution, unfold
from remvqe.pauli import sign_table
from remvqe.sim import _basis_probabilities, on_grid
from remvqe.vqe import (
    _SIGNS,
    _TOL,
    MEASURE_INDEX,
    REFERENCE_INDEX,
    SPSA_INDEX,
    _group_energy,
    _group_weights,
    _grouping,
    _nelder_mead,
    _prepare,
    _shot_split,
    _stream,
)
from helpers import hardware_efficient_spec

H2 = builtin("h2")
HEH = builtin("heh+")


def h2_evaluator(r: float = 0.7414, **kwargs) -> EnergyEvaluator:
    return EnergyEvaluator(H2.geometry(r).hamiltonian, h2_compact_spec(), **kwargs)


def bowl_hamiltonian() -> PauliHamiltonian:
    # E(theta) = -cos(theta) on the compact ansatz: single minimum at 0
    return PauliHamiltonian(2, (("IZ", 0.5), ("ZI", -0.5)))


# --- evaluate ----------------------------------------------------------------


def test_evaluator_validation():
    with pytest.raises(ValueError, match="shots must be positive"):
        h2_evaluator(shots=0)
    # every measurement group needs a shot; the h2 Hamiltonian has two groups
    with pytest.raises(ValueError, match="1 shots cannot cover the 2 measurement groups"):
        h2_evaluator(shots=1)
    assert math.isfinite(evaluate(h2_evaluator(shots=2), [0.3]))
    # a seed is a non-negative integer and a shot count an integer, checked
    # when the evaluator is built; numpy integers pass, bool does not
    for field, value in [("seed", -1), ("seed", 1.5), ("seed", True), ("seed", "3"),
                         ("shots", 100.5), ("shots", True), ("point", 0.5), ("point", True),
                         ("point", -1), ("point", 2**32)]:
        with pytest.raises(ValueError, match=f"{field} must"):
            h2_evaluator(**{"shots": 100, field: value})
    assert math.isfinite(evaluate(h2_evaluator(shots=np.int64(100), seed=np.uint32(3)), [0.3]))


@pytest.mark.parametrize(
    "part, value",
    [
        ("ansatz", h2_compact_spec()),
        ("confusion", device_confusion()),
        ("unfold_matrix", ConfusionMatrix.identity(3)),
    ],
)
def test_evaluator_rejects_qubit_mismatch(part, value):
    # found at construction, not mid-evaluation; noisy and sampled as in a
    # LiH run, where the mismatch used to surface from numpy or the basis check
    lih = builtin("lih").geometry(1.5949).hamiltonian
    kwargs = {"ansatz": uccsd_spec(4), "noise": NoiseModel(p2=4e-3), "shots": 100, part: value}
    counts = 3 if part == "unfold_matrix" else 2
    with pytest.raises(ValueError, match=f"{part} acts on {counts} qubits, the Hamiltonian on 4"):
        EnergyEvaluator(lih, **kwargs)


def test_noisy_evaluations_stay_on_the_pauli_vector(monkeypatch):
    # exact, sampled, readout and unfolded noisy evaluations read their
    # distributions and energies from r: none builds the basis-rotation stack
    # or the dense Hamiltonian, each refused where sim looks it up, and no
    # density state builds rho
    from remvqe import sim

    def refuse(*_args):
        raise AssertionError("a noisy evaluation left the Pauli-vector path")

    confusion = device_confusion()
    recipes = ({}, {"confusion": confusion}, {"confusion": confusion, "unfold_matrix": confusion},
               {"shots": 500}, {"shots": 500, "confusion": confusion},
               {"shots": 500, "confusion": confusion, "unfold_matrix": confusion})
    expected = [evaluate(h2_evaluator(noise=NoiseModel(p2=0.02), **kw), [0.3]) for kw in recipes]
    for name in ("_basis_rotations", "_terms_matrix"):
        monkeypatch.setattr(sim, name, refuse)
    for kwargs, energy in zip(recipes, expected):
        assert evaluate(h2_evaluator(noise=NoiseModel(p2=0.02), **kwargs), [0.3]) == energy
    ket = sim.run_statevector(sim.Circuit(2, ()))  # each refusal bites on a ket
    with pytest.raises(AssertionError, match="Pauli-vector path"):
        sim.expectation(H2.geometry(0.7414).hamiltonian, ket)
    with pytest.raises(AssertionError, match="Pauli-vector path"):
        sim._basis_probabilities(ket, (sim.PauliString("ZZ"),))
    with pytest.raises(ValueError, match=r"\.pauli"):
        sim.run_density(sim.Circuit(1, ()), noise=NoiseModel(p2=0.02)).data


def test_equal_hamiltonian_copies_hit_the_caches_by_key(monkeypatch):
    # an equal copy of a Hamiltonian (builtin shares one object per
    # molecule, so the copy is made here) finds the per-Hamiltonian caches
    # (grouping, group weights, term vectors) without comparing Pauli terms
    # one by one, and gives the same energy bit for bit
    from remvqe.pauli import PauliString

    first = builtin("lih").geometry(1.5949).hamiltonian
    recipes = ((uccsd_spec(4), {"noise": NoiseModel(p2=4e-3)}),
               (hardware_efficient_spec(4), {"noise": NoiseModel(p2=4e-3), "shots": 8192, "seed": 5}))
    thetas = [np.linspace(-0.3, 0.3, spec.n_params) for spec, _ in recipes]
    expected = [evaluate(EnergyEvaluator(first, spec, **kw), theta, index=3)
                for (spec, kw), theta in zip(recipes, thetas)]
    second = dataclasses.replace(first)
    assert second is not first

    def refuse(*_args):
        raise AssertionError("a cache lookup compared Pauli terms one by one")

    monkeypatch.setattr(PauliString, "__eq__", refuse)
    assert second == first
    for (spec, kw), theta, energy in zip(recipes, thetas, expected):
        assert evaluate(EnergyEvaluator(second, spec, **kw), theta, index=3) == energy


def test_evaluate_rejects_wrong_parameter_count():
    with pytest.raises(ValueError, match="ansatz takes 1 parameters, got 2"):
        evaluate(h2_evaluator(), [0.0, 0.0])


def test_hartree_fock_point_is_reference_energy():
    ev = h2_evaluator()
    e = evaluate(ev, [0.0])
    assert e == pytest.approx(reference_exact_energy(ev), abs=1e-12)
    assert e == pytest.approx(-1.1167, abs=5e-4)


def test_hartree_fock_point_stretched_heh():
    ev = EnergyEvaluator(HEH.geometry(1.5).hamiltonian, uccsd_spec(2))
    assert evaluate(ev, [0.0, 0.0, 0.0]) == pytest.approx(-2.8234, abs=5e-4)


def test_sampled_energy_consistent_with_exact():
    ev = h2_evaluator(shots=10**6, seed=3)
    exact = evaluate(h2_evaluator(), [0.4])
    # the shot split gives 5e5 per group; the dominant-term spread stays
    # below ~3e-4, so 2e-3 is a comfortable multiple of sigma
    assert abs(evaluate(ev, [0.4], index=0) - exact) < 2e-3


@pytest.mark.parametrize("name", ["h2", "heh+", "lih"])
def test_group_weights_match_per_term_sums(name):
    rng = np.random.default_rng(4)
    for geometry in builtin(name).geometries:
        h = geometry.hamiltonian
        weights = _group_weights(h)
        dists = rng.dirichlet(np.ones(1 << h.n_qubits), size=len(_grouping(h)))
        total = 0.0
        for g, group in enumerate(_grouping(h)):
            per_term = sum(
                h.terms[t][1] * float(sign_table(h.n_qubits, h.terms[t][0].support_mask) @ dists[g])
                for t in group.members
            )
            assert abs(_group_energy(dists[g], weights[g]) - per_term) < 1e-12
            total += per_term
        assert abs(_group_energy(dists, weights) - total) < 1e-12


def test_evaluate_seed_and_index_determinism():
    ev = h2_evaluator(shots=400, seed=11)
    assert evaluate(ev, [0.7], index=5) == evaluate(ev, [0.7], index=5)
    assert evaluate(ev, [0.7], index=5) != evaluate(ev, [0.7], index=6)
    other = h2_evaluator(shots=400, seed=12)
    assert evaluate(ev, [0.7], index=5) != evaluate(other, [0.7], index=5)
    elsewhere = h2_evaluator(shots=400, seed=11, point=1)
    assert evaluate(ev, [0.7], index=5) != evaluate(elsewhere, [0.7], index=5)


def test_seed_rule_gives_every_key_its_own_stream():
    # evaluations, the reserved indices at two points and the calibration
    # point, with swapped entries and both ends of the key range
    keys = [(point, index) for point in (0, 1, 2**32 - 2)
            for index in (0, 1, 2, REFERENCE_INDEX, MEASURE_INDEX, SPSA_INDEX, 2**32 - 1)]
    keys += [(CALIBRATION_POINT, state) for state in range(16)]
    draws = {tuple(_stream(5, *key).integers(0, 2**63, size=4)) for key in keys}
    assert len(draws) == len(keys)
    assert _stream(5, 0, 0).random() != _stream(6, 0, 0).random()
    assert _stream(2**64 + 5, 0, 0).random() != _stream(5, 0, 0).random()


@pytest.mark.parametrize("key", [(-1, 0), (0, -1), (2**32, 0), (0, 2**32), (2**40, 2**40)])
def test_seed_rule_rejects_key_entries_past_32_bits(key):
    # SeedSequence joins each entry's 32-bit words: the key (2^32, 0) would
    # read as the words of (0, 1, 0)
    with pytest.raises(ValueError, match=r"\[0, 2\^32\)"):
        _stream(0, *key)


def assert_law(seed: int, point: int, index: int) -> None:
    """_stream at the key has the state of the seed rule's law and draws as it does."""
    law = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(point, index)))
    stream = _stream(seed, point, index)
    assert stream.bit_generator.state == law.bit_generator.state
    assert np.array_equal(stream.random(100), law.random(100))


# key entries: anywhere in [0, 2^32), and the reserved ones
KEY_ENTRIES = st.integers(0, 2**32 - 1) | st.sampled_from(
    [0, REFERENCE_INDEX, MEASURE_INDEX, SPSA_INDEX, CALIBRATION_POINT])


@settings(deadline=None, max_examples=400)
@given(st.integers(0, 2**200 - 1) | st.integers(0, 2**33), KEY_ENTRIES, KEY_ENTRIES)
def test_stream_is_the_seed_rule_law(seed, point, index):
    # _stream computes SeedSequence's arithmetic itself; the generator is the law's
    assert_law(seed, point, index)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**64), st.integers(2**32, 2**64) | st.integers(-2**64, -1), st.booleans())
def test_stream_rejects_key_entries_out_of_range(seed, bad, at_index):
    key = (0, bad) if at_index else (bad, 0)
    with pytest.raises(ValueError, match=r"\[0, 2\^32\)"):
        _stream(seed, *key)


def test_stream_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        _stream(-1, 0, 0)


def test_stream_seed_sequence_answers_only_pcg64s_request():
    seq = _stream(3, 1, 2).bit_generator.seed_seq
    assert seq.generate_state(4, np.uint64).tolist() == (
        np.random.SeedSequence(3, spawn_key=(1, 2)).generate_state(4, np.uint64).tolist())
    for args in ((2, np.uint64), (8, np.uint32), (4,)):
        with pytest.raises(ValueError, match="only 4 uint64 state words"):
            seq.generate_state(*args)


def test_stream_calls_on_one_key_are_independent():
    # SPSA holds its generator across evaluations: a second call on the key
    # starts the stream afresh and leaves the first where it was
    first = _stream(3, 1, SPSA_INDEX)
    head = first.random(5)
    second = _stream(3, 1, SPSA_INDEX)
    assert second is not first and second.bit_generator is not first.bit_generator
    assert np.array_equal(second.random(5), head)
    law = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(1, SPSA_INDEX)))
    law.random(5)
    assert first.random() == law.random()


def test_stream_key_drawn_again_after_its_words_are_dropped():
    # the kept state words are those of the most recent keys: a key drawn
    # again after more than that many others is hashed afresh, to the law
    size = _state_words.cache_info().maxsize
    assert_law(11, 3, 7)
    for index in range(size + 1):
        assert_law(11, 4, index)
    misses = _state_words.cache_info().misses
    assert_law(11, 3, 7)
    assert _state_words.cache_info().misses == misses + 1
    hits = _state_words.cache_info().hits
    assert_law(11, 3, 7)
    assert _state_words.cache_info().hits == hits + 1


def test_stream_keys_of_interleaved_seeds_and_points():
    # keys that share a seed, a point or an index, drawn in interleaved
    # order and each drawn again, all give the law's generator
    keys = [(seed, point, index) for index in (0, 1, SPSA_INDEX)
            for point in (0, 5, CALIBRATION_POINT) for seed in (0, 9, 2**70 + 9)]
    for key in keys + keys[::-1] + keys[::2]:
        assert_law(*key)


def test_identity_unfolding_preserves_sampled_energy():
    # same seed/index means both pipelines see identical counts, and an
    # identity confusion matrix makes the QP a passthrough
    raw = h2_evaluator(shots=500, seed=9)
    unfolded = h2_evaluator(
        shots=500, seed=9, unfold_matrix=ConfusionMatrix.identity(2)
    )
    for theta in (0.0, 0.3, -1.2):
        assert evaluate(raw, [theta], index=2) == pytest.approx(
            evaluate(unfolded, [theta], index=2), abs=1e-9
        )


def group_by_group_energy(ev: EnergyEvaluator, theta, index: int) -> float:
    """A shot energy whose groups are each read out as C p, rounded onto the
    2^-40 grid and drawn on their own, in group order from one generator: the
    reference for evaluate, which folds and rounds all groups at once."""
    h = ev.hamiltonian
    groups = _grouping(h)
    probs = _basis_probabilities(_prepare(ev, theta), tuple(g.basis for g in groups))
    sampler = _stream(ev.seed, ev.point, index)
    rows = []
    for p, shots in zip(probs, _shot_split(ev.shots, len(groups))):
        if ev.confusion is not None:
            p = p @ ev.confusion.matrix.T
        grid = np.rint(p * 2.0**40)
        rows.append(sampler.multinomial(shots, grid / grid.sum()))
    dists = counts_to_distribution(np.array(rows))
    if ev.unfold_matrix is not None:
        dists = unfold(ev.unfold_matrix, dists)
    return h.offset + _group_energy(dists, _group_weights(h))


FIGURE_S2_4Q = ConfusionMatrix(4, np.kron(device_confusion().matrix, device_confusion().matrix))


@pytest.mark.parametrize("readout", ["ideal", "figure-s2-unfolded"])
@pytest.mark.parametrize("noise", [None, NoiseModel(p2=4e-3)], ids=["ket", "density"])
@pytest.mark.parametrize(
    "name, spec",
    [("h2", h2_compact_spec()), ("heh+", uccsd_spec(2)), ("lih", uccsd_spec(4)),
     ("lih", hardware_efficient_spec(4))],
    ids=["h2", "heh+", "lih-uccsd", "lih-hwe"],
)
def test_shot_energies_equal_group_by_group_rounding_bit_for_bit(name, spec, noise, readout):
    ds = builtin(name)
    h = ds.geometry(ds.equilibrium_r).hamiltonian
    confusion = None
    if readout != "ideal":
        confusion = device_confusion() if h.n_qubits == 2 else FIGURE_S2_4Q
    rng = np.random.default_rng(17)
    for seed in range(20):
        ev = EnergyEvaluator(h, spec, noise=noise, shots=8192, seed=seed,
                             confusion=confusion, unfold_matrix=confusion)
        theta = rng.uniform(-1.0, 1.0, spec.n_params) * (seed % 4 != 0)  # and the HF point
        index = int(rng.integers(0, 1000))
        assert evaluate(ev, theta, index) == group_by_group_energy(ev, theta, index)


def test_shot_readout_draws_once_from_one_stream(monkeypatch):
    # readout acts on the distributions: a shot evaluation with a confusion
    # matrix builds one generator and resamples no counts
    from remvqe import sim, vqe

    streams = []

    def counted(*args):
        streams.append(args)
        return _stream(*args)

    def refuse(*_args):
        raise AssertionError("counts were resampled through the confusion matrix")

    monkeypatch.setattr(vqe, "_stream", counted)
    for module in (sim, vqe):
        monkeypatch.setattr(module, "apply_readout_noise", refuse)
    confusion = device_confusion()
    for noise in (None, NoiseModel(p2=0.02)):
        ev = h2_evaluator(noise=noise, shots=500, seed=3, confusion=confusion,
                          unfold_matrix=confusion)
        streams.clear()
        evaluate(ev, [0.3], index=7)
        assert streams == [(3, 0, 7)]


def grid_keys(state) -> list:
    """The (labels, C bytes or None) keys of the grids a state keeps beside
    its basis distributions, which are keyed by labels alone."""
    return [key for key in state._distributions if isinstance(key[0], tuple)]


@pytest.mark.parametrize("noise", [None, NoiseModel(p2=4e-3)], ids=["ket", "density"])
@pytest.mark.parametrize("shots", [None, 700])
@pytest.mark.parametrize("readout", ["ideal", "applied", "unfolded"])
def test_kept_grids_give_the_energies_of_fresh_ones_bit_for_bit(readout, shots, noise):
    # each theta is evaluated three times, so the state's kept grid is read
    # twice; the reference clears what the state keeps before every evaluation
    confusion = None if readout == "ideal" else device_confusion()
    for name, spec in (("h2", h2_compact_spec()), ("heh+", uccsd_spec(2))):
        ds = builtin(name)
        ev = EnergyEvaluator(ds.geometry(ds.equilibrium_r).hamiltonian, spec, noise=noise,
                             shots=shots, seed=4, confusion=confusion,
                             unfold_matrix=confusion if readout == "unfolded" else None)
        thetas = [np.full(spec.n_params, t) for t in (0.0, 0.4, -1.1)] * 3
        kept = [evaluate(ev, theta, index) for index, theta in enumerate(thetas)]
        fresh = []
        for index, theta in enumerate(thetas):
            _prepare(ev, theta)._distributions.clear()
            fresh.append(evaluate(ev, theta, index))
        assert kept == fresh
        assert kept[0] != kept[3] or shots is None  # new draws at a kept grid


def test_grids_are_kept_by_matrix_value_and_labels(monkeypatch):
    from remvqe import vqe

    folds = []
    monkeypatch.setattr(vqe, "on_grid", lambda p: folds.append(p) or on_grid(p))
    ev = h2_evaluator(noise=NoiseModel(p2=0.02), shots=500, confusion=device_confusion())
    theta = [0.25]
    state = _prepare(ev, theta)
    state._distributions.clear()
    evaluate(ev, theta)
    # an equal matrix in a new object reads the kept grid, in either memory
    # layout: C- and F-ordered copies of the values fold C p once between them
    evaluate(dataclasses.replace(ev, confusion=device_confusion()), theta, 1)
    values = device_confusion().matrix
    for layout in (np.ascontiguousarray, np.asfortranarray):
        evaluate(dataclasses.replace(ev, confusion=ConfusionMatrix(2, layout(values))), theta, 2)
    assert len(folds) == 1
    labels = tuple(g.basis.label for g in _grouping(ev.hamiltonian))
    assert grid_keys(state) == [(labels, device_confusion().matrix.tobytes())]
    # another matrix and no matrix get grids of their own
    evaluate(dataclasses.replace(ev, confusion=ConfusionMatrix.identity(2)), theta, 2)
    evaluate(dataclasses.replace(ev, confusion=None), theta, 3)
    assert len(grid_keys(state)) == 3
    # so do other bases: one Hamiltonian grouped in all-X bases
    xx = PauliHamiltonian(2, (("XX", 0.5), ("IX", 0.25)))
    evaluate(dataclasses.replace(ev, hamiltonian=xx), theta)
    assert grid_keys(state)[-1] == (("XX",), device_confusion().matrix.tobytes())
    assert len(grid_keys(state)) == 4
    # the grids are read-only, as the distributions they come from
    assert all(not state._distributions[key].flags.writeable for key in grid_keys(state))


def test_calibrated_curves_keep_one_grid_per_state():
    # every curve calibrates a new unfolding matrix and builds a new applied
    # ConfusionMatrix object; a kept state still holds one grid, for the
    # stock matrix in h2's bases
    from remvqe.ansatz import ansatz_circuit
    from remvqe.experiments import DEVICE_P2, RunConfig, cmd_dissociation
    from remvqe.sim import _program

    for seed in range(20):
        cmd_dissociation(RunConfig(
            molecule="h2", backend="noisy", shots=200, seed=seed, confusion="calibrate",
            mitigation="readout+rem", grid_points=5, shots_per_state=50, repeats=2))
    states = list(_program(ansatz_circuit(h2_compact_spec()), NoiseModel(p2=DEVICE_P2)).memo.values())
    labels = tuple(g.basis.label for g in _grouping(H2.geometry(0.7414).hamiltonian))
    assert len(states) >= 5
    assert all(grid_keys(state) == [(labels, device_confusion().matrix.tobytes())]
               for state in states)


@pytest.mark.parametrize(
    "recipe",
    [{}, {"noise": NoiseModel(p2=0.01)}, {"shots": 100},
     {"shots": 100, "confusion": device_confusion(), "unfold_matrix": device_confusion()}],
    ids=["ket", "density", "shots", "shots-confusion"],
)
def test_term_less_hamiltonian_evaluates_to_its_offset(recipe):
    ev = EnergyEvaluator(PauliHamiltonian(2, (), offset=1.0), h2_compact_spec(), **recipe)
    assert evaluate(ev, [0.1]) == 1.0


def test_noisy_energy_stays_above_noiseless_minimum():
    noisy = h2_evaluator(noise=NoiseModel(p2=0.02))
    clean = h2_evaluator()
    fit = sweep_and_fit(clean)
    for theta in (-1.0, 0.0, 0.5):
        assert evaluate(noisy, [theta]) > fit.e_min
    # the noisy reference state lies above its exact energy, so delta > 0
    assert evaluate(noisy, [0.0]) > reference_exact_energy(noisy)


# --- minimize ----------------------------------------------------------------


def test_minimize_quadratic_bowl():
    ev = EnergyEvaluator(bowl_hamiltonian(), h2_compact_spec())
    grid = np.linspace(-3.0, 3.0, 13)
    for theta in grid:
        assert evaluate(ev, [theta]) == pytest.approx(-math.cos(theta), abs=1e-12)
    out = minimize(ev)
    assert out.converged
    assert min(e for _, e in out.trace) == pytest.approx(-1.0, abs=1e-6)
    assert out.theta[0] == pytest.approx(0.0, abs=1e-3)


def test_minimize_heh_noiseless():
    ev = EnergyEvaluator(HEH.geometry(0.7899).hamiltonian, uccsd_spec(2))
    out = minimize(ev)
    assert out.converged
    assert min(e for _, e in out.trace) == pytest.approx(-2.8542, abs=1e-4)
    assert np.max(np.abs(out.theta)) < 0.1


def test_minimize_outcome_bookkeeping():
    ev = EnergyEvaluator(bowl_hamiltonian(), h2_compact_spec())
    out = minimize(ev)
    # the optimum is derived from the trace, not stored beside it
    assert [f.name for f in dataclasses.fields(out)] == ["trace", "converged", "message"]
    assert out.n_evaluations == len(out.trace)
    assert not hasattr(out, "energy")  # the trace minimum is no energy estimate
    assert evaluate(ev, out.theta) == pytest.approx(min(e for _, e in out.trace), abs=1e-12)
    with pytest.raises(ValueError):
        out.theta[0] = 99.0


def test_minimize_budget_exhaustion_is_not_an_error():
    ev = h2_evaluator()
    out = minimize(ev, max_evals=10)
    assert not out.converged
    assert out.n_evaluations <= 11
    assert out.message


def test_minimize_validation():
    ev = h2_evaluator()
    with pytest.raises(ValueError, match="unknown optimizer"):
        minimize(ev, optimizer="cobyla")
    # an empty trace has no optimum: refuse the budget before any evaluation
    for optimizer in ("nelder-mead", "spsa"):
        for max_evals in (0, -3):
            with pytest.raises(ValueError, match="max_evals must be at least 1"):
                minimize(ev, optimizer, max_evals=max_evals)


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 8),
    kind=st.sampled_from(("quadratic", "rosenbrock", "plateau")),
    budget=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_nelder_mead_replays_scipy(n, kind, budget, seed):
    # the same points in the same order, the same flag and message as scipy's
    # Nelder-Mead with minimize's options; rounding the bowl to 0.1 makes
    # plateaus, where ties in the simplex sorts decide the next point
    rng = np.random.default_rng(seed)
    center, weights = rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 3.0, n)
    theta0 = rng.uniform(-0.5, 0.5, n)
    max_evals = (1, n, n + 1, 37, 2000)[budget]

    def objective(x):
        if kind == "rosenbrock":
            z = np.append(x, 1.0)
            return float(np.sum(100.0 * (z[1:] - z[:-1] ** 2) ** 2 + (1.0 - z[:-1]) ** 2))
        bowl = float(np.sum(weights * (x - center) ** 2))
        return round(bowl, 1) if kind == "plateau" else bowl

    def recorder(trace):
        def f(x):
            trace.append((tuple(float(v) for v in x), objective(x)))
            return trace[-1][1]
        return f

    ours: list = []
    out = _nelder_mead(recorder(ours), theta0, max_evals, ours)
    theirs: list = []
    res = scipy.optimize.minimize(
        recorder(theirs), theta0, method="Nelder-Mead",
        options={"fatol": _TOL, "xatol": _TOL, "maxfev": max_evals, "maxiter": max_evals,
                 "initial_simplex": np.vstack([theta0, theta0 + 0.1 * np.eye(n)])},
    )
    assert out.trace == tuple(theirs)
    assert (out.converged, out.message) == (bool(res.success), res.message)


def test_spsa_reduces_noisy_energy():
    ev = h2_evaluator(noise=NoiseModel(p2=0.018), shots=2000, seed=4)
    out = minimize(ev, optimizer="spsa", max_evals=300)
    assert min(e for _, e in out.trace) < out.trace[0][1]


def test_spsa_signs_match_generator_choice():
    # indexing _SIGNS with integers(0, 2) draws what choice((-1.0, 1.0))
    # drew, and leaves the generator in the same state
    for seed in range(100):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in (1, 3, 8, 3):
            assert np.array_equal(_SIGNS[ours.integers(0, 2, size=size)],
                                  theirs.choice((-1.0, 1.0), size=size))
        assert ours.random() == theirs.random()


def test_spsa_directions_come_from_the_reserved_index():
    # the first SPSA step evaluates theta = 0 + c_0 * direction, c_0 = 0.1
    ev = EnergyEvaluator(HEH.geometry(0.7899).hamiltonian, uccsd_spec(2), seed=13, point=4)
    first = np.array(minimize(ev, optimizer="spsa", max_evals=2).trace[0][0])
    direction = _SIGNS[_stream(13, 4, SPSA_INDEX).integers(0, 2, size=3)]
    assert np.array_equal(first, 0.1 * direction)


def test_spsa_trace_determinism():
    def run(seed):
        ev = h2_evaluator(shots=300, seed=seed)
        return minimize(ev, optimizer="spsa", max_evals=60).trace

    assert run(21) == run(21)
    assert run(21) != run(22)


# --- sweep-and-fit -----------------------------------------------------------


def test_default_grid():
    grid = default_grid()
    assert grid.size == 25
    assert grid[0] == pytest.approx(-math.pi)
    assert grid[-1] == pytest.approx(math.pi)


def test_sweep_validation():
    with pytest.raises(ValueError, match="1-parameter ansatz"):
        sweep_and_fit(EnergyEvaluator(HEH.geometry(1.0).hamiltonian, uccsd_spec(2)))
    ev = h2_evaluator()
    with pytest.raises(ValueError, match="at least 4 points"):
        sweep_and_fit(ev, grid=[0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="degenerate"):
        sweep_and_fit(ev, grid=[0.0, 0.0, 1.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "kwargs", [{}, {"noise": NoiseModel(p2=1e-2)}, {"shots": 100}], ids=["ket", "density", "shots"]
)
def test_sweep_rejects_non_finite_angles(kwargs, bad):
    # checked before any evaluation, which would fail deep in the simulator
    with pytest.raises(ValueError, match="grid angles must be finite"):
        sweep_and_fit(h2_evaluator(**kwargs), grid=[0.0, 1.0, 2.0, bad])


def test_sweep_recovers_synthetic_cosine():
    # coefficients chosen so E(theta) = 2 + 0.5 cos(theta - 0.3) exactly
    alpha, beta = -0.5 * math.cos(0.3), -0.5 * math.sin(0.3)
    h = PauliHamiltonian(
        2,
        (("IZ", 0.5 * alpha), ("ZI", -0.5 * alpha), ("XX", beta)),
        offset=2.0,
    )
    fit = sweep_and_fit(EnergyEvaluator(h, h2_compact_spec()))
    assert fit.c == pytest.approx(2.0, abs=1e-10)
    assert fit.a == pytest.approx(0.5, abs=1e-10)
    assert fit.alpha == pytest.approx(0.3, abs=1e-10)
    assert fit.e_min == pytest.approx(1.5, abs=1e-10)
    assert fit.theta_min == pytest.approx(0.3 - math.pi, abs=1e-10)
    assert fit.value_at(0.3) == pytest.approx(2.5, abs=1e-10)


def test_sweep_matches_scalar_minimizer():
    ev = h2_evaluator()
    fit = sweep_and_fit(ev, grid=np.linspace(-math.pi, math.pi, 13))
    res = scipy.optimize.minimize_scalar(
        lambda t: evaluate(ev, [t]), bounds=(-math.pi, math.pi), method="bounded",
        options={"xatol": 1e-10},
    )
    assert fit.e_min == pytest.approx(res.fun, abs=1e-9)
    assert fit.e_min == pytest.approx(-1.1373, abs=5e-4)


def test_sweep_energies_record_grid_order():
    ev = h2_evaluator()
    grid = np.linspace(-2.0, 2.0, 9)
    fit = sweep_and_fit(ev, grid=grid)
    assert fit.grid == tuple(grid)
    for theta, energy in zip(fit.grid, fit.energies):
        assert evaluate(ev, [theta]) == pytest.approx(energy, abs=1e-12)


@pytest.mark.parametrize("r", [g.r for g in H2.geometries])
def test_minimize_agrees_with_sweep_every_geometry(r):
    ev = h2_evaluator(r)
    fit = sweep_and_fit(ev)
    out = minimize(ev)
    assert out.converged
    assert min(e for _, e in out.trace) == pytest.approx(fit.e_min, abs=1e-6)


def test_reference_index_outside_optimizer_range():
    assert REFERENCE_INDEX >= 10**9
    assert (MEASURE_INDEX, SPSA_INDEX) == (REFERENCE_INDEX + 1, REFERENCE_INDEX + 2)

