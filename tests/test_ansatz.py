"""Variational circuit families: reference-state coincidence, shapes, sizes."""
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from remvqe import (
    AnsatzSpec,
    EnergyEvaluator,
    ansatz_circuit,
    builtin,
    circuit_stats,
    evaluate,
    expectation,
    h2_compact_spec,
    run_statevector,
    uccsd_excitations,
    uccsd_spec,
)
from remvqe.ansatz import T_MAP, hartree_fock_circuit
from remvqe.circuits import GATE_KINDS, Param
from remvqe.experiments import ANSATZE, ConfigError, RunConfig, _resolve_ansatz
from helpers import hardware_efficient_spec, hf_state


def state_at(spec: AnsatzSpec, theta) -> np.ndarray:
    bindings = {name: float(v) for name, v in zip(spec.parameter_names(), theta)}
    return run_statevector(ansatz_circuit(spec), bindings).data


def compact_state(theta: float):
    return run_statevector(ansatz_circuit(h2_compact_spec()), {"t0": theta})


ALL_SPECS = (
    h2_compact_spec(),
    uccsd_spec(2),
    uccsd_spec(4),
    hardware_efficient_spec(hf_bitstring="0011"),
    hardware_efficient_spec(2, hf_bitstring="01"),
)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.family}-{s.n_qubits}q")
def test_zero_parameters_give_reference_state(spec):
    psi = state_at(spec, np.zeros(spec.n_params))
    hf = hf_state(spec.n_qubits, spec.hf_bitstring).data
    assert abs(np.vdot(hf, psi)) ** 2 >= 1.0 - 1e-12


def test_hartree_fock_circuit_bits():
    spec = uccsd_spec(4, "0011")
    psi = run_statevector(hartree_fock_circuit(spec)).data
    assert np.argmax(np.abs(psi)) == 0b0011


def test_compact_amplitudes():
    for theta in (-2.5, -0.3, 0.0, 0.014, 1.9):
        psi = compact_state(theta).data
        expected = np.zeros(4)
        expected[0b01] = np.cos(theta / 2)
        expected[0b10] = -np.sin(theta / 2)
        assert np.allclose(psi, expected, atol=1e-12)


def test_compact_single_entangler():
    assert circuit_stats(ansatz_circuit(h2_compact_spec())) == (2, 1, 1)


def test_compact_energy_is_shifted_cosine():
    # a {1, cos, sin} least-squares fit over 9 angles must be exact
    h = builtin("h2").geometry(1.0).hamiltonian
    grid = np.linspace(-np.pi, np.pi, 9)
    energies = np.array(
        [expectation(h, compact_state(t)) for t in grid]
    )
    design = np.column_stack([np.ones_like(grid), np.cos(grid), np.sin(grid)])
    coeffs, *_ = np.linalg.lstsq(design, energies, rcond=None)
    assert np.max(np.abs(design @ coeffs - energies)) < 1e-9


def test_compact_minimum_matches_block_diagonalization():
    import scipy.optimize

    h = builtin("h2").geometry(0.7414).hamiltonian
    from remvqe import to_dense_matrix

    dense = to_dense_matrix(h)
    block = dense[np.ix_([0b01, 0b10], [0b01, 0b10])]
    block_min = np.linalg.eigvalsh(block)[0].real

    def energy(theta):
        return expectation(h, compact_state(theta))

    res = scipy.optimize.minimize_scalar(energy, bounds=(-np.pi, np.pi), method="bounded")
    assert res.fun == pytest.approx(block_min, abs=1e-6)
    assert block_min == pytest.approx(-1.1373, abs=5e-4)


def test_ucc_zero_angles_preserve_reference_energy():
    ds = builtin("heh+")
    h = ds.geometry(0.7899).hamiltonian
    spec = uccsd_spec(2)
    energy = expectation(h, state_at(spec, np.zeros(3)))
    hf_energy = expectation(h, hf_state(2, "01").data)
    assert energy == pytest.approx(hf_energy, abs=1e-12)
    assert energy == pytest.approx(-2.8447, abs=5e-4)


@settings(deadline=None, max_examples=25)
@given(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=8, max_size=8))
def test_ucc_output_stays_normalized(params):
    psi = state_at(uccsd_spec(4), params)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-9


def test_ucc_excitation_tables():
    assert len(uccsd_excitations(2)) == 3
    assert len(uccsd_excitations(4)) == 8
    with pytest.raises(ValueError, match="cover 2 or 4 qubits, not 3"):
        uccsd_excitations(3)
    # excitation k drives parameter t{k}, in table order
    for n in (2, 4):
        names = tuple(f"t{k}" for k in range(len(uccsd_excitations(n))))
        assert ansatz_circuit(uccsd_spec(n)).free_parameters == names


def test_excitation_tables_are_well_formed():
    # each excitation: non-identity n-qubit strings, pairwise distinct, signs +-1
    for n in (2, 4):
        for strings in uccsd_excitations(n):
            labels = [label for label, _ in strings]
            assert labels
            assert all(len(label) == n and set(label) <= set("IXYZ") for label in labels)
            assert "I" * n not in labels
            assert len(set(labels)) == len(labels)
            assert {sign for _, sign in strings} <= {1, -1}


def test_circuit_size_fixtures():
    # regression sizes for the shipped families; the deep 4-qubit cluster
    # circuit is the scalability workhorse
    assert circuit_stats(ansatz_circuit(uccsd_spec(2))) == (14, 4, 3)
    assert circuit_stats(ansatz_circuit(uccsd_spec(4))) == (275, 172, 8)
    assert circuit_stats(ansatz_circuit(hardware_efficient_spec(hf_bitstring="0011"))) == (
        10,
        6,
        12,
    )


def test_hardware_efficient_layout():
    gates = ansatz_circuit(hardware_efficient_spec()).gates
    kinds = [g.kind for g in gates]
    assert kinds.count("CZ") == 6
    assert kinds.count("RY") == 12
    # rotations come in layers of four, T-map entanglers between them
    assert kinds[:4] == ["RY"] * 4
    assert [g.qubits for g in gates[4:7]] == list(T_MAP)
    assert [g.params[0].name for g in gates if g.kind == "RY"] == [f"t{k}" for k in range(12)]


def test_hardware_efficient_zero_params_identity():
    # away from 4 qubits the entanglers form a chain
    spec = hardware_efficient_spec(3)
    cz = [g.qubits for g in ansatz_circuit(spec).gates if g.kind == "CZ"]
    assert cz == [(0, 1), (1, 2)] * 2
    psi = state_at(spec, np.zeros(9))
    assert abs(psi[0]) == pytest.approx(1.0, abs=1e-12)


def test_hardware_efficient_param_count_check():
    h = builtin("lih").geometries[0].hamiltonian
    with pytest.raises(ValueError, match="takes 12 parameters, got 8"):
        evaluate(EnergyEvaluator(h, hardware_efficient_spec()), np.zeros(8))


def test_hardware_efficient_spec_prepends_reference_prep():
    spec = hardware_efficient_spec(hf_bitstring="0011")
    gates = ansatz_circuit(spec).gates
    assert [g.kind for g in gates[:2]] == ["X", "X"]
    assert {g.qubits[0] for g in gates[:2]} == {0, 1}
    # the all-zero reference needs no basis-state prep
    raw = ansatz_circuit(hardware_efficient_spec())
    assert all(g.kind != "X" for g in raw.gates)


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown ansatz family"):
        AnsatzSpec("adapt", 2, "01")
    with pytest.raises(ValueError, match="not a 2-bit"):
        AnsatzSpec("compact-uccd", 2, "012")
    # the family fixes the size: compact is 2 qubits from |01>, uccsd 2 or 4
    with pytest.raises(ValueError, match="2-qubit only"):
        AnsatzSpec("compact-uccd", 3, "001")
    with pytest.raises(ValueError, match="starts from the reference state 01"):
        AnsatzSpec("compact-uccd", 2, "10")
    with pytest.raises(ValueError, match="cover 2 or 4 qubits, not 3"):
        AnsatzSpec("uccsd", 3, "001")
    AnsatzSpec("hardware-efficient", 3, "001")
    assert [f.name for f in fields(AnsatzSpec)] == ["family", "n_qubits", "hf_bitstring"]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.family}-{s.n_qubits}q")
def test_n_params_counts_circuit_parameters(spec):
    assert spec.n_params == len(ansatz_circuit(spec).free_parameters)
    assert spec.parameter_names() == ansatz_circuit(spec).free_parameters


def test_resolvable_ansatze_cover_the_gate_set():
    # every circuit a run can build uses only GATE_KINDS, all of them between
    # the families, and binds free angles only through Pauli Z/Y rotations
    datasets = [builtin(name) for name in ("h2", "heh+", "lih")]
    problems = [(ds, ds.n_qubits, ds.hf_bitstring) for ds in datasets]
    problems += [(None, n, "0" * n) for n in (2, 3, 4)]
    specs = set()
    for dataset, n_qubits, hf in problems:
        for name in (None, *ANSATZE):
            try:
                specs.add(_resolve_ansatz(RunConfig(ansatz=name), dataset, n_qubits, hf))
            except ConfigError:
                pass
    gates = [g for spec in specs for g in ansatz_circuit(spec).gates]
    assert {g.kind for g in gates} == set(GATE_KINDS)
    bound = {g.kind for g in gates if any(isinstance(p, Param) for p in g.params)}
    assert bound == {"RY", "RZ"}


def test_parameter_names():
    assert uccsd_spec(2).parameter_names() == ("t0", "t1", "t2")
