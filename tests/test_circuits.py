"""Gate records, parameter binding, circuit statistics, gate matrices."""
import numpy as np
import pytest

from remvqe import Circuit, Gate, Param, circuit_stats, gate_matrix
from remvqe.circuits import GATE_KINDS

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_gate_validation():
    with pytest.raises(ValueError, match="unknown gate kind"):
        Gate("SWAP", (0, 1))
    with pytest.raises(ValueError, match="acts on 2"):
        Gate("CNOT", (0,))
    with pytest.raises(ValueError, match="distinct"):
        Gate("CZ", (1, 1))
    with pytest.raises(ValueError, match="takes 1 parameter"):
        Gate("RY", (0,))
    with pytest.raises(ValueError, match="takes 0 parameter"):
        Gate("X", (0,), (0.5,))


def test_param_scaling_and_resolution():
    p = Param("t0").scaled(-2.0)
    assert p.resolve({"t0": 0.25}) == pytest.approx(-0.5, abs=1e-15)
    assert p.scaled(0.5).scale == -1.0
    with pytest.raises(KeyError, match="t0"):
        Param("t0").resolve({})


def test_gate_resolved_mixes_floats_and_params():
    c = Circuit(
        2,
        (
            Gate("RX", (0,), (Param("a"),)),
            Gate("RY", (1,), (0.5,)),
            Gate("RZ", (0,), (Param("b", scale=2.0),)),
        ),
    )
    resolved = [g.resolved({"a": 1.0, "b": 0.25}) for g in c.gates]
    assert resolved == [(1.0,), (0.5,), (0.5,)]


def test_circuit_bounds_check():
    with pytest.raises(ValueError, match="out of range"):
        Circuit(2, (Gate("X", (2,)),))
    with pytest.raises(ValueError, match="positive"):
        Circuit(0)


def test_free_parameters_first_appearance_order():
    c = Circuit(
        2,
        (
            Gate("RY", (0,), (Param("b"),)),
            Gate("RZ", (1,), (Param("a"),)),
            Gate("RY", (1,), (Param("b", scale=3.0),)),
        ),
    )
    assert c.free_parameters == ("b", "a")


def test_extended_appends():
    c = Circuit(2).extended(Gate("H", (0,)))
    assert len(c.gates) == 1
    assert c.n_qubits == 2


def test_stats_empty():
    assert circuit_stats(Circuit(2)) == (0, 0, 0)


def test_stats_hand_example():
    # H(0) and RY(1) run in parallel at level 1; the CNOT waits for both,
    # the final RZ lands at level 3
    c = Circuit(
        2,
        (
            Gate("H", (0,)),
            Gate("RY", (1,), (0.3,)),
            Gate("CNOT", (0, 1)),
            Gate("RZ", (1,), (Param("t0"),)),
        ),
    )
    assert circuit_stats(c) == (3, 1, 1)


def test_stats_counts_two_qubit_gates():
    c = Circuit(3, (Gate("CZ", (0, 1)), Gate("CNOT", (1, 2)), Gate("X", (0,))))
    assert circuit_stats(c)[1] == 2


def test_gate_matrices_unitary():
    rng = np.random.default_rng(17)
    for kind, (_, n_params) in GATE_KINDS.items():
        for _ in range(3):
            u = gate_matrix(kind, tuple(rng.uniform(-np.pi, np.pi, size=n_params)))
            assert np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-12), kind


def test_rotation_generators():
    # R_P(t) = exp(-i t P / 2) for P in {X, Y, Z}
    t = 0.731
    for kind, pauli in (("RX", X), ("RY", Y), ("RZ", Z)):
        expected = np.cos(t / 2) * np.eye(2) - 1j * np.sin(t / 2) * pauli
        assert np.allclose(gate_matrix(kind, (t,)), expected, atol=1e-12)


def test_cnot_truth_table():
    u = gate_matrix("CNOT", ())
    # basis order |control, target>: flipping the target iff control is 1
    assert np.allclose(u @ np.eye(4)[2], np.eye(4)[3])
    assert np.allclose(u @ np.eye(4)[3], np.eye(4)[2])
    assert np.allclose(u @ np.eye(4)[0], np.eye(4)[0])


def test_cz_phase():
    assert np.allclose(gate_matrix("CZ", ()), np.diag([1, 1, 1, -1]))


def test_gate_set():
    assert set(GATE_KINDS) == {"X", "H", "RX", "RY", "RZ", "CNOT", "CZ"}


def test_unknown_matrix_kind():
    with pytest.raises(ValueError, match="unknown gate kind"):
        gate_matrix("SWAP", ())
