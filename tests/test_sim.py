"""Statevector/density execution, depolarizing channels, sampling, readout noise."""
import hashlib
import itertools
import math
from collections import Counter
from functools import reduce

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

from remvqe import (
    Circuit,
    ConfusionMatrix,
    Gate,
    NoiseModel,
    Param,
    PauliHamiltonian,
    QuantumState,
    ansatz_circuit,
    apply_readout_noise,
    builtin,
    counts_to_distribution,
    device_confusion,
    expectation,
    gate_matrix,
    ground_state_energy,
    group_terms,
    h2_compact_spec,
    on_grid,
    run_density,
    run_statevector,
    sample_counts,
    uccsd_spec,
)
from remvqe import sim
from remvqe.ansatz import hartree_fock_circuit
from remvqe.circuits import GATE_KINDS
from remvqe.sim import _basis_probabilities, _program
from remvqe.vqe import _group_energy, _plan
from helpers import hardware_efficient_spec, hf_state

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def embed(u: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Dense oracle: lift a k-qubit unitary (first listed qubit = MSB) to n qubits."""
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=complex)
    k = len(qubits)
    for col in range(dim):
        sub_col = 0
        for pos, q in enumerate(qubits):
            sub_col |= ((col >> q) & 1) << (k - 1 - pos)
        for sub_row in range(1 << k):
            row = col
            for pos, q in enumerate(qubits):
                bit = (sub_row >> (k - 1 - pos)) & 1
                row = (row & ~(1 << q)) | (bit << q)
            full[row, col] += u[sub_row, sub_col]
    return full


# --- per-gate reference -------------------------------------------------------
# The compiled programs' oracle: every gate moves its axes to the front and
# applies one matrix, on a ket or (with its channel) on vec(rho).


def apply_left(v: np.ndarray, matrix: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Apply `matrix` on `qubits` to the vector `v` of an n-qubit register.

    The matrix's basis orders the first listed qubit as the most significant
    bit.
    """
    k = len(qubits)
    axes = [n - 1 - q for q in qubits]
    t = np.moveaxis(v.reshape((2,) * n), axes, range(k))
    shape = t.shape
    t = (matrix @ t.reshape(1 << k, -1)).reshape(shape)
    return np.moveaxis(t, range(k), axes).reshape(1 << n)


def channel(unitary: np.ndarray, p: float) -> np.ndarray:
    """Superoperator of `unitary` followed by depolarizing with p on vec(rho).

    vec(rho) = rho.reshape(-1) is a vector on 2n register qubits: column
    qubit q is register q and row qubit q is register q + n. A k-qubit gate
    U and its channel (d = 2^k, f = d^2 p / (d^2 - 1)) is then the d^2 x d^2
    matrix (1-f) U (x) conj(U) + (f/d) |vec I><vec I| on the registers
    (q + n for q in qubits) + qubits. The mixed part is the twirl identity
    sum_P P rho P = d^2 mixed(rho) - rho (sum over non-identity P), where
    mixed(rho) replaces the gate's qubits by I/d; it needs no U, because U
    leaves the partial trace over its own qubits unchanged.
    """
    d = unitary.shape[0]
    s = (unitary[:, None, :, None] * np.conj(unitary)[None, :, None, :]).reshape(d * d, d * d)
    if p:
        f = d * d * p / (d * d - 1.0)
        s *= 1.0 - f
        s[:: d + 1, :: d + 1] += f / d
    return s


def apply_gate(
    v: np.ndarray, unitary: np.ndarray, qubits: tuple[int, ...], n: int, p: float | None
) -> np.ndarray:
    """Gate on a ket (p None), or on vec(rho) followed by depolarizing with p."""
    if p is None:
        return apply_left(v, unitary, qubits, n)
    rows = tuple(q + n for q in qubits)
    return apply_left(v, channel(unitary, p), rows + qubits, 2 * n)


def evolve(circuit: Circuit, bindings, noise: NoiseModel | None) -> np.ndarray:
    """Per-gate reference from |0...0>: a ket when noise is None, else vec(rho)."""
    n = circuit.n_qubits
    v = np.zeros(1 << (n if noise is None else 2 * n), dtype=complex)
    v[0] = 1.0
    for gate in circuit.gates:
        p = None if noise is None else (noise.p1 if len(gate.qubits) == 1 else noise.p2)
        unitary = gate_matrix(gate.kind, tuple(sim._bind(gate.params, bindings)))
        v = apply_gate(v, unitary, gate.qubits, n, p)
    return v


# rho <-> r: the package holds noisy states as r and neither takes nor builds
# rho, so a test that starts from rho or reads rho converts here.
# Row P of FROM_RHO takes one qubit's 2 x 2 block of rho, (row, column) = 00,
# 01, 10, 11, to Tr(P block) for P = I, X, Y, Z.
FROM_RHO = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])


def pauli_vector(rho: np.ndarray) -> np.ndarray:
    """r_P = Tr(P rho), complex unless rho is Hermitian: a 4 x 4 product per qubit."""
    n = len(rho).bit_length() - 1
    v = rho.reshape((2,) * 2 * n).transpose([k for q in range(n) for k in (q, q + n)]).reshape(-1)
    for _ in range(n):
        v = (FROM_RHO @ v.reshape(-1, 4).T).reshape(-1)
    return v


def density_matrix(r: np.ndarray) -> np.ndarray:
    """Oracle of rho = sum_P r_P P / 2^n from explicit Kronecker products: the
    string at position sum_q a_q 4^q is P_(a_(n-1)) x ... x P_(a_0), letters
    I, X, Y, Z = 0-3, so the last factor is qubit 0."""
    n = (len(r).bit_length() - 1) // 2
    strings = itertools.product([PAULI_1Q[ch] for ch in "IXYZ"], repeat=n)
    return sum(c * reduce(np.kron, factors, np.eye(1)) for c, factors in zip(r, strings)) / (1 << n)


def as_state(state: np.ndarray) -> QuantumState:
    """A ket, or a Hermitian density matrix through its Pauli vector, real up
    to rounding, which the state refuses: its real part is passed."""
    if state.ndim == 1:
        return QuantumState(state)
    r = pauli_vector(state)
    assert np.abs(r.imag).max() < 1e-12
    return QuantumState(pauli=r.real)


def run_program(circuit: Circuit, bindings, noise: NoiseModel | None) -> np.ndarray:
    """The compiled program's ket, or vec(rho) of the program's Pauli vector."""
    program = _program(circuit, noise)
    out = program.run(sim._bind(program.angles, bindings))
    return out if noise is None else density_matrix(out).reshape(-1)


def random_circuit(n_qubits: int, n_gates: int, seed: int) -> Circuit:
    rng = np.random.default_rng(seed)
    one_q = ("RX", "RY", "RZ", "H", "X")
    gates = []
    for _ in range(n_gates):
        if n_qubits > 1 and rng.random() < 0.3:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            gates.append(Gate(rng.choice(("CNOT", "CZ")), (int(a), int(b))))
        else:
            kind = rng.choice(one_q)
            q = int(rng.integers(n_qubits))
            if kind in ("H", "X"):
                gates.append(Gate(kind, (q,)))
            else:
                gates.append(Gate(kind, (q,), (float(rng.uniform(-np.pi, np.pi)),)))
    return Circuit(n_qubits, tuple(gates))


def compact_state(theta: float) -> QuantumState:
    return run_statevector(ansatz_circuit(h2_compact_spec()), {"t0": theta})


# --- statevector execution ---------------------------------------------------


def test_empty_circuit_is_vacuum():
    state = run_statevector(Circuit(2))
    assert np.allclose(state.data, [1, 0, 0, 0])


def test_x_on_qubit_zero():
    state = run_statevector(Circuit(2, (Gate("X", (0,)),)))
    assert np.allclose(state.data, [0, 1, 0, 0])  # rightmost bit is qubit 0


def test_statevector_matches_dense_oracle():
    for seed in range(4):
        n = 3
        circuit = random_circuit(n, 12, seed)
        psi = np.zeros(1 << n, dtype=complex)
        psi[0] = 1.0
        for gate in circuit.gates:
            unitary = gate_matrix(gate.kind, tuple(sim._bind(gate.params, {})))
            psi = embed(unitary, gate.qubits, n) @ psi
        assert np.allclose(run_statevector(circuit).data, psi, atol=1e-10)


def test_parameter_binding():
    c = Circuit(1, (Gate("RY", (0,), (Param("t0", scale=2.0),)),))
    state = run_statevector(c, {"t0": 0.4})
    assert np.allclose(state.data, [np.cos(0.4), np.sin(0.4)])
    with pytest.raises(ValueError, match="unbound parameter"):
        run_statevector(c)
    with pytest.raises(ValueError, match="unbound parameter 't0'"):
        run_density(c, {"t1": 0.2}, NoiseModel(p2=0.01))
    # a run binds each distinct parameter once, before its first op, and
    # still names the one that is missing
    two = Circuit(2, (Gate("RX", (0,), (Param("a"),)), Gate("RY", (1,), (Param("b", -0.5),)),
                      Gate("RX", (1,), (Param("a"),)), Gate("RZ", (0,), (Param("b", 2.0),))))
    for noise in (None, NoiseModel(p2=0.01)):
        with pytest.raises(ValueError, match="unbound parameter 'b'"):
            run_program(two, {"a": 0.3}, noise)


def test_compact_circuit_reaches_ground_state():
    h = builtin("h2").geometry(0.7414).hamiltonian
    ground, _ = ground_state_energy(h)

    def energy(theta: float) -> float:
        return expectation(h, compact_state(theta))

    res = scipy.optimize.minimize_scalar(energy, bounds=(-np.pi, np.pi), method="bounded")
    assert res.fun == pytest.approx(ground, abs=1e-8)


# --- density-matrix execution ------------------------------------------------


def test_zero_noise_equals_pure_state():
    for seed in (0, 1):
        circuit = random_circuit(2, 30, seed)
        rho = density_matrix(run_density(circuit, noise=NoiseModel()).pauli)
        psi = run_statevector(circuit).data
        assert np.allclose(rho, np.outer(psi, np.conj(psi)), atol=1e-12)


def test_zero_noise_equivalence_long_circuit():
    circuit = random_circuit(3, 1000, seed=5)
    rho = density_matrix(run_density(circuit).pauli)
    psi = run_statevector(circuit).data
    assert np.max(np.abs(rho - np.outer(psi, np.conj(psi)))) < 1e-9


def test_one_qubit_channel_matches_pauli_mixture():
    # appending one noisy X on qubit 1 must act as U rho U+ followed by the
    # explicit (1-p) rho + p/3 (X rho X + Y rho Y + Z rho Z) mixture
    p = 0.137
    noise = NoiseModel(p2=0.08, p1=p)
    prep = Circuit(2, (Gate("RY", (0,), (0.7,)), Gate("RY", (1,), (-0.4,)), Gate("CNOT", (0, 1))))
    prep_rho = density_matrix(run_density(prep, noise=noise).pauli)
    x1 = embed(PAULI_1Q["X"], (1,), 2)
    rho = x1 @ prep_rho @ x1.conj().T
    mixture = (1 - p) * rho
    for label in "XYZ":
        u = embed(PAULI_1Q[label], (1,), 2)
        mixture += (p / 3) * (u @ rho @ u.conj().T)
    noisy = run_density(Circuit(prep.n_qubits, prep.gates + (Gate("X", (1,)),)), noise=noise)
    assert np.allclose(density_matrix(noisy.pauli), mixture, atol=1e-12)


def test_two_qubit_channel_matches_pauli_mixture():
    p = 0.09
    prep = Circuit(2, (Gate("H", (0,)), Gate("RY", (1,), (0.7,))))
    psi = run_statevector(prep).data
    cnot = embed(gate_matrix("CNOT", ()), (0, 1), 2)
    rho = cnot @ np.outer(psi, np.conj(psi)) @ cnot.conj().T
    mixture = (1 - p) * rho
    for a in "IXYZ":
        for b in "IXYZ":
            if a == b == "I":
                continue
            u = np.kron(PAULI_1Q[a], PAULI_1Q[b])
            mixture += (p / 15) * (u @ rho @ u.conj().T)

    circuit = Circuit(prep.n_qubits, prep.gates + (Gate("CNOT", (0, 1)),))
    noisy = run_density(circuit, noise=NoiseModel(p2=p, p1=0.0))
    assert np.allclose(density_matrix(noisy.pauli), mixture, atol=1e-12)


def draw_gate(draw, n: int, kinds, angle) -> Gate:
    kind = draw(st.sampled_from(kinds))
    arity, n_params = GATE_KINDS[kind]
    qubits = tuple(draw(st.permutations(range(n)))[:arity])
    return Gate(kind, qubits, tuple(draw(angle) for _ in range(n_params)))


@st.composite
def noisy_circuits(draw):
    """Circuits over every gate kind on 3-4 qubits, any qubit order, any noise."""
    n = draw(st.integers(3, 4))
    angle = st.floats(-np.pi, np.pi)
    gates = [draw_gate(draw, n, sorted(GATE_KINDS), angle) for _ in range(draw(st.integers(1, 8)))]
    noise = NoiseModel(p2=draw(st.floats(0.0, 1.0)), p1=draw(st.floats(0.0, 1.0)))
    return Circuit(n, tuple(gates)), noise, {}


def kraus_reference(circuit: Circuit, noise: NoiseModel, bindings) -> np.ndarray:
    """Dense oracle: U rho U+ then sum_K K rho K+ over the gate's Pauli Kraus operators."""
    n = circuit.n_qubits
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        k = len(gate.qubits)
        u = embed(gate_matrix(gate.kind, tuple(sim._bind(gate.params, bindings))), gate.qubits, n)
        rho = u @ rho @ u.conj().T
        p = noise.p1 if k == 1 else noise.p2
        kraus = []
        for labels in itertools.product("IXYZ", repeat=k):
            pauli = embed(reduce(np.kron, [PAULI_1Q[c] for c in labels]), gate.qubits, n)
            weight = 1.0 - p if set(labels) == {"I"} else p / (4**k - 1)
            kraus.append(np.sqrt(weight) * pauli)
        rho = sum(K @ rho @ K.conj().T for K in kraus)
    return rho


@settings(deadline=None, max_examples=40)
@given(noisy_circuits())
@example(
    (
        Circuit(4, (Gate("H", (2,)), Gate("CNOT", (2, 0)), Gate("RX", (3,), (0.3,)),
                    Gate("RY", (3,), (-1.1,)), Gate("RZ", (3,), (2.0,)), Gate("CZ", (3, 1)),
                    Gate("RY", (1,), (Param("t", -0.5),)))),
        NoiseModel(p2=0.2, p1=0.07),
        {"t": 0.9},
    )
)
def test_density_matches_kraus_reference(case):
    circuit, noise, bindings = case
    rho = density_matrix(run_density(circuit, bindings, noise).pauli)
    assert np.max(np.abs(rho - kraus_reference(circuit, noise, bindings))) < 1e-12


PARAM_NAMES = ("a", "b", "c")


@st.composite
def parametric_circuits(draw):
    """1-4 qubit circuits over every gate kind that fits, angles fixed or
    Param-bound (scaled, names repeated), a ket or any depolarizing noise."""
    n = draw(st.integers(1, 4))
    kinds = sorted(k for k, (arity, _) in GATE_KINDS.items() if arity <= n)
    param = st.builds(Param, st.sampled_from(PARAM_NAMES), st.sampled_from((1.0, -1.0, 0.5, -2.5)))
    angle = st.floats(-np.pi, np.pi) | param
    gates = [draw_gate(draw, n, kinds, angle) for _ in range(draw(st.integers(0, 24)))]
    rate = st.just(0.0) | st.floats(0.0, 1.0)
    noise = draw(st.none() | st.builds(NoiseModel, p2=rate, p1=rate))
    bindings = {name: draw(st.floats(-2 * np.pi, 2 * np.pi)) for name in PARAM_NAMES}
    return Circuit(n, tuple(gates)), bindings, noise


# Circuits that mix fixed one-qubit gates, Param-bound rotations and
# two-qubit gates on shared qubits, in every order: each Clifford gate
# conjugates the axes of the rotations before it (module doc of remvqe.sim).
FUSION_EDGES = (
    # a run of single-qubit gates on one qubit, then a two-qubit gate on it
    Circuit(2, (Gate("H", (0,)), Gate("RX", (0,), (0.4,)), Gate("X", (0,)),
                Gate("RZ", (0,), (-1.1,)), Gate("CNOT", (0, 1)))),
    # a fixed gate right before each Param-bound rotation on its qubit
    Circuit(2, (Gate("H", (1,)), Gate("RX", (1,), (Param("a"),)), Gate("X", (0,)),
                Gate("RY", (0,), (Param("b", -0.5),)), Gate("RY", (1,), (0.9,)),
                Gate("RZ", (1,), (Param("c", 2.0),)), Gate("CZ", (1, 0)))),
    # single-qubit gates after the last two-qubit gate
    Circuit(3, (Gate("H", (2,)), Gate("CNOT", (2, 0)), Gate("RX", (0,), (0.3,)),
                Gate("H", (2,)), Gate("RY", (2,), (Param("a"),)), Gate("X", (1,)),
                Gate("RZ", (2,), (1.2,)))),
    # one-qubit gates on both qubits of each two-qubit gate, in either order
    Circuit(3, (Gate("H", (0,)), Gate("RX", (2,), (0.4,)), Gate("CNOT", (2, 0)),
                Gate("RY", (0,), (-0.8,)), Gate("X", (2,)), Gate("CNOT", (0, 2)),
                Gate("RZ", (1,), (Param("a"),)), Gate("H", (1,)), Gate("RY", (2,), (1.3,)),
                Gate("CZ", (2, 1)))),
)


def fusion_edge_examples(test):
    for circuit in FUSION_EDGES:
        for noise in (None, NoiseModel(p2=0.1, p1=0.03)):
            test = example((circuit, {"a": 0.7, "b": -1.3, "c": 0.4}, noise))(test)
    return test


@settings(deadline=None, max_examples=200)
@given(parametric_circuits())
@example(
    (
        Circuit(2, (Gate("RX", (1,), (Param("a"),)), Gate("CNOT", (1, 0)),
                    Gate("RY", (0,), (Param("a", -0.5),)), Gate("RZ", (1,), (Param("b", 2.0),)))),
        {"a": 0.7, "b": -1.3, "c": 0.0},
        NoiseModel(p2=0.1, p1=0.03),
    )
)
@fusion_edge_examples
def test_compiled_program_matches_per_gate_reference(case):
    circuit, bindings, noise = case
    compiled = run_program(circuit, bindings, noise)
    assert np.max(np.abs(compiled - evolve(circuit, bindings, noise))) < 1e-12


def test_ket_program_keeps_one_op_per_rotation():
    # Clifford gates fold into the start ket: a ket program runs one op per
    # Param-bound rotation, in circuit order, and one per fixed rotation at
    # a non-Clifford angle
    uccsd = ansatz_circuit(uccsd_spec(4))
    bound = [g.params[0] for g in uccsd.gates if g.params and isinstance(g.params[0], Param)]
    assert [angle for *_, angle in _program(uccsd, None).ops] == bound
    assert len(bound) == 40
    hwe = ansatz_circuit(hardware_efficient_spec(4))
    compact = ansatz_circuit(h2_compact_spec())
    fixed = Circuit(2, (Gate("H", (0,)), Gate("RX", (1,), (0.4,)), Gate("CNOT", (1, 0))))
    clifford = Circuit(3, (Gate("H", (0,)), Gate("CNOT", (0, 2)), Gate("RZ", (2,), (np.pi / 2,)),
                           Gate("RX", (1,), (np.pi,)), Gate("CZ", (2, 1)), Gate("X", (0,)),
                           Gate("RY", (1,), (-np.pi / 2,)), Gate("H", (2,))))
    assert len(_program(hwe, None).ops) == 12
    assert len(_program(compact, None).ops) == 1
    assert [angle for *_, angle in _program(fixed, None).ops] == [0.4]
    assert _program(clifford, None).ops == ()
    rng = np.random.default_rng(3)
    for circuit in (uccsd, hwe, compact, fixed, clifford):
        bindings = {g.params[0].name: rng.uniform(-np.pi, np.pi) for g in circuit.gates
                    if g.params and isinstance(g.params[0], Param)}
        program = _program(circuit, None)
        compiled = program.run(sim._bind(program.angles, bindings))
        assert np.max(np.abs(compiled - evolve(circuit, bindings, None))) < 1e-12


def test_wide_ket_program_matches_per_gate_reference():
    # a 12-qubit hardware-efficient chain: 36 ops on 4096 amplitudes
    spec = hardware_efficient_spec(12)
    circuit = ansatz_circuit(spec)
    rng = np.random.default_rng(12)
    bindings = dict(zip(spec.parameter_names(), rng.uniform(-np.pi, np.pi, spec.n_params)))
    program = _program(circuit, None)
    assert len(program.ops) == 36
    compiled = program.run(sim._bind(program.angles, bindings))
    assert np.max(np.abs(compiled - evolve(circuit, bindings, None))) < 1e-12


def rotation_angles(program) -> list:
    """A noisy program's rotation angles in circuit order, over its ops."""
    return [angle for *_, angles in program.ops for angle in angles]


def test_noisy_program_pairs_commuting_rotations():
    # Clifford gates fold into the start and depolarizing channels into the
    # ops' tables, and each rotation shares an op with the next one when
    # their axes differ and commute: the LiH UCCSD density program runs its
    # 40 Param-bound RZ in 20 ops, a fixed non-Clifford rotation is one op at
    # its constant angle, and a noisy program lists its ket program's angles
    # at every noise rate
    circuit = ansatz_circuit(uccsd_spec(4))
    bound = [g for g in circuit.gates if g.params and isinstance(g.params[0], Param)]
    assert len(bound) == 40 and {g.kind for g in bound} == {"RZ"}
    program = _program(circuit, NoiseModel(p2=4e-3))
    assert rotation_angles(program) == [g.params[0] for g in bound]
    assert [len(angles) for *_, angles in program.ops] == [2] * 20
    hwe = _program(ansatz_circuit(hardware_efficient_spec(4)), NoiseModel(p2=4e-3))
    assert [len(angles) for *_, angles in hwe.ops] == [2] * 6
    fixed = Circuit(2, (Gate("H", (0,)), Gate("RX", (1,), (0.4,)), Gate("CNOT", (1, 0))))
    assert [angles for *_, angles in _program(fixed, NoiseModel(p2=0.01)).ops] == [(0.4,)]
    noises = (NoiseModel(), NoiseModel(p2=0.01), NoiseModel(p2=0.1, p1=0.75),
              NoiseModel(p2=15 / 16, p1=0.75))
    for c in (circuit, fixed, *TRANSFER_EDGES, *PAIR_EDGES):
        ket_angles = [angle for *_, angle in _program(c, None).ops]
        for noise in noises:
            assert rotation_angles(_program(c, noise)) == ket_angles
    # the noiseless density start, doubled over the stabilizer generators, is
    # the Pauli vector of the ket start: every entry exactly 0 or +-1
    hwes = [ansatz_circuit(hardware_efficient_spec(n)) for n in (4, 6, 8)]
    for c in (circuit, fixed, *hwes, *TRANSFER_EDGES, *PAIR_EDGES):
        ket = _program(c, None).start
        start = _program(c, NoiseModel()).start
        pauli = pauli_vector(np.outer(ket, ket.conj()))
        assert np.array_equal(start, np.rint(pauli.real)) and np.max(np.abs(start - pauli)) < 1e-12
        assert set(np.unique(start)) <= {-1.0, 0.0, 1.0}
    # a Bell pair's generators X0 X1 and Z0 Z1 multiply into -Y0 Y1
    bell = np.zeros(16)
    bell[[0, 5, 15, 10]] = 1.0, 1.0, 1.0, -1.0  # II, XX, ZZ, YY
    start = _program(Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1)))), NoiseModel()).start
    assert np.array_equal(start, bell)
    sizes = [[len(angles) for *_, angles in _program(c, NoiseModel(p2=0.01)).ops] for c in PAIR_EDGES]
    assert sizes == [[1, 2], [1, 1, 1], [2, 1], [2], []]
    # an op of k rotations stores a (3^k, 4^n / 2^k) gather and table
    for n in (4, 6, 8):
        wide = _program(ansatz_circuit(hardware_efficient_spec(n)), NoiseModel(p2=4e-3))
        stored = sum(gather.nbytes + table.nbytes for gather, table, _ in wide.ops)
        assert stored <= 24 * 4**n * len(rotation_angles(wide))


# Circuits at the edges of the Clifford test and the dampings: fixed
# rotations at and next to Clifford angles, and rates that give keep = 0.
TRANSFER_EDGES = (
    Circuit(2, (Gate("RX", (0,), (np.pi / 2,)), Gate("RY", (1,), (-np.pi / 2,)),
                Gate("RZ", (0,), (np.pi,)), Gate("CZ", (0, 1)), Gate("RY", (0,), (np.pi,)),
                Gate("RX", (1,), (np.pi / 2 + 1e-9,)), Gate("RZ", (1,), (Param("a"),)),
                Gate("CNOT", (1, 0)), Gate("RX", (0,), (0.0,)))),
    Circuit(3, (Gate("H", (2,)), Gate("RY", (2,), (Param("a"),)), Gate("CNOT", (2, 0)),
                Gate("RX", (0,), (0.3,)), Gate("RX", (1,), (Param("b", -2.5),)),
                Gate("CZ", (1, 2)), Gate("X", (1,)))),
    # quarter turns after rotations: Cliffords that are not their own inverse
    Circuit(2, (Gate("RY", (0,), (Param("a"),)), Gate("RX", (0,), (np.pi / 2,)),
                Gate("RX", (1,), (Param("b"),)), Gate("RZ", (1,), (-np.pi / 2,)),
                Gate("CNOT", (0, 1)), Gate("RY", (1,), (3 * np.pi / 2,)), Gate("RY", (0,), (0.8,)),
                Gate("RZ", (0,), (np.pi / 2,)))),
    # a Clifford update whose two images multiply with phase -1: after the
    # last CNOT and the H, the first CNOT's Z1 -> Z0 Z1 multiplies the
    # images X0 X1 and Z0 Z1 into -Y0 Y1, the RZ's axis
    Circuit(2, (Gate("H", (1,)), Gate("RZ", (1,), (Param("a"),)), Gate("CNOT", (0, 1)),
                Gate("H", (0,)), Gate("CNOT", (0, 1)))),
)


# Where a rotation does not pair with the next one (module doc of
# remvqe.sim), and a keep = 0 channel inside a pair.
PAIR_EDGES = (
    # two rotations about Z0, the second pairs with the RX about X1
    Circuit(2, (Gate("H", (0,)), Gate("RZ", (0,), (Param("a"),)), Gate("RZ", (0,), (Param("b", -0.5),)),
                Gate("CNOT", (0, 1)), Gate("RX", (1,), (0.3,)))),
    # anticommuting neighbours X0 X1, Z0, Y0
    Circuit(2, (Gate("RX", (0,), (Param("a"),)), Gate("CNOT", (0, 1)), Gate("RZ", (0,), (Param("b"),)),
                Gate("RY", (0,), (0.9,)), Gate("H", (1,)))),
    # three commuting rotations: the last is unpaired
    Circuit(3, (Gate("RZ", (0,), (Param("a"),)), Gate("RZ", (1,), (Param("b"),)), Gate("H", (2,)),
                Gate("RZ", (2,), (0.4,)), Gate("CNOT", (0, 2)))),
    # the RY's and the CZ's channels, keep = 0 at p1 = 3/4 and p2 = 15/16,
    # between the paired Y0 Z1 and Z1
    Circuit(2, (Gate("H", (0,)), Gate("RY", (0,), (Param("a"),)), Gate("CZ", (0, 1)),
                Gate("RZ", (1,), (Param("b"),)))),
    # no rotation: the program is its start
    Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("RZ", (1,), (np.pi / 2,)),
                Gate("RX", (0,), (np.pi,)), Gate("CZ", (1, 0)), Gate("RY", (1,), (-np.pi / 2,)))),
)


# The noise models of the edge circuits: rates that give keep = 0, and the ket.
EDGE_NOISES = (NoiseModel(), NoiseModel(p2=0.1, p1=0.03), NoiseModel(p2=15 / 16, p1=0.75),
               NoiseModel(p2=15 / 16, p1=0.01), NoiseModel(p2=1.0, p1=1.0), None)


@pytest.mark.parametrize("circuit", TRANSFER_EDGES + PAIR_EDGES)
@pytest.mark.parametrize("noise", EDGE_NOISES)
def test_transfer_program_edges_match_per_gate_reference(circuit, noise):
    bindings = {"a": 0.7, "b": -1.3}
    compiled = run_program(circuit, bindings, noise)
    assert np.max(np.abs(compiled - evolve(circuit, bindings, noise))) < 1e-12


def program_digest(circuit: Circuit) -> str:
    """sha256 of the circuit's noisy programs under EDGE_NOISES: every array
    (dtype, shape and bytes, signed zeros made +0) and the angles' repr."""
    digest = hashlib.sha256()
    for noise in [noise for noise in EDGE_NOISES if noise is not None]:
        program = _program(circuit, noise)
        arrays = [program.start, program.final, *program.weights]
        for gather, table, angles in program.ops:
            arrays += [gather, table]
            digest.update(repr(angles).encode())
        for array in arrays:
            array = np.ascontiguousarray(array + 0.0 if array.dtype.kind == "f" else array)
            digest.update(f"{array.dtype.str}{array.shape}".encode() + array.tobytes())
        digest.update(repr(program.angles).encode())
    return digest.hexdigest()


# program_digest of each circuit. A rewrite of the compiler keeps these
# bytes; a change that moves them on purpose records new digests and says why.
PROGRAM_DIGESTS = {
    "lih-uccsd": "a163baacc34485e6a156e06ab8a2a0d59d2692fe30e8994826ec2f9ed46faa66",
    "hwe-4": "a6962401f7c9326ab4e22c28d277d3257df4dad8f0a69d883b13f2537ad23027",
    "hwe-6": "0b2b0f1e7e8e61b72fa8b944efa065b7ff8eddf0c1caf1f9b292cb25df45ab17",
    "transfer-0": "e86e1923ea55b677afbbb2f83d09f7dc910c3fb55a2b31503c61a4c40b3eac06",
    "transfer-1": "785000945d6feb7355b66b525fe6b0c697dd249fa4da8cf8fa1109d18cd7ea78",
    "transfer-2": "f8893fd99eb7da6937b4f20aaa81d4ef4763c88327a1c4b1b2945a637821abf8",
    "transfer-3": "7c29c9a0c99cebb48b41d4d16522a59fa66fc717f63d3c7a6440b21b35b107e4",
    "pair-0": "8761c2ceaf78cb95b7f906e8dd29726697162b65c0651bacea673bd6e563134e",
    "pair-1": "50df754317a547048044cdbc3740d1dbef6d20c0298893290fb681399832876c",
    "pair-2": "f3d185b17158191fcddb6bc48671557e3b01eef6f4d119e7a2efab8d7caf5b57",
    "pair-3": "0b1330b9be94e8c5900ef52b21cb1ea46e5bf61a2eca01fb1ddb410704d8003a",
    "pair-4": "68f45dcc847cd3f5f00b2d4ea9d4ae96a83bb545c507a039f17845c3fd27d17f",
}


# The circuits of PROGRAM_DIGESTS: programs of pairs, of singles, of both, and of no op.
DIGEST_CIRCUITS = {"lih-uccsd": ansatz_circuit(uccsd_spec(4)),
                   "hwe-4": ansatz_circuit(hardware_efficient_spec(4)),
                   "hwe-6": ansatz_circuit(hardware_efficient_spec(6)),
                   **{f"transfer-{i}": c for i, c in enumerate(TRANSFER_EDGES)},
                   **{f"pair-{i}": c for i, c in enumerate(PAIR_EDGES)}}


def test_noisy_programs_match_pinned_digests():
    # the compiled noisy programs stay byte for byte the same: gathers,
    # tables, start, final gather, weights and angles (ket programs are left
    # out, their einsum start ket is not bit-stable across numpy builds)
    assert {name: program_digest(c) for name, c in DIGEST_CIRCUITS.items()} == PROGRAM_DIGESTS


def stacked_run(program, bound: list[float]) -> np.ndarray:
    """A transfer program's r with each op's W taken from the stacks of its
    weights, u[one] for a single and u[first] * u[second] for a pair."""
    r = program.start
    if program.ops:
        u = np.array([0.0, 1.0, *[x for t in bound for x in (math.cos(t), math.sin(t))]])
        one, first, second = program.weights
        singles, pairs = iter(u[one]), iter(u[first] * u[second])
        for gather, table, angles in program.ops:
            r = np.dot(next(singles if len(angles) == 1 else pairs), r[gather] * table).ravel()
        r = r[program.final]
    return r


@pytest.mark.parametrize("noise", [noise for noise in EDGE_NOISES if noise is not None])
@pytest.mark.parametrize("name", list(DIGEST_CIRCUITS))
def test_transfer_run_fills_each_op_weights_as_its_stack(name, noise):
    # a run's one product into fixed per-op views gives every op the W its
    # weights stack, bit for bit; bindings a, b, a show a stale shared buffer
    program = _program(DIGEST_CIRCUITS[name], noise)
    names = sorted({angle.name for angle in program.angles if isinstance(angle, Param)})
    rng = np.random.default_rng(len(names))
    a, b = (dict(zip(names, rng.uniform(-7.0, 7.0, len(names)))) for _ in range(2))
    for bindings in (a, b, a):
        bound = sim._bind(program.angles, bindings)
        assert program.run(bound).tobytes() == stacked_run(program, bound).tobytes()


def test_deep_noisy_program_matches_per_gate_reference():
    # the paper's regime beyond 1000 two-qubit gates: the LiH UCCSD body
    # repeated as 6 steps at theta/6, 1032 CNOTs under two-qubit noise
    spec = uccsd_spec(4)
    prep = len(hartree_fock_circuit(spec).gates)
    gates = ansatz_circuit(spec).gates
    step = tuple(
        Gate(g.kind, g.qubits, (g.params[0].scaled(1 / 6),))
        if g.params and isinstance(g.params[0], Param) else g
        for g in gates[prep:]
    )
    circuit = Circuit(4, gates[:prep] + 6 * step)
    assert sum(g.kind == "CNOT" for g in circuit.gates) == 1032
    rng = np.random.default_rng(11)
    bindings = dict(zip(spec.parameter_names(), rng.uniform(-np.pi, np.pi, spec.n_params)))
    noise = NoiseModel(p2=4e-3)
    compiled = run_program(circuit, bindings, noise)
    assert np.max(np.abs(compiled - evolve(circuit, bindings, noise))) < 1e-12


def test_compiled_program_is_reused(monkeypatch):
    # a fresh circuit compiles once per noise model, one matrix per fixed gate
    # in any order (the compile walks the gates backward); later runs build none
    calls = []

    def counted(kind, params):
        calls.append(kind)
        return gate_matrix(kind, params)

    monkeypatch.setattr(sim, "gate_matrix", counted)
    circuit = Circuit(3, (Gate("H", (0,)), Gate("CNOT", (0, 2)), Gate("RY", (2,), (Param("x"),)),
                          Gate("RX", (1,), (0.4,)), Gate("CZ", (1, 2))))
    for run in (lambda b: run_density(circuit, b, NoiseModel(p2=0.01)).pauli,
                lambda b: run_statevector(circuit, b).data):
        first = run({"x": 0.3})
        assert Counter(calls) == Counter(["H", "CNOT", "RX", "CZ"])
        assert not np.allclose(run({"x": -0.8}), first)
        assert len(calls) == 4
        calls.clear()


MEMO_SPECS = {"lih-uccsd": uccsd_spec(4), "hwe4": hardware_efficient_spec(4),
              "h2-compact": h2_compact_spec()}
MEMO_NOISES = {"ket": None, "density": NoiseModel(p2=4e-3)}


def memo_run(spec, noise, bindings) -> QuantumState:
    circuit = ansatz_circuit(spec)
    return run_statevector(circuit, bindings) if noise is None else run_density(circuit, bindings, noise)


def state_bytes(state: QuantumState) -> bytes:
    return (state.pauli if state.is_density else state.data).tobytes()


@pytest.mark.parametrize("noise", list(MEMO_NOISES), ids=list(MEMO_NOISES))
@pytest.mark.parametrize("name", list(MEMO_SPECS))
@settings(deadline=None, max_examples=25)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-7.0, 7.0)),
                min_size=12, max_size=12))
def test_memoized_state_equals_a_fresh_run_byte_for_byte(name, noise, angles):
    # a memo hit returns the state it kept, which is the state the program
    # runs afresh at the same bindings, bit for bit
    spec, noise = MEMO_SPECS[name], MEMO_NOISES[noise]
    program = _program(ansatz_circuit(spec), noise)
    bindings = dict(zip(spec.parameter_names(), angles))
    first = memo_run(spec, noise, bindings)
    assert memo_run(spec, noise, dict(bindings)) is first
    fresh = program.run(sim._bind(program.angles, bindings))
    assert state_bytes(first) == fresh.tobytes()


@pytest.mark.parametrize("noise", list(MEMO_NOISES), ids=list(MEMO_NOISES))
@pytest.mark.parametrize("name", list(MEMO_SPECS))
def test_memo_keeps_signed_zeros_apart_and_nan_out(name, noise):
    # 0.0 == -0.0, but sin(-0.0) is -0.0: each sign keys its own state, in
    # either order; a NaN angle raises and keeps nothing
    spec, noise = MEMO_SPECS[name], MEMO_NOISES[noise]
    program = _program(ansatz_circuit(spec), noise)
    names = spec.parameter_names()
    for order in ((-0.0, 0.0), (0.0, -0.0)):
        program.memo.clear()
        for zero in order:
            bindings = dict.fromkeys(names, zero)
            state = memo_run(spec, noise, bindings)
            assert state_bytes(state) == program.run(sim._bind(program.angles, bindings)).tobytes()
        assert len(program.memo) == 2
    with pytest.raises(ValueError):
        memo_run(spec, noise, {p: math.nan if i == 0 else 0.1 for i, p in enumerate(names)})
    assert len(program.memo) == 2


def test_memo_holds_its_budget_of_states():
    # FIFO past 2^13 floats of states: 512 two-qubit and 32 four-qubit
    # Pauli vectors, 1024 two-qubit kets; the oldest state goes first
    for spec, noise, budget in ((h2_compact_spec(), NoiseModel(p2=0.01), 512),
                                (uccsd_spec(4), NoiseModel(p2=4e-3), 32),
                                (h2_compact_spec(), None, 1024)):
        program = _program(ansatz_circuit(spec), noise)
        program.memo.clear()
        names = spec.parameter_names()
        thetas = np.linspace(-3.0, 3.0, budget + 5)
        states = [memo_run(spec, noise, dict.fromkeys(names, t)) for t in thetas]
        assert len(program.memo) == budget
        assert memo_run(spec, noise, dict.fromkeys(names, thetas[-1])) is states[-1]
        assert memo_run(spec, noise, dict.fromkeys(names, thetas[0])) is not states[0]
        assert len(program.memo) == budget
    # a 10-qubit Pauli vector is 4^10 floats, over the budget: one state is
    # kept (the program, tens of MB, is compiled outside _program's cache)
    wide = Circuit(10, (Gate("RY", (3,), (Param("a"),)), Gate("CNOT", (3, 7))))
    program = _program.__wrapped__(wide, NoiseModel(p2=0.01))
    states = [sim._memoized(program, {"a": a}) for a in (0.1, 0.2, 0.3)]
    assert list(program.memo.values()) == states[-1:]


def test_basis_distributions_are_kept_on_the_state_read_only():
    labels = ("XZ", "ZZ")
    circuit = ansatz_circuit(h2_compact_spec())
    for state in (run_density(circuit, {"t0": 0.4}, NoiseModel(p2=0.01)),
                  run_statevector(circuit, {"t0": 0.4})):
        probs = _basis_probabilities(state, labels)
        assert _basis_probabilities(state, labels) is probs
        with pytest.raises(ValueError):
            probs[0, 0] = 1.0
        assert not _basis_probabilities(state, labels[1:]).flags.writeable
        assert not _basis_probabilities(state, ()).flags.writeable


def test_basis_distributions_with_the_callers_labels():
    # vqe passes the labels it keeps per Hamiltonian: each row of the stack
    # is that of its basis alone bit for bit, and a basis of another width
    # still fails
    labels = ("XZ", "YY", "ZI")
    circuit = ansatz_circuit(h2_compact_spec())
    r = run_density(circuit, {"t0": 0.4}, NoiseModel(p2=0.01)).pauli
    psi = run_statevector(circuit, {"t0": 0.4}).data
    for fresh in (lambda: QuantumState(pauli=r), lambda: QuantumState(psi)):
        given_labels = _basis_probabilities(fresh(), labels)
        for row, label in zip(given_labels, labels):
            assert row.tobytes() == _basis_probabilities(fresh(), (label,))[0].tobytes()
        # the error names the basis of the wrong width, not the first one
        for wide in (("XZZ",), ("XZ", "XZZ")):
            with pytest.raises(ValueError, match="basis 'XZZ' does not match 2 qubits"):
                _basis_probabilities(fresh(), wide)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(1, 4).flatmap(lambda n: st.text(alphabet="XYZ", min_size=n, max_size=n)),
    st.integers(0, 2**32 - 1),
)
def test_basis_probabilities_density_matches_ket(label, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << len(label)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    ket = _basis_probabilities(QuantumState(psi), (label,))[0]
    density = _basis_probabilities(as_state(np.outer(psi, psi.conj())), (label,))[0]
    assert np.max(np.abs(ket - density)) < 1e-12


@settings(deadline=None, max_examples=40)
@given(
    st.integers(1, 4).flatmap(lambda n: st.text(alphabet="IXYZ", min_size=n, max_size=n)),
    st.integers(0, 2**32 - 1),
)
def test_basis_probabilities_match_per_qubit_rotations(label, seed):
    # reference: rotate qubit by qubit through the gate kernel, then read
    # |psi|^2 or the diagonal of rho
    rng = np.random.default_rng(seed)
    n = len(label)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    rho = 0.7 * rho + 0.3 * np.eye(1 << n) / (1 << n)
    rotation = {"X": sim._HADAMARD, "Y": sim._Y_TO_Z}
    for state, p in ((psi, None), (rho, 0.0)):
        v = state.reshape(-1)
        for q, ch in enumerate(reversed(label)):  # the rightmost letter acts on qubit 0
            if ch in rotation:
                v = apply_gate(v, rotation[ch], (q,), n, p)
        ref = np.abs(v) ** 2 if p is None else np.real(v[:: (1 << n) + 1])
        fast = _basis_probabilities(as_state(state), (label,))[0]
        assert np.max(np.abs(fast - ref / ref.sum())) < 1e-12


def single_basis_probabilities(state: np.ndarray, label: str) -> np.ndarray:
    """One basis at a time: U from its own Kronecker products, then one product."""
    u = reduce(np.kron, (sim._ROTATION[ch] for ch in label), np.ones((1, 1), dtype=complex))
    if state.ndim == 2:
        probs = np.real(((u @ state) * u.conj()).sum(axis=1))
    else:
        probs = np.abs(u @ state) ** 2
    probs[probs < 0] = 0.0
    return probs / probs.sum()


@settings(deadline=None, max_examples=40)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.text(alphabet="IXYZ", min_size=n, max_size=n), min_size=1, max_size=8
        )
    ),
    st.integers(0, 2**32 - 1),
)
def test_batched_basis_probabilities_match_single_basis_bit_for_bit(labels, seed):
    rng = np.random.default_rng(seed)
    n = len(labels[0])
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    psi /= np.linalg.norm(psi)
    rho = 0.7 * np.outer(psi, psi.conj()) + 0.3 * np.eye(1 << n) / (1 << n)
    labels = tuple(labels)
    for state in (psi, rho):
        batched = _basis_probabilities(as_state(state), labels)
        assert batched.shape == (len(labels), 1 << n)
        for row, label in zip(batched, labels):
            single = _basis_probabilities(as_state(state), (label,))[0]
            assert np.array_equal(row, single)
            if state.ndim == 1:
                assert np.array_equal(row, single_basis_probabilities(state, label))


@st.composite
def noisy_measurements(draw):
    """A 1-4 qubit noisy circuit with its bindings, bases with I letters, and
    a Hamiltonian on its qubits."""
    n = draw(st.integers(1, 4))
    kinds = sorted(k for k, (arity, _) in GATE_KINDS.items() if arity <= n)
    param = st.builds(Param, st.sampled_from(PARAM_NAMES), st.sampled_from((1.0, -0.5)))
    angle = st.floats(-np.pi, np.pi) | param
    gates = [draw_gate(draw, n, kinds, angle) for _ in range(draw(st.integers(0, 16)))]
    noise = NoiseModel(p2=draw(st.floats(0.0, 1.0)), p1=draw(st.floats(0.0, 1.0)))
    bindings = {name: draw(st.floats(-2 * np.pi, 2 * np.pi)) for name in PARAM_NAMES}
    label = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    bases = tuple(draw(st.lists(label, min_size=1, max_size=6)))
    terms = draw(st.lists(st.tuples(label, st.floats(-1.0, 1.0)), min_size=1, max_size=8))
    h = PauliHamiltonian(n, tuple(terms), draw(st.floats(-2.0, 2.0)))
    return Circuit(n, tuple(gates)), bindings, noise, bases, h


@settings(deadline=None, max_examples=60)
@given(noisy_measurements())
def test_pauli_vector_measurements_match_density_matrix(case):
    # distributions and exact energies read from r against the same
    # quantities of the per-gate reference's density matrix
    circuit, bindings, noise, bases, h = case
    n = circuit.n_qubits
    rho = evolve(circuit, bindings, noise).reshape(1 << n, 1 << n)
    state = run_density(circuit, bindings, noise)
    probs = _basis_probabilities(state, bases)
    for row, basis in zip(probs, bases):
        assert np.max(np.abs(row - single_basis_probabilities(rho, basis))) < 1e-12
    dense = sum(c * reduce(np.kron, [PAULI_1Q[ch] for ch in label]) for label, c in h.terms)
    exact = float(np.real(np.trace(dense @ rho))) + h.offset
    assert abs(expectation(h, state) - exact) < 1e-12


def test_basis_must_match_state_qubits():
    circuit = Circuit(2, (Gate("H", (0,)), Gate("CNOT", (0, 1))))
    for state in (run_density(circuit, noise=NoiseModel(p2=0.01)), run_statevector(circuit)):
        with pytest.raises(ValueError, match="basis 'ZZZZ' does not match 2 qubits"):
            _basis_probabilities(state, ("ZZZZ",))


def test_total_probability_three_quarters_fully_mixes():
    # p1 = 3/4 spreads the state uniformly over all four Paulis, the channel
    # fixed point; p2 = 15/16 is the two-qubit analogue
    rho = density_matrix(
        run_density(Circuit(1, (Gate("H", (0,)),)), noise=NoiseModel(p2=0.0, p1=0.75)).pauli
    )
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)
    rho2 = density_matrix(run_density(
        Circuit(2, (Gate("CNOT", (0, 1)),)), noise=NoiseModel(p2=15.0 / 16.0, p1=0.0)
    ).pauli)
    assert np.allclose(rho2, np.eye(4) / 4, atol=1e-12)


def test_maximal_error_probability_still_cptp():
    rho = density_matrix(
        run_density(Circuit(1, (Gate("H", (0,)),)), noise=NoiseModel(p2=0.0, p1=1.0)).pauli
    )
    eigs = np.linalg.eigvalsh(rho)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert eigs.min() > -1e-12


def test_trace_and_hermiticity_preserved_long_noisy_circuit():
    circuit = random_circuit(4, 2000, seed=3)
    rho = density_matrix(run_density(circuit, noise=NoiseModel(p2=0.05)).pauli)
    assert abs(np.trace(rho).real - 1.0) < 1e-9
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-9
    assert np.linalg.eigvalsh(rho).min() > -1e-9


def test_noise_model_defaults_and_validation():
    nm = NoiseModel(p2=0.02)
    assert nm.p1 == pytest.approx(0.002, abs=1e-15)
    assert NoiseModel(p2=0.02, p1=0.5).p1 == 0.5
    with pytest.raises(ValueError, match="p2"):
        NoiseModel(p2=1.5)
    with pytest.raises(ValueError, match="p1"):
        NoiseModel(p2=0.0, p1=-0.1)


# --- QuantumState ------------------------------------------------------------


def test_state_validation():
    with pytest.raises(ValueError, match="not normalized"):
        QuantumState(np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="not \\(2\\^n,\\)"):
        QuantumState(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="not \\(2\\^n,\\)"):
        QuantumState(np.zeros((2, 2, 2)))
    # a density matrix is given as its Pauli vector, never as rho
    for rho in (np.eye(2) / 2, np.zeros((2, 4)), np.array([[0.5, 0.3j], [0.3j, 0.5]])):
        with pytest.raises(ValueError, match="pass rho as pauli=r"):
            QuantumState(rho)
    # a ket or pauli=r, not both or neither
    with pytest.raises(ValueError, match="not both or neither"):
        QuantumState(np.array([1.0, 0.0]), pauli=np.array([1.0, 0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="not both or neither"):
        QuantumState()
    with pytest.raises(ValueError, match="trace"):
        QuantumState(pauli=np.array([2.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="not \\(4\\^n,\\)"):
        QuantumState(pauli=np.ones(8))
    # r is real, finite and within [-1, 1] (|Tr(P rho)| <= 1); a NaN trace,
    # entry or norm fails its check, also in a read-only float64 r, which is
    # held as it is
    nan = float("nan")
    for r, message in (([1, 0.5j, 0, 0], "not real"), ([1, 5, 0, 0], "lie in \\[-1, 1\\]"),
                       ([1, nan, 0, 0], "finite"), ([nan, 0, 0, 0], "trace")):
        with pytest.raises(ValueError, match=message):
            QuantumState(pauli=r)
        if message != "not real":
            frozen = np.array(r, dtype=float)
            frozen.setflags(write=False)
            with pytest.raises(ValueError, match=message):
                QuantumState(pauli=frozen)
    with pytest.raises(ValueError, match="not normalized"):
        QuantumState(np.array([nan, 0.0]))


@pytest.mark.parametrize("kind", ["ket", "pauli"])
def test_state_leaves_the_callers_array_alone(kind):
    # a writable input is copied: it stays writable, and writing to it later
    # does not reach the state; a read-only input may be shared
    arr = {"ket": np.array([1, 0], dtype=complex), "pauli": np.array([1.0, 0.0, 0.0, 1.0])}[kind]
    state = QuantumState(pauli=arr) if kind == "pauli" else QuantumState(arr)
    held = state.pauli if kind == "pauli" else state.data
    before = held.copy()
    arr[0] = 0
    assert np.array_equal(held, before)
    frozen = np.array([1.0, 0.0, 0.0, 1.0])
    frozen.setflags(write=False)
    assert QuantumState(pauli=frozen).pauli is frozen
    single = frozen.astype(np.float32)  # another dtype is converted, so copied
    single.setflags(write=False)
    held = QuantumState(pauli=single).pauli
    assert held is not single and held.dtype == np.float64 and not held.flags.writeable


def test_state_density_view():
    s = QuantumState(np.array([1.0, 0.0, 0.0, 0.0]))
    assert s.n_qubits == 2
    assert not s.is_density
    d = as_state(np.eye(4) / 4)
    assert d.is_density
    assert d.n_qubits == 2
    assert np.array_equal(d.pauli, np.eye(16)[0])
    assert np.array_equal(density_matrix(d.pauli), np.eye(4) / 4)
    with pytest.raises(ValueError, match=r"\.pauli"):
        d.data  # no rho is built
    # rho -> r -> rho round trip; Z on qubit 0 is position 3 and on qubit 1
    # position 12 (base-4 digit q is qubit q)
    rho = np.zeros((4, 4))
    rho[1, 1] = 1.0  # |01>: qubit 0 is 1
    flipped = as_state(rho)
    assert flipped.pauli[3] == -1.0 and flipped.pauli[12] == 1.0
    assert np.array_equal(density_matrix(flipped.pauli), rho)


def test_hf_state():
    assert np.argmax(np.abs(hf_state(2, "01").data)) == 1
    assert np.argmax(np.abs(hf_state(4, "0011").data)) == 3
    with pytest.raises(ValueError, match="bad basis bitstring"):
        hf_state(2, "021")


# --- sampling ----------------------------------------------------------------


def draw(state: QuantumState, label: str, shots: int, seed) -> np.ndarray:
    """Counts of `shots` measurements of `state` in the basis `label`."""
    return sample_counts(_basis_probabilities(state, (label,))[0], shots, seed)


def test_sample_counts_deterministic_state():
    counts = draw(hf_state(2, "00"), "ZZ", 100, seed=0)
    assert counts.dtype == np.int64
    assert counts.tolist() == [100, 0, 0, 0]


def test_sample_counts_plus_state_in_x_basis():
    plus = QuantumState(np.array([1.0, 1.0]) / np.sqrt(2))
    assert draw(plus, "X", 500, seed=1).tolist() == [500, 0]


def test_sample_counts_y_basis():
    # (|0> + i|1>)/sqrt(2) is the +1 eigenstate of Y
    state = QuantumState(np.array([1.0, 1.0j]) / np.sqrt(2))
    assert draw(state, "Y", 200, seed=2).tolist() == [200, 0]


def test_sample_counts_hf_xx_unbiased():
    counts = draw(hf_state(2, "01"), "XX", 5000, seed=42)
    acc = sum(c if bin(i).count("1") % 2 == 0 else -c for i, c in enumerate(counts))
    assert abs(acc / 5000) < 3.0 / np.sqrt(5000)


def test_sample_counts_seed_determinism():
    state = compact_state(0.7)
    a = draw(state, "ZZ", 1000, seed=9)
    b = draw(state, "ZZ", 1000, seed=9)
    c = draw(state, "ZZ", 1000, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_counts_generator_continues_its_stream():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    rng = np.random.default_rng(5)
    first, second = sample_counts(p, 100, rng), sample_counts(p, 100, rng)
    replay = np.random.default_rng(5)
    assert np.array_equal(first, sample_counts(p, 100, replay))
    assert np.array_equal(second, sample_counts(p, 100, replay))


def test_sample_counts_validation():
    with pytest.raises(ValueError, match="shots"):
        draw(hf_state(1, "0"), "Z", 0, seed=0)
    with pytest.raises(ValueError, match="does not match"):
        draw(hf_state(1, "0"), "ZZ", 10, seed=0)
    with pytest.raises(ValueError, match="one distribution"):
        sample_counts(np.full((2, 2), 0.5), 10, seed=0)


@pytest.mark.parametrize("seed", [7, "sequence", "generator"])
@pytest.mark.parametrize("as_list", [True, False])
def test_sample_counts_any_distribution_and_seed(seed, as_list):
    # an evaluation passes an array and a Generator; every other input still
    # draws as default_rng(seed).multinomial and is checked as before
    p = [0.1, 0.2, 0.3, 0.4] if as_list else np.array([0.1, 0.2, 0.3, 0.4])
    make = {7: lambda: 7, "sequence": lambda: np.random.SeedSequence(7, spawn_key=(1, 2)),
            "generator": lambda: np.random.default_rng(7)}[seed]
    expected = np.random.default_rng(make()).multinomial(100, p)
    assert np.array_equal(sample_counts(p, 100, make()), expected)
    with pytest.raises(ValueError, match=r"^sample_counts draws from one distribution, got shape \(2, 2\)$"):
        sample_counts([list(p)[:2], list(p)[2:]], 10, make())
    for shots in (0, -3):
        with pytest.raises(ValueError, match="^shots must be positive$"):
            sample_counts(p, shots, make())


@pytest.mark.parametrize("name", ["h2", "heh+", "lih"])
def test_sample_counts_ignore_one_ulp_changes_of_reference_distributions(name):
    # The Hartree-Fock state in an X/Y basis gives exactly tied outcomes,
    # where multinomial's p > 1/2 mirror turns a 1-ulp change into a count
    # swap unless the distribution is first put on a coarser grid (on_grid).
    ds = builtin(name)
    h = ds.geometry(ds.equilibrium_r).hamiltonian
    labels = tuple(basis for basis, _ in group_terms(h))
    probs = _basis_probabilities(hf_state(ds.n_qubits, ds.hf_bitstring), labels)
    alternate = np.arange(probs.shape[1]) % 2 == 0
    for p in probs:
        up = np.where(p > 0, np.nextafter(p, 2.0), 0.0)
        down = np.where(p > 0, np.nextafter(p, -1.0), 0.0)
        shifted = (up, down, np.where(alternate, up, down), np.where(alternate, down, up))
        for seed in range(40):
            counts = sample_counts(on_grid(p), 1000, seed)
            for q in shifted:
                assert np.array_equal(sample_counts(on_grid(q), 1000, seed), counts)


def grid_row_reference(p: np.ndarray) -> np.ndarray:
    """One distribution on the 2^-40 grid, as sample_counts rounded it before
    on_grid took the rounding over."""
    grid = np.rint(p * 2.0**40)
    return grid / grid.sum()


@pytest.mark.parametrize("name", ["h2", "heh+", "lih"])
def test_on_grid_rounds_a_stack_row_by_row_bit_for_bit(name):
    ds = builtin(name)
    h = ds.geometry(ds.equilibrium_r).hamiltonian
    labels = tuple(basis for basis, _ in group_terms(h))
    n = ds.n_qubits
    rng = np.random.default_rng(7)
    spec = hardware_efficient_spec(n)
    circuit = ansatz_circuit(spec)
    bindings = dict(zip(spec.parameter_names(), rng.uniform(-np.pi, np.pi, spec.n_params)))
    states = (
        hf_state(n, ds.hf_bitstring),  # exact ties in X/Y bases
        run_statevector(circuit, bindings),
        run_density(circuit, bindings, NoiseModel(p2=0.02)),
    )
    raw = rng.dirichlet(np.full(1 << n, 0.2), size=6)
    raw[0, 0] = 2.0**-42  # rounds to an empty outcome
    raw[1, :2] = 1.5 * 2.0**-40  # rounds half to even
    stacks = [_basis_probabilities(state, labels) for state in states] + [raw]
    for stack in stacks:
        grid = on_grid(stack)
        assert grid.shape == stack.shape
        for row, p in zip(grid, stack):
            assert row.tobytes() == on_grid(p).tobytes()
            assert row.tobytes() == grid_row_reference(p).tobytes()


def assert_multinomial_moments(x, shots, p, k):
    """The mean and covariance of the count rows x are those of
    Multinomial(shots, p), within k standard errors."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    mean = x.mean(axis=0)
    assert np.all(np.abs(mean - shots * p) <= k * np.sqrt(shots * p * (1 - p) / n))
    dev = x - mean
    products = dev[:, :, None] * dev[:, None, :]
    cov = products.sum(axis=0) / (n - 1)
    expected = shots * (np.diag(p) - np.outer(p, p))
    se = products.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(cov - expected) <= k * se + 1e-12)


def test_sample_counts_match_multinomial_moments():
    # counts over 2000 seeds against multinomial(shots, p); p has a tie, an
    # entry above 1/2 and an empty outcome
    p = np.array([0.55, 0.15, 0.1, 0.1, 0.05, 0.03, 0.02, 0.0])
    shots = 200
    assert_multinomial_moments([sample_counts(p, shots, seed) for seed in range(2000)], shots, p, 4)


# --- readout noise -----------------------------------------------------------


def test_readout_identity_is_noop():
    counts = np.array([40, 0, 0, 60])
    out = apply_readout_noise(counts, ConfusionMatrix.identity(2), seed=0)
    assert np.array_equal(out, counts)


def test_readout_device_matrix_retention():
    n = 200000
    noisy = apply_readout_noise(np.array([n, 0, 0, 0]), device_confusion(), seed=4)
    p = device_confusion().matrix[0, 0]
    assert noisy.sum() == n
    assert abs(noisy[0] / n - p) < 5 * np.sqrt(p * (1 - p) / n)


def test_readout_uniform_confusion_flattens():
    uniform = ConfusionMatrix(2, np.full((4, 4), 0.25))
    n = 100000
    out = apply_readout_noise(np.array([0, n, 0, 0]), uniform, seed=6)
    sigma = np.sqrt(0.25 * 0.75 * n)
    for outcome in range(4):
        assert abs(out[outcome] - n / 4) < 5 * sigma


def test_readout_validation():
    zeros = np.zeros(4, dtype=np.int64)
    assert np.array_equal(
        apply_readout_noise(zeros, ConfusionMatrix.identity(2), seed=0), zeros
    )
    with pytest.raises(ValueError, match="confusion matrix is for 2"):
        apply_readout_noise(np.array([5] + [0] * 7), ConfusionMatrix.identity(2), seed=0)
    # a (G, 2^n) stack is valid; a 3-D array or a stack of the wrong width is not
    with pytest.raises(ValueError, match="confusion matrix is for 2"):
        apply_readout_noise(np.array([[[5, 0, 0, 0]]]), ConfusionMatrix.identity(2), seed=0)
    with pytest.raises(ValueError, match="confusion matrix is for 2"):
        apply_readout_noise(np.array([[5, 0], [0, 5]]), ConfusionMatrix.identity(2), seed=0)


def test_counts_drawn_from_folded_distribution_match_per_shot_readout():
    # N shots drawn from p and each resampled through C are Multinomial(N, C p):
    # the evaluator's one draw from on_grid(C p) and the two-stage draw both
    # match that law's mean and covariance
    confusion = device_confusion()
    p = np.array([0.55, 0.25, 0.2, 0.0])
    q = confusion.matrix @ p
    shots, n = 500, 4000
    rng = np.random.default_rng(2026)
    folded = [sample_counts(on_grid(q), shots, rng) for _ in range(n)]
    two_stage = apply_readout_noise(
        np.array([sample_counts(p, shots, rng) for _ in range(n)]), confusion, rng
    )
    for x in (folded, two_stage):
        assert_multinomial_moments(x, shots, q, 5)


@pytest.mark.parametrize("n_qubits, n_groups", [(1, 3), (2, 25), (3, 2)])
def test_batched_readout_matches_sequential_calls(n_qubits, n_groups):
    # one call on a (G, 2^n) stack draws the counts of G calls, in row order,
    # from one generator
    rng = np.random.default_rng(n_groups)
    dim = 1 << n_qubits
    confusion = device_confusion() if n_qubits == 2 else ConfusionMatrix(
        n_qubits, rng.dirichlet(np.ones(dim), size=dim).T
    )
    counts = rng.integers(0, 500, size=(n_groups, dim))
    counts[0] = 0
    batched = apply_readout_noise(counts, confusion, np.random.default_rng(77))
    reader = np.random.default_rng(77)
    sequential = [apply_readout_noise(row, confusion, reader) for row in counts]
    assert batched.shape == counts.shape
    assert np.array_equal(batched, sequential)
    assert np.array_equal(batched.sum(axis=1), counts.sum(axis=1))


# --- energy from counts ------------------------------------------------------


def counts_energy(counts, g, h) -> float:
    """Partial energy of group g of h from its counts."""
    return _group_energy(counts_to_distribution(np.asarray(counts)), _plan(h)[1][g])


def zz_hamiltonian(coeff: float = 1.0) -> PauliHamiltonian:
    return PauliHamiltonian(2, (("ZZ", coeff),))


def test_counts_expectation_aligned():
    h = zz_hamiltonian()
    assert counts_energy([100, 0, 0, 0], 0, h) == 1.0


def test_counts_expectation_antialigned():
    h = zz_hamiltonian()
    assert counts_energy([0, 50, 50, 0], 0, h) == -1.0


def test_counts_expectation_z_group_hand_value():
    # exact distribution of |01> pushed through the three Z-type terms of the
    # equilibrium hydrogen Hamiltonian: 0.394*(-1) - 0.394*(+1) - 0.011*(-1)
    full = builtin("h2").geometry(0.7414).hamiltonian
    h = PauliHamiltonian(
        2,
        tuple((label, full.coefficient(label)) for label in ("IZ", "ZI", "ZZ")),
    )
    basis, _ = group_terms(h)[0]
    counts = draw(hf_state(2, "01"), basis, 4000, seed=0)
    assert counts_energy(counts, 0, h) == pytest.approx(-0.777, abs=5e-4)


def test_counts_expectation_large_shot_consistency():
    # 10^6 shots must sit within 5 sigma of the exact expectation
    state = compact_state(0.4)
    h = builtin("h2").geometry(0.7414).hamiltonian
    xx_basis, _ = group_terms(h)[1]
    shots = 10**6
    counts = draw(state, xx_basis, shots, seed=12)
    estimate = counts_energy(counts, 1, h)
    coeff = h.coefficient("XX")
    exact = expectation(PauliHamiltonian(2, (("XX", coeff),)), state)
    sigma = abs(coeff) * np.sqrt(max(1.0 - (exact / coeff) ** 2, 1e-12) / shots)
    assert abs(estimate - exact) < 5 * sigma


def test_counts_expectation_validation():
    h = zz_hamiltonian()
    with pytest.raises(ValueError, match="empty"):
        counts_energy([0, 0, 0, 0], 0, h)
