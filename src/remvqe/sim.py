"""Statevector and density-matrix circuit execution with depolarizing and
readout noise.

Noise conventions: NoiseModel.p1 and p2 are the TOTAL non-identity error
probabilities. After every single-qubit gate the channel
rho -> (1-p1) rho + (p1/3) (X rho X + Y rho Y + Z rho Z) is applied on the
gate's qubit; after every two-qubit gate each of the 15 non-identity Pauli
pairs is applied with probability p2/15. Channels are deterministic mixtures
(no stochastic Pauli insertion), attached to gates only; idle qubits stay
clean. Readout noise acts on counts, not on the state.

One kernel serves kets, density matrices and basis changes. A density matrix
evolves as vec(rho) = rho.reshape(-1), a vector on 2n register qubits: column
qubit q is register qubit q and row qubit q is register qubit q + n. A k-qubit
gate U followed by its depolarizing channel with probability p is then the
d^2 x d^2 matrix (d = 2^k, f = d^2 p / (d^2 - 1))

    (1-f) U (x) conj(U) + (f/d) |vec I><vec I|

on the register qubits (q + n for q in qubits) + qubits.

Basis index convention: bit q of an outcome index is qubit q. Counts are
np.int64 vectors of length 2**n indexed by outcome.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .circuits import Circuit, gate_matrix
from .mitigation import ConfusionMatrix
from .pauli import PauliString


@dataclass(frozen=True)
class QuantumState:
    """Either a norm-1 amplitude vector (pure) or a trace-1 density matrix."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=complex)
        if arr.ndim == 1:
            n = arr.shape[0]
            if n & (n - 1) or n == 0:
                raise ValueError(f"amplitude length {n} is not a power of two")
            if abs(np.linalg.norm(arr) - 1.0) > 1e-6:
                raise ValueError("amplitude vector is not normalized")
        elif arr.ndim == 2:
            n = arr.shape[0]
            if arr.shape != (n, n) or n & (n - 1) or n == 0:
                raise ValueError(f"density matrix shape {arr.shape} invalid")
            if abs(np.trace(arr).real - 1.0) > 1e-6:
                raise ValueError("density matrix trace is not 1")
        else:
            raise ValueError("state must be a vector or a square matrix")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def is_density(self) -> bool:
        return self.data.ndim == 2

    @property
    def n_qubits(self) -> int:
        return int(self.data.shape[0]).bit_length() - 1


@dataclass(frozen=True)
class NoiseModel:
    """Gate depolarizing probabilities; p1 defaults to 0.1 * p2 when not given.

    Readout noise is not part of it: the evaluator applies a confusion matrix
    to measurement outcomes.
    """

    p2: float = 0.0
    p1: float | None = None

    def __post_init__(self) -> None:
        p1 = 0.1 * self.p2 if self.p1 is None else self.p1
        if not 0.0 <= self.p2 <= 1.0:
            raise ValueError(f"p2 must lie in [0, 1], got {self.p2}")
        if not 0.0 <= p1 <= 1.0:
            raise ValueError(f"p1 must lie in [0, 1], got {p1}")
        object.__setattr__(self, "p1", float(p1))
        object.__setattr__(self, "p2", float(self.p2))


def _apply_left(v: np.ndarray, matrix: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
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


def _channel(unitary: np.ndarray, p: float) -> np.ndarray:
    """Superoperator of `unitary` followed by depolarizing with p (module doc).

    The mixed part is the twirl identity sum_P P rho P = d^2 mixed(rho) - rho
    (sum over non-identity P), where mixed(rho) replaces the gate's qubits by
    I/d. It is exact without U because U leaves the partial trace over its
    own qubits unchanged, so mixed(U rho U-dagger) = mixed(rho).
    """
    d = unitary.shape[0]
    s = (unitary[:, None, :, None] * np.conj(unitary)[None, :, None, :]).reshape(d * d, d * d)
    if p:
        f = d * d * p / (d * d - 1.0)
        s *= 1.0 - f
        s[:: d + 1, :: d + 1] += f / d
    return s


def _apply_gate(
    v: np.ndarray, unitary: np.ndarray, qubits: tuple[int, ...], n: int, p: float | None
) -> np.ndarray:
    """Gate on a ket (p None), or on vec(rho) followed by depolarizing with p."""
    if p is None:
        return _apply_left(v, unitary, qubits, n)
    rows = tuple(q + n for q in qubits)
    return _apply_left(v, _channel(unitary, p), rows + qubits, 2 * n)


def _resolve(circuit: Circuit, bindings: Mapping[str, float] | None):
    bindings = bindings or {}
    resolved = []
    for gate in circuit.gates:
        try:
            params = gate.resolved(bindings)
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]}") from None
        resolved.append((gate.kind, gate.qubits, params))
    return resolved


def _evolve(
    circuit: Circuit, bindings: Mapping[str, float] | None, noise: NoiseModel | None
) -> np.ndarray:
    """The one gate loop from |0...0>: a ket when noise is None, else vec(rho)."""
    n = circuit.n_qubits
    v = np.zeros(1 << (n if noise is None else 2 * n), dtype=complex)
    v[0] = 1.0
    for kind, qubits, params in _resolve(circuit, bindings):
        p = None if noise is None else (noise.p1 if len(qubits) == 1 else noise.p2)
        v = _apply_gate(v, gate_matrix(kind, params), qubits, n, p)
    return v


def run_statevector(circuit: Circuit, bindings: Mapping[str, float] | None = None) -> QuantumState:
    """Noise-free execution from |0...0>."""
    return QuantumState(_evolve(circuit, bindings, None))


def run_density(
    circuit: Circuit,
    bindings: Mapping[str, float] | None = None,
    noise: NoiseModel | None = None,
) -> QuantumState:
    """Density-matrix execution with per-gate depolarizing channels."""
    dim = 1 << circuit.n_qubits
    vec = _evolve(circuit, bindings, noise or NoiseModel())
    return QuantumState(vec.reshape(dim, dim))


# Basis-change unitaries: U P U-dagger = Z for P in {X, Y}. Applied as exact
# matrix math at measurement time, so they carry no gate noise.
_HADAMARD = (1.0 / np.sqrt(2.0)) * np.array([[1, 1], [1, -1]], dtype=complex)
_Y_TO_Z = _HADAMARD @ np.diag([1.0, -1.0j])


def _basis_probabilities(state: QuantumState, basis: PauliString) -> np.ndarray:
    n = state.n_qubits
    if basis.n_qubits != n:
        raise ValueError(f"basis {basis.label!r} does not match {n} qubits")
    rotations = []
    for q in range(n):
        ch = basis.char_on(q)
        if ch in ("Z", "I"):
            continue
        if ch == "X":
            rotations.append((q, _HADAMARD))
        elif ch == "Y":
            rotations.append((q, _Y_TO_Z))
        else:
            raise ValueError(f"invalid basis letter {ch!r}")
    p = 0.0 if state.is_density else None
    v = state.data.reshape(-1)
    for q, u in rotations:
        v = _apply_gate(v, u, (q,), n, p)
    if state.is_density:
        probs = np.real(v[:: (1 << n) + 1]).copy()
    else:
        probs = np.abs(v) ** 2
    probs[probs < 0] = 0.0
    return probs / probs.sum()


def sample_counts(state: QuantumState, basis: PauliString, shots: int, seed) -> np.ndarray:
    """Draw `shots` outcomes in the given measurement basis.

    The exact outcome distribution is computed first (basis letters I are
    measured as Z); sampling uses a generator seeded deterministically from
    `seed`, so identical seeds give identical counts.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    probs = _basis_probabilities(state, basis)
    return np.random.default_rng(seed).multinomial(shots, probs)


def apply_readout_noise(counts: np.ndarray, confusion: ConfusionMatrix, seed) -> np.ndarray:
    """Resample each shot's outcome i to j with probability C[j][i].

    Outcomes are resampled in ascending index order, skipping empty ones.
    """
    if np.shape(counts) != (confusion.dim,):
        raise ValueError(
            f"confusion matrix is for {confusion.n_qubits} qubits, "
            f"counts have shape {np.shape(counts)}"
        )
    rng = np.random.default_rng(seed)
    out = np.zeros(confusion.dim, dtype=np.int64)
    for i in np.flatnonzero(counts):
        out += rng.multinomial(counts[i], confusion.matrix[:, i])
    return out


def hf_state(n_qubits: int, bitstring: str) -> QuantumState:
    """Computational basis state |bitstring> (leftmost char = qubit n-1)."""
    if len(bitstring) != n_qubits or set(bitstring) - {"0", "1"}:
        raise ValueError(f"bad basis bitstring {bitstring!r} for {n_qubits} qubits")
    psi = np.zeros(1 << n_qubits, dtype=complex)
    psi[int(bitstring, 2)] = 1.0
    return QuantumState(psi)
