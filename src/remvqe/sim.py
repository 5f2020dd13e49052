"""Statevector and density-matrix circuit execution with depolarizing and
readout noise.

Noise conventions: NoiseModel.p1 and p2 are the TOTAL non-identity error
probabilities. After every single-qubit gate the channel
rho -> (1-p1) rho + (p1/3) (X rho X + Y rho Y + Z rho Z) is applied on the
gate's qubit; after every two-qubit gate each of the 15 non-identity Pauli
pairs is applied with probability p2/15. Channels are deterministic mixtures
(no stochastic Pauli insertion), attached to gates only; idle qubits stay
clean. Readout noise acts on counts, not on the state.

One kernel serves kets and density matrices. A density matrix evolves as
vec(rho) = rho.reshape(-1), a vector on 2n register qubits: column qubit q is
register qubit q and row qubit q is register qubit q + n. A k-qubit gate U
followed by its depolarizing channel with probability p is then the
d^2 x d^2 matrix (d = 2^k, f = d^2 p / (d^2 - 1))

    (1-f) U (x) conj(U) + (f/d) |vec I><vec I|

on the register qubits (q + n for q in qubits) + qubits; a ket gate is U on
the qubits themselves.

Each (circuit, noise) pair is compiled once into a _Program, cached, and run
for every parameter binding:

- The vector is kept in an axis layout, an order of the register qubits from
  most to least significant bit. A matrix op on registers r uses the layout
  r + (the other registers, highest first), so it is one product
  m @ v.reshape(len(m), -1). Moving from the previous op's layout to this
  one is the gather v[T] with an index array T built at compile time and
  shared by every op with the same (previous, next) layout pair.
- A gate whose angles are floats is a fixed op, one stored matrix: U for a
  ket, its superoperator with the channel above for vec(rho).
- A Param-bound RZ(t) = diag(e^{-it/2}, e^{it/2}) is an elementwise phase
  v *= exp(1j t w), with w = bit(q) - 1/2 on a ket and
  w = bit(q + n) - bit(q) on vec(rho), precomputed in the current layout as
  an index into the three values exp(1j t (-s, 0, s)), s = 1/2 or 1.
  RX(t) = H RZ(t) H and RY(t) = V RZ(t) V^dagger with V = S H (V Z V^dagger
  = Y), so the conjugating gates become fixed ops around the phase.
- Single-qubit depolarizing commutes with every single-qubit unitary on its
  qubit, so the channel of a Param-bound gate rides on the last fixed op of
  that gate (an identity channel for RZ).
- No fixed single-qubit op is an op of its own. It waits as the pending
  matrix of its qubit (U for a ket, the 4 x 4 superoperator on registers
  (q + n, q) for vec(rho)); later single-qubit ops on that qubit multiply
  into it. The next two-qubit op on the qubit absorbs it as S lift(pending),
  where lift is the Kronecker product of both qubits' pending matrices
  transposed into the op's register order. Only a Param-bound phase on the
  qubit and the end of the circuit flush it as a standalone op. The fold is
  exact: a pending op commutes with every op on other qubits, and it sits
  right of S in the product, so it acts before the gate and its channel (a
  single-qubit channel does not commute with a two-qubit unitary).

The tests check the compiled program against a per-gate reference that
moves the gate's axes to the front and applies one matrix per gate.

A measurement basis is a matrix U, the tensor product of the per-qubit
rotations: p = |U psi|^2 for a ket and p = diag(U rho U-dagger) for a
density matrix. The U of all the bases an evaluation measures are cached as
one stack, so one batched product gives every distribution.

Basis index convention: bit q of an outcome index is qubit q. Counts are
np.int64 vectors of length 2**n indexed by outcome.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .circuits import Circuit, Param, gate_matrix
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


# Basis-change unitaries: U P U-dagger = Z for P in {X, Y}. Applied as exact
# matrix math at measurement time, so they carry no gate noise.
_HADAMARD = (1.0 / np.sqrt(2.0)) * np.array([[1, 1], [1, -1]], dtype=complex)
_Y_TO_Z = _HADAMARD @ np.diag([1.0, -1.0j])

# V with R(t) = V RZ(t) V-dagger for each Param-bound rotation kind (module doc).
_TO_RZ = {"RZ": None, "RX": _HADAMARD, "RY": np.diag([1.0, 1.0j]) @ _HADAMARD}


@dataclass(frozen=True, eq=False)
class _Program:
    """A (circuit, noise) pair compiled into layout gathers, matrices and phases.

    Each op is (T, m, w, param): gather v = v[T] when T is not None, then
    either the product with m or, when m is None, the phase
    (e^{-ist}, 1, e^{ist})[w] with t = param bound and s = step. `final`
    gathers the last layout back to the natural one.
    """

    size: int
    step: float
    ops: tuple
    final: np.ndarray | None

    def run(self, bindings: Mapping[str, float] | None) -> np.ndarray:
        """The compiled circuit from |0...0>, as a ket or vec(rho)."""
        bindings = bindings or {}
        v = np.zeros(self.size, dtype=complex)
        v[0] = 1.0
        for gather, matrix, weight, param in self.ops:
            if gather is not None:
                v = v[gather]
            if matrix is not None:
                v = (matrix @ v.reshape(matrix.shape[0], -1)).reshape(-1)
                continue
            try:
                t = param.resolve(bindings)
            except KeyError as exc:
                raise ValueError(exc.args[0]) from None
            e = cmath.exp(1j * self.step * t)
            v *= np.array((e.conjugate(), 1.0, e))[weight]
        return v if self.final is None else v[self.final]


@lru_cache(maxsize=32)
def _program(circuit: Circuit, noise: NoiseModel | None) -> _Program:
    """Compile `circuit` once per noise model (a ket program when noise is None)."""
    n = circuit.n_qubits
    density = noise is not None
    width = 2 * n if density else n
    size = 1 << width
    natural = tuple(range(width - 1, -1, -1))
    layout = natural
    gathers: dict = {}
    weights: dict = {}
    pending: dict[int, np.ndarray] = {}
    ops = []

    def move(to: tuple[int, ...]) -> np.ndarray | None:
        """Index array from the current layout to `to` (None if they agree)."""
        nonlocal layout
        key, layout = (layout, to), to
        if key[0] == to:
            return None
        if key not in gathers:
            perm = [key[0].index(r) for r in to]
            gathers[key] = np.arange(size).reshape((2,) * width).transpose(perm).reshape(-1)
        return gathers[key]

    def emit(matrix: np.ndarray, qubits: tuple[int, ...]) -> None:
        registers = tuple(q + n for q in qubits) + qubits if density else qubits
        lead = registers + tuple(r for r in natural if r not in registers)
        ops.append((move(lead), matrix, None, None))

    def fixed(unitary: np.ndarray, qubits: tuple[int, ...], p: float | None) -> None:
        """Keep a one-qubit op pending; fold pending ops into a two-qubit op."""
        matrix = unitary if p is None else _channel(unitary, p)
        if len(qubits) == 1:
            q = qubits[0]
            pending[q] = matrix @ pending[q] if q in pending else matrix
            return
        if pending.keys() & set(qubits):
            eye = np.eye(4 if density else 2, dtype=complex)
            lift = np.kron(*(pending.pop(q, eye) for q in qubits))
            if density:
                # kron orders the registers (a+n, a, b+n, b); the op's are (a+n, b+n, a, b)
                lift = lift.reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
            matrix = matrix @ lift
        emit(matrix, qubits)

    def flush(q: int) -> None:
        if q in pending:
            emit(pending.pop(q), (q,))

    def phase(q: int, angle: Param) -> None:
        flush(q)
        key = (layout, q)
        if key not in weights:
            index = np.arange(size)

            def bit(r: int) -> np.ndarray:
                return (index >> (width - 1 - layout.index(r))) & 1

            weights[key] = 1 + bit(q + n) - bit(q) if density else 2 * bit(q)
        ops.append((None, None, weights[key], angle))

    for gate in circuit.gates:
        p = None
        if density:
            p = noise.p1 if len(gate.qubits) == 1 else noise.p2
        angle = gate.params[0] if gate.params else None
        if not isinstance(angle, Param):
            fixed(gate_matrix(gate.kind, gate.resolved({})), gate.qubits, p)
            continue
        v = _TO_RZ[gate.kind]
        if v is not None:
            fixed(v.conj().T, gate.qubits, 0.0 if density else None)
        phase(gate.qubits[0], angle)
        if v is not None:
            fixed(v, gate.qubits, p)
        elif p:
            fixed(np.eye(2, dtype=complex), gate.qubits, p)
    for q in sorted(pending):
        flush(q)
    return _Program(size, 1.0 if density else 0.5, tuple(ops), move(natural))


def run_statevector(circuit: Circuit, bindings: Mapping[str, float] | None = None) -> QuantumState:
    """Noise-free execution from |0...0>."""
    return QuantumState(_program(circuit, None).run(bindings))


def run_density(
    circuit: Circuit,
    bindings: Mapping[str, float] | None = None,
    noise: NoiseModel | None = None,
) -> QuantumState:
    """Density-matrix execution with per-gate depolarizing channels."""
    dim = 1 << circuit.n_qubits
    vec = _program(circuit, noise or NoiseModel()).run(bindings)
    return QuantumState(vec.reshape(dim, dim))


_ROTATION = {"Z": np.eye(2, dtype=complex), "I": np.eye(2, dtype=complex),
             "X": _HADAMARD, "Y": _Y_TO_Z}


@lru_cache(maxsize=64)
def _basis_rotations(labels: tuple[str, ...]) -> np.ndarray:
    """The (G, 2^n, 2^n) stack of U per basis label, each the tensor product
    of the per-qubit rotations (qubit n-1 leftmost), read-only. It takes
    16 * G * 4^n bytes, as much as G n-qubit density matrices."""
    rotations = []
    for label in labels:
        u = np.ones((1, 1), dtype=complex)
        for ch in label:
            u = np.kron(u, _ROTATION[ch])
        rotations.append(u)
    stack = np.stack(rotations)
    stack.setflags(write=False)
    return stack


def _basis_probabilities(state: QuantumState, bases: tuple[PauliString, ...]) -> np.ndarray:
    """Row g is the outcome distribution of `state` measured in bases[g]
    (basis letters I are measured as Z), from one batched product with the
    cached rotation stack; each row equals the single-basis product bit for
    bit."""
    dim = state.data.shape[0]
    if not bases:
        return np.zeros((0, dim))
    u = _basis_rotations(tuple(b.label for b in bases))
    if u.shape[-1] != dim:
        raise ValueError(f"basis {bases[0].label!r} does not match {state.n_qubits} qubits")
    if state.is_density:
        # diag(U rho U-dagger)_i = sum_c (U rho)_ic conj(U_ic)
        probs = np.real(((u @ state.data) * u.conj()).sum(axis=2))
    else:
        probs = np.abs(u @ state.data) ** 2
    probs[probs < 0] = 0.0
    return probs / probs.sum(axis=1, keepdims=True)


# Sampling rounds probabilities to multiples of 2^-40 (see sample_counts).
_GRID = 2.0**40


def sample_counts(probs: np.ndarray, shots: int, seed) -> np.ndarray:
    """Draw `shots` outcomes from the distribution `probs`.

    `seed` is anything np.random.default_rng accepts; a Generator is used
    as is, so successive calls continue its stream. The distribution is
    first rounded onto a 2^-40 grid and renormalized. Generator.multinomial
    draws Binomial(n, p) for p > 1/2 as n - Binomial(n, 1 - p), so without
    the grid a 1-ulp change of an exactly tied distribution (a Hartree-Fock
    state in an X/Y basis) can swap counts; on the grid it gives the same
    counts. The rounding moves each probability by about 2^-41 at most and
    never draws an outcome less likely than that.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1:
        raise ValueError(f"sample_counts draws from one distribution, got shape {probs.shape}")
    grid = np.rint(probs * _GRID)
    return np.random.default_rng(seed).multinomial(shots, grid / grid.sum())


def apply_readout_noise(counts: np.ndarray, confusion: ConfusionMatrix, seed) -> np.ndarray:
    """Resample each shot's outcome i to j with probability C[j][i].

    One multinomial call draws counts[i] shots from column i of C for every
    outcome i at once; `seed` is anything np.random.default_rng accepts.
    """
    if np.shape(counts) != (confusion.dim,):
        raise ValueError(
            f"confusion matrix is for {confusion.n_qubits} qubits, "
            f"counts have shape {np.shape(counts)}"
        )
    rng = np.random.default_rng(seed)
    return rng.multinomial(counts, confusion.matrix.T).sum(axis=0)


def hf_state(n_qubits: int, bitstring: str) -> QuantumState:
    """Computational basis state |bitstring> (leftmost char = qubit n-1)."""
    if len(bitstring) != n_qubits or set(bitstring) - {"0", "1"}:
        raise ValueError(f"bad basis bitstring {bitstring!r} for {n_qubits} qubits")
    psi = np.zeros(1 << n_qubits, dtype=complex)
    psi[int(bitstring, 2)] = 1.0
    return QuantumState(psi)
