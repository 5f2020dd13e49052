"""Statevector and density-matrix circuit execution with depolarizing and
readout noise.

Noise conventions: NoiseModel.p1 and p2 are the TOTAL non-identity error
probabilities. After every single-qubit gate the channel
rho -> (1-p1) rho + (p1/3) (X rho X + Y rho Y + Z rho Z) is applied on the
gate's qubit; after every two-qubit gate each of the 15 non-identity Pauli
pairs is applied with probability p2/15. Channels are deterministic mixtures
(no stochastic Pauli insertion), attached to gates only; idle qubits stay
clean. Readout noise acts on counts, not on the state.

Each (circuit, noise) pair is compiled once, cached, and run for every
parameter binding. A ket (noise None) and a density matrix have kernels of
their own.

Ket programs:

- The ket is kept in an axis layout, an order of the qubits from most to
  least significant bit. A matrix op on qubits qs uses the layout qs + (the
  other qubits, highest first), so it is one product
  m @ v.reshape(len(m), -1). Moving from the previous op's layout to this
  one is the gather v[T] with an index array T built at compile time and
  shared by every op with the same (previous, next) layout pair.
- A gate whose angles are floats is a fixed op, its matrix U. A Param-bound
  RZ(t) = diag(e^{-it/2}, e^{it/2}) is the phase v *= e^{-it/2 (-1)^bit(q)}.
  RX(t) = H RZ(t) H and RY(t) = V RZ(t) V^dagger with V = S H
  (V Z V^dagger = Y), so the conjugating gates become fixed ops around the
  phase.
- No fixed single-qubit op is an op of its own. It waits as the pending
  matrix of its qubit, and later single-qubit ops on that qubit multiply
  into it. The next two-qubit op on the qubit absorbs it as
  U (pending_a (x) pending_b); only a Param-bound phase on the qubit and the
  end of the circuit flush it as a standalone op.

Density programs run in the Pauli-transfer basis. The state is the real
vector r of length 4^n with rho = sum_P r_P P / 2^n over the Pauli strings
P; qubit q is base-4 digit q of the index, I, X, Y, Z = 0, 1, 2, 3. The
start |0...0><0...0| = prod_q (I + Z_q)/2 has r_P = 1 on the strings of I
and Z and 0 elsewhere.

- A gate U on k qubits maps r by its transfer matrix
  R[P, Q] = Tr(P U Q U^dagger) / 2^k on those qubits' digits. Its
  depolarizing channel scales every row but the identity's by 1 - f,
  f = 4^k p / (4^k - 1); p = 3/4 (one qubit) or 15/16 (two) gives f = 1,
  and those rows are empty.
- A Clifford gate permutes Paulis up to sign, so with its channel each row
  of R has at most one entry: r <- s * r[pi]. Such a fixed gate (X, H, CNOT,
  CZ, rotations by multiples of pi/2, anything whose rows the channel
  empties; entries below 1e-12 count as 0) joins the pending frame (pi, s),
  r = s * r_last[pi] with r_last the vector the frame started from.
  Composing gate (sigma, g) after the frame gives (pi[sigma], g * s[sigma]).
  gate_matrix gives each fixed gate's U once; gates with the same U on the
  same qubits share one lifted (sigma, g).
- A rotation about Pauli a on qubit q (RX, RY, RZ: a = X, Y, Z) leaves I
  and a alone and turns the other two, b -> cos t b + sin t c and
  c -> cos t c - sin t b. Each Param-bound rotation, and each fixed one at
  a non-Clifford angle, is one op
  r <- (A0 + cos t A1) * r[pi] + sin t B * r[pi'],
  where pi' swaps b and c on q and A0, A1, B hold the 0/1/sign pattern
  times its channel's scaling.
- Before each op, and at the end of the circuit, the pending frame folds
  into what produced r_last at compile time: into the previous op (its
  index arrays are gathered by pi and its vectors too, then scaled by s),
  or into the start vector. So the gates before the first op cost nothing
  at run time, and a run is one op per rotation.
- The output is vec(rho) in natural order: per qubit, one 4 x 4 product
  maps the digit's (I, X, Y, Z) coefficients to its (row, column) bits of
  rho, and one gather puts rows before columns. No 4^n x 4^n array is
  built; each op stores O(4^n) numbers.

The tests check both programs against a per-gate reference that moves the
gate's axes to the front and applies one matrix per gate (a superoperator
on vec(rho)), and the density program against explicit Kraus sums.

A measurement basis is a matrix U, the tensor product of the per-qubit
rotations: p = |U psi|^2 for a ket and p = diag(U rho U-dagger) for a
density matrix. The U of all the bases an evaluation measures are cached as
one stack, so one batched product gives every distribution.

Basis index convention: bit q of an outcome index is qubit q. Counts are
np.int64 vectors of length 2**n indexed by outcome.
"""
from __future__ import annotations

import cmath
import math
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


# Basis-change unitaries: U P U-dagger = Z for P in {X, Y}. Applied as exact
# matrix math at measurement time, so they carry no gate noise.
_HADAMARD = (1.0 / np.sqrt(2.0)) * np.array([[1, 1], [1, -1]], dtype=complex)
_Y_TO_Z = _HADAMARD @ np.diag([1.0, -1.0j])

# V with R(t) = V RZ(t) V-dagger for each Param-bound rotation kind (module doc).
_TO_RZ = {"RZ": None, "RX": _HADAMARD, "RY": np.diag([1.0, 1.0j]) @ _HADAMARD}


@dataclass(frozen=True, eq=False)
class _KetProgram:
    """A circuit compiled into layout gathers, matrices and phases for kets.

    Each op is (T, m, w, param): gather v = v[T] when T is not None, then
    either the product with m or, when m is None, the phase
    (e^{-it/2}, e^{it/2})[w] with t = param bound. `final` gathers the last
    layout back to the natural one.
    """

    n_qubits: int
    ops: tuple
    final: np.ndarray | None

    def run(self, bindings: Mapping[str, float] | None) -> np.ndarray:
        """The compiled circuit's ket from |0...0>."""
        v = np.zeros(1 << self.n_qubits, dtype=complex)
        v[0] = 1.0
        for gather, matrix, weight, param in self.ops:
            if gather is not None:
                v = v[gather]
            if matrix is not None:
                v = (matrix @ v.reshape(matrix.shape[0], -1)).reshape(-1)
                continue
            e = cmath.exp(0.5j * _bound(param, bindings))
            v *= np.array((e.conjugate(), e))[weight]
        return v if self.final is None else v[self.final]


def _bound(param: Param, bindings: Mapping[str, float] | None) -> float:
    try:
        return param.resolve(bindings or {})
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None


def _ket_program(circuit: Circuit) -> _KetProgram:
    n = circuit.n_qubits
    natural = tuple(range(n - 1, -1, -1))
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
            perm = [key[0].index(q) for q in to]
            gathers[key] = np.arange(1 << n).reshape((2,) * n).transpose(perm).reshape(-1)
        return gathers[key]

    def emit(matrix: np.ndarray, qubits: tuple[int, ...]) -> None:
        lead = qubits + tuple(q for q in natural if q not in qubits)
        ops.append((move(lead), matrix, None, None))

    def fixed(unitary: np.ndarray, qubits: tuple[int, ...]) -> None:
        """Keep a one-qubit op pending; fold pending ops into a two-qubit op."""
        if len(qubits) == 1:
            q = qubits[0]
            pending[q] = unitary @ pending[q] if q in pending else unitary
            return
        if pending.keys() & set(qubits):
            eye = np.eye(2, dtype=complex)
            unitary = unitary @ np.kron(*(pending.pop(q, eye) for q in qubits))
        emit(unitary, qubits)

    def flush(q: int) -> None:
        if q in pending:
            emit(pending.pop(q), (q,))

    def phase(q: int, angle: Param) -> None:
        flush(q)
        key = (layout, q)
        if key not in weights:
            weights[key] = (np.arange(1 << n) >> (n - 1 - layout.index(q))) & 1
        ops.append((None, None, weights[key], angle))

    for gate in circuit.gates:
        angle = gate.params[0] if gate.params else None
        if not isinstance(angle, Param):
            fixed(gate_matrix(gate.kind, gate.resolved({})), gate.qubits)
            continue
        v = _TO_RZ[gate.kind]
        if v is not None:
            fixed(v.conj().T, gate.qubits)
        phase(gate.qubits[0], angle)
        if v is not None:
            fixed(v, gate.qubits)
    for q in sorted(pending):
        flush(q)
    return _KetProgram(n, tuple(ops), move(natural))


# Pauli digits of one qubit in the transfer basis: I, X, Y, Z = 0, 1, 2, 3.
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# The Pauli strings of a d x d gate, first qubit's digit most significant.
_STRINGS = {2: _PAULI, 4: np.array([np.kron(a, b) for a in _PAULI for b in _PAULI])}

# Param-bound rotations about Pauli a turn the pair (b, c) by
# b -> cos t b + sin t c, c -> cos t c - sin t b: kind -> (a, b, c).
_AXES = {"RX": (1, 2, 3), "RY": (2, 3, 1), "RZ": (3, 1, 2)}

# One qubit's Pauli coefficients (I, X, Y, Z) to its 2 x 2 block of rho,
# entries (row, column) = 00, 01, 10, 11, with the 1/2 of rho's 1/2^n.
_TO_RHO = 0.5 * np.array([[1, 0, 0, 1], [0, 1, -1j, 0], [0, 1, 1j, 0], [1, 0, 0, -1]])


def _transfer(unitary: np.ndarray, p: float) -> np.ndarray:
    """R[P, Q] = Tr(P U Q U-dagger) / d of `unitary` followed by depolarizing
    with p, which scales each row but the identity's by 1 - d^2 p / (d^2 - 1)."""
    d = unitary.shape[0]
    strings = _STRINGS[d]
    moved = (unitary @ strings @ unitary.conj().T).reshape(d * d, -1)
    ptm = (strings.reshape(d * d, -1).conj() @ moved.T).real / d
    ptm[1:] *= 1.0 - d * d * p / (d * d - 1.0)
    return ptm


@dataclass(frozen=True, eq=False)
class _TransferProgram:
    """A noisy circuit compiled into Pauli-transfer rotations (module doc).

    `start` is r after the gates before the first op. Each op is
    (gather, table, angle): x = r[gather] stacks r[pi], r[pi] and r[pi'],
    the rows of the (3, 4^n) table are A0, A1 and B, and the new r is
    (1, cos t, sin t) times their products. `order` gathers the per-qubit
    output into vec(rho).
    """

    n_qubits: int
    start: np.ndarray
    ops: tuple
    order: np.ndarray

    def run(self, bindings: Mapping[str, float] | None) -> np.ndarray:
        """vec(rho) of the compiled circuit from |0...0><0...0|."""
        r = self.start
        for gather, table, angle in self.ops:
            if isinstance(angle, Param):
                angle = _bound(angle, bindings)
            x = r[gather]
            x *= table
            r = np.dot((1.0, math.cos(angle), math.sin(angle)), x)
        for _ in range(self.n_qubits):
            r = r.reshape(4, -1).T @ _TO_RHO.T
        return r.reshape(-1)[self.order]


def _transfer_program(circuit: Circuit, noise: NoiseModel) -> _TransferProgram:
    n = circuit.n_qubits
    size = 1 << 2 * n
    index = np.arange(size)
    digits = [(index >> 2 * q) & 3 for q in range(n)]
    # |0><0| = prod_q (I + Z_q) / 2: coefficient 1 on every string of I and Z
    start = np.prod([(d == 0) | (d == 3) for d in digits], axis=0, dtype=float)
    perm, scale = index, np.ones(size)
    lifted: dict = {}
    ops = []

    def lift(ptm: np.ndarray, qubits: tuple[int, ...]):
        """(step, factor) with r <- factor r[step] the gate on all of r, or
        None unless each row of ptm has at most one entry above 1e-12."""
        ptm[np.abs(ptm) < 1e-12] = 0.0
        if np.count_nonzero(ptm, axis=1).max() > 1:
            return None
        source = np.abs(ptm).argmax(axis=1)
        shifts = [2 * (len(qubits) - 1 - j) for j in range(len(qubits))]
        local = sum(digits[q] << s for q, s in zip(qubits, shifts))
        step = index + sum(
            (((source[local] >> s) & 3) - digits[q]) << 2 * q for q, s in zip(qubits, shifts)
        )
        return step, ptm[local, source[local]]

    def rotation(kind: str, q: int, p: float, angle) -> tuple:
        """The op of rotation `kind` on q followed by its channel."""
        a, b, c = _AXES[kind]
        pattern = np.zeros((3, 4))  # A0, A1 and B by the digit of q
        pattern[0, [0, a]] = 1.0
        pattern[1, [b, c]] = 1.0
        pattern[2, [b, c]] = -1.0, 1.0
        pattern[:, 1:] *= 1.0 - 4.0 * p / 3.0
        swap = np.arange(4)
        swap[[b, c]] = c, b
        d = digits[q]
        partner = index + ((swap[d] - d) << 2 * q)
        return np.stack((index, index, partner)), pattern[:, d], angle

    def settle() -> None:
        """Fold the pending frame into what produced r: the last op or start."""
        nonlocal start, perm, scale
        if ops:
            gather, table, angle = ops[-1]
            ops[-1] = (gather[:, perm], scale * table[:, perm], angle)
        else:
            start = scale * start[perm]
        perm, scale = index, np.ones(size)

    for gate in circuit.gates:
        p = noise.p1 if len(gate.qubits) == 1 else noise.p2
        angle = gate.params[0] if gate.params else None
        if not isinstance(angle, Param):
            unitary = gate_matrix(gate.kind, gate.resolved({}))
            key = (unitary.tobytes(), gate.qubits)
            if key not in lifted:
                lifted[key] = lift(_transfer(unitary, p), gate.qubits)
            if lifted[key] is not None:
                step, factor = lifted[key]
                perm, scale = perm[step], factor * scale[step]
                continue
            angle = float(angle)
        settle()
        ops.append(rotation(gate.kind, gate.qubits[0], p, angle))
    settle()
    order = index.reshape((2,) * 2 * n).transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])
    return _TransferProgram(n, start, tuple(ops), order.reshape(-1))


@lru_cache(maxsize=32)
def _program(circuit: Circuit, noise: NoiseModel | None) -> _KetProgram | _TransferProgram:
    """Compile `circuit` once per noise model (a ket program when noise is None)."""
    if noise is None:
        return _ket_program(circuit)
    return _transfer_program(circuit, noise)


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
