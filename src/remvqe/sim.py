"""Statevector and density-matrix circuit execution with depolarizing and
readout noise. This module alone knows the two state formats: a QuantumState
holds a ket or a noisy state's Pauli vector r, never rho, and `expectation`
and the measurements read either.

Noise conventions: NoiseModel.p1 and p2 are the TOTAL non-identity error
probabilities. After every single-qubit gate the channel
rho -> (1-p1) rho + (p1/3) (X rho X + Y rho Y + Z rho Z) is applied on the
gate's qubit; after every two-qubit gate each of the 15 non-identity Pauli
pairs is applied with probability p2/15. Channels are deterministic mixtures
(no stochastic Pauli insertion), attached to gates only; idle qubits stay
clean. Readout noise acts on outcome distributions, not on the state: the
evaluator draws counts from C p, which is the law of resampling each shot
through the confusion matrix C (apply_readout_noise).

Each (circuit, noise) pair is compiled once, cached, and run for every
parameter binding. The circuits are Clifford gates and Pauli rotations, and
one compile walk uses that for kets (noise None) and density matrices alike:
Clifford gates are applied at compile time, and a run has one op per
rotation, each Param-bound RX, RY or RZ and each fixed one at a non-Clifford
angle, or, for density matrices, one op per commuting pair of them.

A prepared state depends on the circuit, the noise and the bound angles
alone, not on the Hamiltonian measured, so each program memoizes its states:
run_statevector and run_density key a run by the bytes of its bound angles
(not their tuple: -0.0 == 0.0, but sin(-0.0) is -0.0) and return the kept
QuantumState when the key repeats, as when one angle grid is swept at every
bond length. A program keeps at most 2^13 floats of states, at least one,
and drops the oldest first: 512 two-qubit and 32 four-qubit Pauli vectors,
one at ten qubits. The budget counts each state's size, so that the 32
cached programs bound the memos' memory too. A state keeps, read-only, the
(G, 2^n) distributions p that _basis_probabilities computed from it, one
stack per tuple of basis labels, and the grid stacks on_grid(C p) that
_sampling_grid gave shot evaluations to draw from, one per labels and value
of C (or no C).

Pauli strings have qubit q's letter in base-4 digit q, I, X, Y, Z = 0, 1, 2,
3. The product of two strings is their XOR up to a phase: P Q = i^k (P ^ Q).

The walk goes through the gates from the last to the first:

- A fixed gate U is Clifford when its transfer matrix R (below) is a signed
  permutation (entries below 1e-12 count as 0); column Q of R then gives
  U Q U^dagger = s P with s = +-1. Each distinct U is tested once.
- U e^{-itQ/2} = e^{-it UQU^dagger/2} U moves each Clifford gate in front
  of the rotations before it: C_k R_k ... C_1 R_1 C_0 |0> =
  R~_k ... R~_1 (C_k ... C_0) |0>, where R~_j rotates about R_j's axis
  conjugated by V = C_k ... C_j, the Clifford gates after it.
- The walk holds table[q][a] = (P, s) with V a_q V^dagger = s P for each
  letter a on each qubit q, V the Clifford gates passed so far. A Clifford
  C on the qubits S turns V into V C: with C a_q C^dagger = s' T, T one
  letter on each qubit of S, the new entry is s' times the product of those
  letters' entries, which commute (images of letters on distinct qubits),
  so its phase is +-1. C rewrites only the 3 |S| entries of S.
- So each string is one lookup: a rotation's axis s P is table[q][a]. The
  depolarizing channel of a gate on the k qubits S scales each string that
  anticommutes with some X_q or Z_q, q in S, by keep = 1 - f,
  f = 4^k p / (4^k - 1), and keeps the others; p = 3/4 (one qubit) or
  15/16 (two) gives keep = 0. Its generators, moved in front of V, are the
  strings of table[q][X] and table[q][Z], read before the gate is passed.
- The walk ends with, in circuit order, each rotation's axis s P and angle,
  and each channel's keep and generators (a channel with keep 1 is left
  out); the table then holds the images under C = C_k ... C_0.

Ket programs start from C|0> and use the axes: a rotation by t about s P is
cos(t/2) - i s sin(t/2) P. With P|i> = phase[i] |i ^ flip> (pauli._action)
it is one op v <- cos(t/2) v + sin(t/2) table * v[gather], gather = i ^ flip
and table = -i s phase[gather]; each op stores 24 * 2^n bytes.

Density programs run in the Pauli-transfer basis. The state is the real
vector r of length 4^n with rho = sum_P r_P P / 2^n over the Pauli strings
P. A gate U on k qubits maps r by its transfer matrix
R[P, Q] = Tr(P U Q U^dagger) / 2^k on those qubits' digits.

- The start is r of C|0><0|C^dagger, whose stabilizers, the 2^n products
  of the commuting generators table[q][Z] = C Z_q C^dagger (Aaronson and
  Gottesman 2004), have r = their sign, all else r = 0. Doubling from I
  builds them: (s G)(t E) = s t (1 - k) (G ^ E), k = 0 or 2 the power of G E.
- A channel multiplies r by its damping: keep at the strings E that
  anticommute with one of its generators G, 1 elsewhere. With x and z the
  low and high bit of each digit, E and G anticommute when
  x_E z_G + z_E x_G is odd: when E & G', G' with each digit's x and z
  swapped, has an odd number of bits set.
- A rotation by t about s P keeps each string E that commutes with P and
  turns one that anticommutes into cos t E - i s sin t P E; then
  P E = i^k (P ^ E) with k = 1 or 3, and k is odd exactly when they
  anticommute. So it keeps r[E] on the half C of strings that commute with
  P, and on the other half A sets r[E] <- cos t r[E] + sin t B[E] r[E ^ P],
  B[E] = s (2 - k[E ^ P]), k[Q] the power of P Q; A is closed under
  E -> E ^ P.
- Each rotation pairs with the next one, left to right, when their axes
  P1 != P2 commute; one whose next neighbour anticommutes with it or shares
  its axis stays single. Two such axes split the strings into four classes
  of 4^n / 4, (a1, a2) with a_i whether E anticommutes with P_i, each closed
  under E -> E ^ P1 and E -> E ^ P2. Rotation 1, the dampings after it,
  rotation 2 and the dampings after it set r[E] in class (0, 0) to r[E],
  in (1, 0) to c1 r[E] + s1 r[E ^ P1], in (0, 1) to c2 r[E] + s2 r[E ^ P2]
  and in (1, 1) to c1c2 r[E] + s1c2 r[E ^ P1] + c1s2 r[E ^ P2] +
  s1s2 r[E ^ P2 ^ P1], c_i = cos t_i, s_i = sin t_i, each term times its
  signs B and its dampings.
- So an op of k = 1 or 2 rotations is x = v[gather], x *= table,
  v = W x: 3^k gathered rows of 4^n / 2^k strings, their signs and
  dampings, and the (2^k, 3^k) W = kron(W2, W1) of the rotations'
  W_i = (1, 0, 0; 0, c_i, s_i). Row c of W x is class c, a_1 its low bit,
  so the output lists the classes in turn. The state v is carried in the
  previous op's output order: each gather reads string E at its position
  there, composed at compile time, and one final gather puts r back in the
  natural order. Each channel's damping multiplies into the table of the
  op it follows, or into the start.
- A run binds every W at once: with u = (0, 1, and cos t, sin t of each
  distinct angle), one product u[a] * u[b] fills a buffer whose per-op
  views the program fixes when it is made; a single op's b reads u[1] = 1,
  a factor that is exact. The views are the program's, so it runs one
  binding at a time, as its memo already assumes.
- The output is r, which a density QuantumState holds. An op of k
  rotations stores a (3^k, 4^n / 2^k) int64 gather and float table:
  24 * 4^n bytes per rotation for a single op, 18 * 4^n for a pair.

The tests check both programs against a per-gate reference that moves the
gate's axes to the front and applies one matrix per gate (a superoperator
on vec(rho), compared through rho), and against explicit Kraus sums.

A density state is measured from r. In basis B only the strings B_S, B's
letters (I read as Z) on the qubits in S and I elsewhere, rotate to a
diagonal Z string, so p(x) = 2^-n sum_S (-1)^|x & S| r[B_S]: one cached
(G, 2^n) gather of r for the G bases and a product with the sign matrix, one
gather of pauli._parity; an exact energy is sum_t c_t r[P_t]. A ket is
measured as p = |U psi|^2, with U the tensor product of the per-qubit
rotations, from a cached stack of the U of all the bases, for kets only.

Basis index convention: bit q of an outcome index is qubit q. Counts are
np.int64 vectors of length 2**n indexed by outcome.
"""
from __future__ import annotations

import itertools
import math
import struct
from collections import OrderedDict
from functools import lru_cache, reduce
from typing import Mapping

import numpy as np

from ._frozen import frozen
from .circuits import Circuit, Param, gate_matrix
from .mitigation import ConfusionMatrix
from .pauli import PauliHamiltonian, _action, _parity, _terms_matrix


def _copy(data) -> bool | None:
    """np.array's `copy` for an input that is shared only if it is a read-only array."""
    return None if isinstance(data, np.ndarray) and not data.flags.writeable else True


class QuantumState:
    """A norm-1 ket, QuantumState(psi), read as `data`, or a trace-1 density
    matrix held as its real Pauli vector r (module doc), QuantumState(pauli=r),
    read as `pauli` (`data` raises); each |r_P| <= 1, a necessary condition
    only. Arrays are read-only. An input array is held as it is, not copied,
    only if it is read-only and of the held dtype, complex128 for a ket and
    float64 for r, as the programs' outputs are; the checks run either way."""

    def __init__(self, data: np.ndarray | None = None, *, pauli: np.ndarray | None = None) -> None:
        if (data is None) == (pauli is None):
            raise ValueError("a state is a ket or pauli=r, not both or neither")
        self.pauli = self._data = None
        self._distributions: dict = {}  # by labels, and grids by (labels, C bytes or None)
        if pauli is None:
            arr = self._data = np.array(data, dtype=complex, copy=_copy(data))
            if arr.ndim != 1 or len(arr) & (len(arr) - 1) or len(arr) == 0:
                raise ValueError(f"ket shape {arr.shape} is not (2^n,); pass rho as pauli=r")
            if not abs(np.linalg.norm(arr) - 1.0) <= 1e-6:  # NaN fails too
                raise ValueError("amplitude vector is not normalized")
        else:
            arr = pauli
            if not (type(arr) is np.ndarray and arr.dtype == float and not arr.flags.writeable):
                arr = np.asarray(pauli)
                if np.iscomplexobj(arr) and np.any(arr.imag):
                    raise ValueError("Pauli vector is not real")
                arr = np.array(arr.real, dtype=float, copy=_copy(pauli))
            self.pauli = arr
            size = len(arr) if arr.ndim == 1 else 0
            if size & (size - 1) or size.bit_length() % 2 == 0:
                raise ValueError(f"Pauli vector shape {arr.shape} is not (4^n,)")
            if not abs(arr[0] - 1.0) <= 1e-6:
                raise ValueError("density matrix trace is not 1")
            if not np.abs(arr).max() <= 1 + 1e-9:
                raise ValueError("Pauli vector entries must be finite and lie in [-1, 1]")
        arr.setflags(write=False)

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            raise ValueError("a density state holds no rho: read its Pauli vector, .pauli")
        return self._data

    @property
    def is_density(self) -> bool:
        return self.pauli is not None

    @property
    def n_qubits(self) -> int:
        dim = len(self._data) if self.pauli is None else math.isqrt(len(self.pauli))
        return dim.bit_length() - 1


def pauli_index(label: str) -> int:
    """Position of `label` in a Pauli vector: base-4 digit q is qubit q's I, X, Y, Z = 0-3."""
    return sum("IXYZ".index(ch) << 2 * q for q, ch in enumerate(reversed(label)))


def expectation(h: PauliHamiltonian, state) -> float:
    """<psi| H |psi> or Tr(H rho) plus the offset, added last. A `state` that
    is no QuantumState is checked as the ket QuantumState(state). A density
    state gives sum_t c_t r[P_t], Tr(P rho) = r_P; a ket acts through the
    terms' dense matrix (n bounded as in pauli.to_dense_matrix); each is cached per h."""
    state = state if isinstance(state, QuantumState) else QuantumState(state)
    if state.n_qubits != h.n_qubits:
        raise ValueError(f"a {state.n_qubits}-qubit state does not match {h.n_qubits} qubits")
    if state.is_density:
        index, coeffs = _term_vectors(h)
        value = np.dot(coeffs, state.pauli[index])
    else:
        value = np.vdot(state.data, _terms_matrix(h) @ state.data).real
    return float(value) + h.offset


@lru_cache(maxsize=64)
def _term_vectors(h: PauliHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Each term's position in a Pauli vector and its coefficient, read-only."""
    index = np.array([pauli_index(label) for label, _ in h.terms], dtype=np.int64)
    coeffs = np.array([coeff for _, coeff in h.terms], dtype=float)
    index.setflags(write=False)
    coeffs.setflags(write=False)
    return index, coeffs


@frozen
class NoiseModel:
    """Gate depolarizing probabilities; p1 defaults to 0.1 * p2 when not given.

    Readout noise is not part of it: the evaluator applies a confusion matrix
    C to each outcome distribution p and draws counts from C p.
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

# Pauli digits of one qubit in the transfer basis: I, X, Y, Z = 0, 1, 2, 3.
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# The Pauli strings of a d x d gate, first qubit's digit most significant.
_STRINGS = {2: _PAULI, 4: np.array([np.kron(a, b) for a in _PAULI for b in _PAULI])}
# k with a b = i^k (a ^ b) for one qubit's letters a, b: X Y = i Z, Y Z = i X, Z X = i Y.
_POWER = np.array([[0, 0, 0, 0], [0, 0, 1, 3], [0, 3, 0, 1], [0, 1, 3, 0]])
# The low bit of every digit.
_LOW = 0x5555555555555555

# The Pauli letter each rotation kind turns about.
_AXES = {"RX": 1, "RY": 2, "RZ": 3}


def _conjugation(unitary: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(target, sign) with U Q U-dagger = sign[Q] target[Q] for each string Q
    on the gate's qubits, or None unless U is Clifford (module doc)."""
    d = unitary.shape[0]
    strings = _STRINGS[d]
    moved = (unitary @ strings @ unitary.conj().T).reshape(d * d, -1)
    columns = (moved @ strings.reshape(d * d, -1).conj().T).real / d  # row Q: column Q of R
    columns[np.abs(columns) < 1e-12] = 0.0
    if np.count_nonzero(columns, axis=1).max() > 1:
        return None
    target = np.abs(columns).argmax(axis=1)
    return target, np.rint(columns[np.arange(len(columns)), target])  # +-1 up to rounding


def _swapped(strings):
    """Each digit's x and z bits swapped: E and G anticommute when E & G' has
    an odd number of bits set, G' = _swapped(G) (module doc)."""
    return ((strings >> 1) & _LOW) | ((strings & _LOW) << 1)


def _power(p: int, strings: int | np.ndarray) -> int | np.ndarray:
    """k with P Q = i^k (P ^ Q) for the string p and each string Q of `strings`."""
    k = 0
    for q in range((p.bit_length() + 1) // 2):
        k = k + _POWER[(p >> 2 * q) & 3, (strings >> 2 * q) & 3]
    return k & 3


def _dampings(strings: np.ndarray, segments: list):
    """For each segment, a list of channels (keep, generators), the product of
    their dampings on the 4^n Pauli strings `strings` (module doc)."""
    odd = _parity(len(strings).bit_length() - 1)
    for channels in segments:
        damping = np.ones(len(strings))
        for keep, generators in channels:
            hit = np.zeros(len(strings), dtype=np.uint8)
            for g in _swapped(generators):
                hit |= odd[strings & g]
            damping[hit == 1] *= keep
        yield damping


class _KetProgram:
    """A circuit compiled into Pauli rotations for kets (module doc).

    `start` is the ket after every Clifford gate, read-only. Each op is
    (gather, table, angle): the new v is cos(t/2) v + sin(t/2) table * v[gather].
    `angles` lists the ops' distinct angles, bound once per run; op i's is angles[slots[i]].
    `memo` keeps the program's states (module doc).
    """

    def __init__(self, start: np.ndarray, ops: tuple):
        self.start, self.ops = start, ops
        self.angles, self.slots = _slotted(angle for *_, angle in ops)
        self.memo, self.pack = OrderedDict(), struct.Struct(f"{len(self.angles)}d").pack

    def run(self, bound: list[float]) -> np.ndarray:
        """The compiled circuit's ket from |0...0>, `bound` = _bind(angles, bindings)."""
        v = self.start
        cos_sin = [(math.cos(0.5 * t), math.sin(0.5 * t)) for t in bound]
        for (gather, table, _), k in zip(self.ops, self.slots):
            x = v[gather]
            x *= table
            c, s = cos_sin[k]
            v = c * v + s * x
        v.setflags(write=False)  # new or start: a QuantumState shares it
        return v


def _bind(angles: tuple, bindings: Mapping[str, float] | None) -> list[float]:
    """Each distinct angle of a run once: a Param to scale * float(value),
    a fixed angle as is. The only code that binds a Param."""
    values = bindings or {}
    try:
        return [a.scale * float(values[a.name]) if isinstance(a, Param) else a for a in angles]
    except KeyError as exc:
        raise ValueError(f"unbound parameter {exc.args[0]!r}") from None


def _slotted(angles) -> tuple[tuple, tuple[int, ...]]:
    """(distinct, slots): the distinct angles of `angles`, and each angle's index in them."""
    index: dict = {}
    slots = tuple(index.setdefault(angle, len(index)) for angle in angles)
    return tuple(index), slots


class _TransferProgram:
    """A noisy circuit compiled into half-width Pauli-transfer ops (module doc).

    `start` is r after the channels before the first op. Each op is
    (gather, table, angles) for its k = len(angles) rotations: the new v is
    W (v[gather] * table), v in the previous op's output order, and `final`
    gathers r from the last op's order. `angles` lists the ops' distinct
    angles, bound once per run; with u = (0, 1, and cos t, sin t of each of
    them), op i's W is u[a] * u[b] on its slice of the flat index pair
    (_a, _b), which a run fills at once into the W views of `_plan` (module
    doc). `memo` keeps the program's states (module doc).
    """

    def __init__(self, start: np.ndarray, ops: tuple, final: np.ndarray):
        self.start, self.ops, self.final = start, ops, final
        self.angles, slots = _slotted(angle for *_, angles in ops for angle in angles)
        self.memo, self.pack = OrderedDict(), struct.Struct(f"{len(self.angles)}d").pack
        rotation_w = iter(np.array([[1, 0, 0], [0, 2 + 2 * k, 3 + 2 * k]]) for k in slots)  # W_i = u[index]
        factors = []  # each op's (a, b), W = u[a] * u[b]
        for *_, angles in ops:
            w1 = next(rotation_w)
            if len(angles) == 1:  # b reads u[1] = 1
                factors.append((w1, np.ones_like(w1)))
            else:  # kron(W2, W1)[i, j] = W2[i // 2, j // 3] W1[i % 2, j % 3]
                factors.append((next(rotation_w).repeat(2, axis=0).repeat(3, axis=1), np.tile(w1, (2, 3))))
        self._a, self._b = (np.fromiter(itertools.chain(*(f[i].flat for f in factors)), np.intp) for i in (0, 1))
        self._w = np.empty(len(self._a))
        views = np.split(self._w, np.cumsum([a.size for a, _ in factors])[:-1])
        self._plan = [(gather, table, w.reshape(a.shape)) for (gather, table, _), (a, _), w in zip(ops, factors, views)]

    def run(self, bound: list[float]) -> np.ndarray:
        """The Pauli vector r of the compiled circuit from |0...0><0...0|,
        `bound` = _bind(angles, bindings)."""
        r = self.start
        if self.ops:
            cos_sin = [x for t in bound for x in (math.cos(t), math.sin(t))]
            u = np.array([0.0, 1.0, *cos_sin])
            np.multiply(u[self._a], u[self._b], out=self._w)
            for gather, table, w in self._plan:
                x = r[gather]
                x *= table
                r = w.dot(x).ravel()  # np.dot's product, without its dispatch
            r = r[self.final]
        r.setflags(write=False)  # new or start: a QuantumState shares it
        return r


def _transfer_op(index: np.ndarray, at: np.ndarray, rotations: list) -> tuple[tuple, np.ndarray]:
    """(op, at of its output): the op of one rotation or a commuting pair,
    each (string P, sign, angle, damping after it), reading string E of the
    state at position at[E] (module doc)."""
    signs, classes = [], 0  # each rotation's B on all strings; each string's class
    for i, (string, sign, _, _) in enumerate(rotations):
        k = _power(string, index ^ string)
        signs.append(sign * (2 - k))
        classes = classes + ((k & 1) << i)
    order = np.argsort(classes, kind="stable").reshape(1 << len(rotations), -1)  # row c: class c
    gathers, tables = [], []
    # column (j_k, ..., j_1) of W reads, for rotation i, a class that commutes
    # (j_i = 0) or anticommutes (1) with P_i, or the latter through E ^ P_i (2)
    for column in itertools.product((0, 1, 2), repeat=len(rotations)):
        strings = order[sum((j > 0) << i for i, j in enumerate(reversed(column)))]
        table = np.ones(len(strings))
        for j, (string, _, _, damping), b in zip(column, reversed(rotations), reversed(signs)):
            table *= damping[strings]
            if j == 2:
                table *= b[strings]
                strings = strings ^ string
        gathers.append(at[strings])
        tables.append(table)
    out = np.empty_like(at)
    out[order.ravel()] = index
    return (np.array(gathers), np.array(tables), tuple(angle for _, _, angle, _ in rotations)), out


@lru_cache(maxsize=32)
def _program(circuit: Circuit, noise: NoiseModel | None) -> _KetProgram | _TransferProgram:
    """Compile `circuit` once per noise model, a ket program when noise is
    None, from one backward walk over its gates (module doc)."""
    n = circuit.n_qubits
    table = [[(a << 2 * q, 1.0) for a in range(4)] for q in range(n)]  # [q][a]: (image, sign)
    cliffords, rotations, segments = [], [], [[]]  # last first, but channels in order within a segment
    conjugations: dict = {}

    for gate in reversed(circuit.gates):
        if noise is not None:
            p, size = (noise.p1 if len(gate.qubits) == 1 else noise.p2), 4 ** len(gate.qubits)
            keep = 1.0 - size * p / (size - 1.0)
            if keep != 1.0:  # generators X_q and Z_q for q in the gate's qubits
                generators = [table[q][a][0] for q in gate.qubits for a in (1, 3)]
                segments[-1].insert(0, (keep, np.array(generators)))
        angle = gate.params[0] if gate.params else None
        conjugation = None
        if not isinstance(angle, Param):
            unitary = gate_matrix(gate.kind, gate.params)
            key = unitary.tobytes()
            if key not in conjugations:
                conjugations[key] = _conjugation(unitary)
            conjugation = conjugations[key]
        if conjugation is None:
            q, a = gate.qubits[0], _AXES[gate.kind]
            rotations.append((*table[q][a], angle if isinstance(angle, Param) else float(angle)))
            segments.append([])
            continue
        cliffords.append((gate.qubits, unitary))
        target, signs = conjugation
        shifts = [2 * (len(gate.qubits) - 1 - j) for j in range(len(gate.qubits))]
        old = [table[q] for q in gate.qubits]
        for q, shift in zip(gate.qubits, shifts):
            table[q] = [(0, 1.0)]
            for a in (1, 2, 3):  # C a_q C^dagger = s T, T one letter on each of the gate's qubits
                string, s = 0, signs[a << shift]
                for row, letter_shift in zip(old, shifts):
                    image, t = row[target[a << shift] >> letter_shift & 3]
                    s *= t * (1 - _power(string, image))
                    string ^= image
                table[q].append((string, s))
    rotations, segments = rotations[::-1], segments[::-1]

    if noise is None:
        ket = np.zeros((2,) * n, dtype=complex)  # axis n - 1 - q is qubit q
        ket.flat[0] = 1.0
        for qubits, unitary in reversed(cliffords):
            # einsum labels: ket axis a is a, the gate's inputs are n, n + 1
            outputs = [n - 1 - q for q in qubits]
            inputs = list(range(n, n + len(outputs)))
            labels = [inputs[outputs.index(a)] if a in outputs else a for a in range(n)]
            ket = np.einsum(unitary.reshape((2,) * 2 * len(outputs)), outputs + inputs, ket, labels)
        ket = ket.reshape(-1)
        index = np.arange(1 << n)
        ops = []
        for string, sign, angle in rotations:
            flip, phases = _action("".join("IXYZ"[string >> 2 * q & 3] for q in range(n - 1, -1, -1)))
            gather = index ^ flip
            ops.append((gather, -1j * sign * phases[gather], angle))
        ket.setflags(write=False)
        return _KetProgram(ket, tuple(ops))

    stabilizers, signs = np.zeros(1, dtype=np.int64), np.ones(1)  # doubled per generator (module doc)
    for g, s in (table[q][3] for q in range(n)):
        signs = np.append(signs, s * signs * (1 - _power(g, stabilizers)))
        stabilizers = np.append(stabilizers, stabilizers ^ g)
    index = np.arange(1 << 2 * n)
    dampings = _dampings(index, segments)
    start = np.zeros(len(index))
    start[stabilizers] = signs * next(dampings)[stabilizers]
    ops, at, i = [], index, 0  # at[E]: the position of string E in the state
    while i < len(rotations):  # a rotation pairs with the next when their axes differ and commute
        p, q = rotations[i][0], rotations[min(i + 1, len(rotations) - 1)][0]
        size = 2 if p != q and not _power(p, q) & 1 else 1
        op, at = _transfer_op(index, at, [rotation + (next(dampings),) for rotation in rotations[i:i + size]])
        ops.append(op)
        i += size
    start.setflags(write=False)
    return _TransferProgram(start, tuple(ops), at)


# A program's memo keeps at most 2^13 floats of states, and at least one state.
_MEMO_BYTES = 8 * 2**13


def _memoized(
    program: _KetProgram | _TransferProgram, bindings: Mapping[str, float] | None
) -> QuantumState:
    """The program's state at `bindings`: its memo's, or run and kept (module doc)."""
    bound = _bind(program.angles, bindings)
    key = program.pack(*bound)  # a tuple would take -0.0 for 0.0
    memo = program.memo
    state = memo.get(key)
    if state is None:
        out = program.run(bound)  # a NaN angle raises below, before the memo grows
        state = QuantumState(pauli=out) if isinstance(program, _TransferProgram) else QuantumState(out)
        if memo and (len(memo) + 1) * out.nbytes > _MEMO_BYTES:
            memo.popitem(last=False)  # the oldest
        memo[key] = state
    return state


def run_statevector(circuit: Circuit, bindings: Mapping[str, float] | None = None) -> QuantumState:
    """Noise-free execution from |0...0>."""
    return _memoized(_program(circuit, None), bindings)


def run_density(
    circuit: Circuit,
    bindings: Mapping[str, float] | None = None,
    noise: NoiseModel | None = None,
) -> QuantumState:
    """Density-matrix execution with per-gate depolarizing channels, held as r."""
    return _memoized(_program(circuit, noise or NoiseModel()), bindings)


_ROTATION = {"Z": np.eye(2, dtype=complex), "I": np.eye(2, dtype=complex),
             "X": _HADAMARD, "Y": _Y_TO_Z}


@lru_cache(maxsize=64)
def _basis_rotations(labels: tuple[str, ...]) -> np.ndarray:
    """The (G, 2^n, 2^n) stack of U per basis label, each the tensor product
    of the per-qubit rotations (qubit n-1 leftmost), read-only, for kets. It
    takes 16 * G * 4^n bytes, as much as G n-qubit density matrices."""
    one = np.ones((1, 1), dtype=complex)
    stack = np.stack([reduce(np.kron, (_ROTATION[ch] for ch in label), one) for label in labels])
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=64)
def _basis_tables(labels: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (index, signs) with index[g, S] the position of B_S for
    B = labels[g] and signs[S, x] = (-1)^|x & S| / 2^n (module doc)."""
    n = len(labels[0])
    subsets = np.arange(1 << n)
    on_s = sum(((subsets >> q) & 1) * (3 << 2 * q) for q in range(n))  # digits 3 on S
    index = np.array([pauli_index(label.replace("I", "Z")) & on_s for label in labels])
    signs = np.where(_parity(n)[subsets[:, None] & subsets], -1.0, 1.0) / (1 << n)
    index.setflags(write=False)
    signs.setflags(write=False)
    return index, signs


@lru_cache(maxsize=64)
def _widths(labels: tuple[str, ...]) -> frozenset[int]:
    """The widths of the basis labels, taken once per tuple of them."""
    return frozenset(map(len, labels))


def _basis_probabilities(state: QuantumState, labels: tuple[str, ...]) -> np.ndarray:
    """Row g is the outcome distribution of `state` measured in the basis
    labels[g] (basis letters I are measured as Z), from one batched product
    for all bases (module doc); each row equals the single-basis result bit
    for bit. The stack is read-only and kept on the state, one per tuple of
    labels."""
    probs = state._distributions.get(labels)
    if probs is not None:
        return probs
    n = state.n_qubits
    if not _widths(labels) <= {n}:
        wrong = next(label for label in labels if len(label) != n)
        raise ValueError(f"basis {wrong!r} does not match {n} qubits")
    if not labels:
        probs = np.zeros((0, 1 << n))
    elif state.is_density:
        index, signs = _basis_tables(labels)
        probs = (state.pauli[index][:, None] @ signs)[:, 0]  # per row, as for one basis
    else:
        probs = np.abs(_basis_rotations(labels) @ state.data) ** 2
    np.maximum(probs, 0.0, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    probs.setflags(write=False)
    state._distributions[labels] = probs
    return probs


# Sampled distributions are rounded to multiples of 2^-40 (see on_grid).
_GRID = 2.0**40


def on_grid(probs: np.ndarray) -> np.ndarray:
    """`probs`, one distribution or one per row, rounded onto a 2^-40 grid and
    renormalized. Generator.multinomial draws Binomial(n, p) for p > 1/2 as
    n - Binomial(n, 1 - p), so a 1-ulp change of an exactly tied distribution
    (a Hartree-Fock state in an X/Y basis) can swap fixed-seed counts; on the
    grid it does not. Rounding moves each probability by about 2^-41 at most
    and never draws an outcome less likely than that. Grid entries are
    integers below 2^53, so row sums are exact and each row of a stack equals
    that row rounded on its own."""
    grid = np.asarray(probs, dtype=float) * _GRID
    np.rint(grid, out=grid)
    grid /= grid.sum(axis=-1, keepdims=True)
    return grid


def _sampling_grid(
    state: QuantumState, labels: tuple[str, ...], confusion: ConfusionMatrix | None
) -> np.ndarray:
    """on_grid(p), or on_grid(C p) row by row for the readout matrix C =
    `confusion`, where p = _basis_probabilities(state, labels): the stack a
    shot evaluation draws from. It is read-only and kept on the state, one
    per labels and value of C (its bytes), or no C."""
    key = (labels, None if confusion is None else confusion._key)
    grid = state._distributions.get(key)
    if grid is None:
        probs = _basis_probabilities(state, labels)
        grid = on_grid(probs if confusion is None else probs @ confusion.matrix.T)
        grid.setflags(write=False)
        state._distributions[key] = grid
    return grid


def sample_counts(probs: np.ndarray, shots: int, seed) -> np.ndarray:
    """Draw `shots` outcomes from the distribution `probs`, as given; draw
    from on_grid(probs) for counts that 1-ulp changes of `probs` keep.

    `seed` is anything np.random.default_rng accepts; a Generator is used
    as is, so successive calls continue its stream.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    if (probs.ndim if isinstance(probs, np.ndarray) else np.ndim(probs)) != 1:
        raise ValueError(f"sample_counts draws from one distribution, got shape {np.shape(probs)}")
    return np.random.default_rng(seed).multinomial(shots, probs)


def apply_readout_noise(counts: np.ndarray, confusion: ConfusionMatrix, seed) -> np.ndarray:
    """Resample each shot's outcome i to j with probability C[j][i].

    One multinomial call draws counts[..., i] shots from column i of C for
    every outcome i and every row of a (G, 2^n) stack, rows in order, as G
    calls would; `seed` is anything np.random.default_rng accepts. Counts
    drawn from p and resampled here are Multinomial(N, C p) in law, so the
    evaluator draws once from C p instead.
    """
    if np.ndim(counts) > 2 or np.shape(counts)[-1:] != (confusion.dim,):
        raise ValueError(
            f"confusion matrix is for {confusion.n_qubits} qubits, "
            f"counts have shape {np.shape(counts)}"
        )
    rng = np.random.default_rng(seed)
    return rng.multinomial(counts, confusion.matrix.T).sum(axis=-2)
