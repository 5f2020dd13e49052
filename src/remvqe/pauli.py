"""Pauli-string algebra and Hamiltonian representation.

Provides the weighted-Pauli-sum Hamiltonian type used throughout the package,
exact expectation values of kets and of density states' Pauli vectors, a dense
diagonalization oracle, qubit-wise commuting measurement grouping, and the
plain-text Hamiltonian format.

Qubit-ordering convention: the leftmost character of a Pauli label acts on
qubit n-1, the rightmost on qubit 0, so basis index i corresponds to the
bitstring format(i, "0nb").
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

PAULI_CHARS = frozenset("IXYZ")


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit I/X/Y/Z operators, stored as a label."""

    label: str

    def __post_init__(self) -> None:
        bad = set(self.label) - PAULI_CHARS
        if bad:
            raise ValueError(
                f"invalid Pauli character(s) {sorted(bad)} in label {self.label!r}"
            )
        if not self.label:
            raise ValueError("empty Pauli label")

    @property
    def n_qubits(self) -> int:
        return len(self.label)

    def char_on(self, qubit: int) -> str:
        """Single-qubit letter acting on `qubit` (0 = rightmost label char)."""
        return self.label[len(self.label) - 1 - qubit]

    @property
    def support(self) -> tuple[int, ...]:
        """Qubits acted on non-trivially, ascending."""
        return tuple(q for q, ch in enumerate(reversed(self.label)) if ch != "I")

    @cached_property
    def support_mask(self) -> int:
        """The support as a bit mask (bit q set when qubit q is acted on)."""
        return sum(1 << q for q in self.support)

    def __str__(self) -> str:
        return self.label


def parse_pauli(text: str, n_qubits: int) -> PauliString:
    """Validate `text` as a Pauli label of exactly `n_qubits` characters."""
    if len(text) != n_qubits:
        raise ValueError(
            f"Pauli label {text!r} has length {len(text)}, expected {n_qubits}"
        )
    return PauliString(text)


@lru_cache(maxsize=4096)
def sign_table(n_qubits: int, mask: int) -> np.ndarray:
    """(-1)^(parity of i & mask) for every basis index i (read-only).

    This is the diagonal of the Z-string on the qubits set in `mask`: the
    eigenvalue a term contributes per outcome once it is rotated into the Z
    basis.
    """
    masked = np.arange(1 << n_qubits) & mask
    parity = np.zeros(1 << n_qubits, dtype=np.int64)
    for q in range(n_qubits):
        parity ^= (masked >> q) & 1
    signs = np.where(parity, -1.0, 1.0)
    signs.setflags(write=False)
    return signs


def pauli_index(label: str) -> int:
    """Position of `label` in a Pauli vector: base-4 digit q is qubit q's I, X, Y, Z = 0-3."""
    return sum("IXYZ".index(ch) << 2 * q for q, ch in enumerate(reversed(label)))


# One qubit's Pauli coefficients (I, X, Y, Z) to its 2 x 2 block of rho,
# (row, column) = 00, 01, 10, 11, with the 1/2 of rho's 1/2^n.
_TO_RHO = 0.5 * np.array([[1, 0, 0, 1], [0, 1, -1j, 0], [0, 1, 1j, 0], [1, 0, 0, -1]])


def _density_matrix(r: np.ndarray) -> np.ndarray:
    """rho = sum_P r_P P / 2^n: a 4 x 4 product per qubit, then rows before columns."""
    n = (len(r).bit_length() - 1) // 2
    for _ in range(n):
        r = r.reshape(4, -1).T @ _TO_RHO.T
    bits = r.reshape((2,) * 2 * n)  # row and column bit of qubit n - 1 first
    return bits.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]).reshape(1 << n, 1 << n)


@lru_cache(maxsize=4096)
def _action(label: str) -> tuple[int, np.ndarray]:
    """Return (flip_mask, phases) such that P|i> = phases[i] |i ^ flip_mask>."""
    flip = sum(1 << q for q, ch in enumerate(reversed(label)) if ch in "XY")
    sign_mask = sum(1 << q for q, ch in enumerate(reversed(label)) if ch in "YZ")
    phases = (1j) ** label.count("Y") * sign_table(len(label), sign_mask)
    return flip, phases.astype(complex)


@dataclass(frozen=True)
class PauliHamiltonian:
    """Real-weighted sum of Pauli strings plus a classical energy offset.

    Duplicate labels are merged by summation at construction; the represented
    operator is Hermitian since coefficients are real.
    """

    n_qubits: int
    terms: tuple[tuple[PauliString, float], ...]
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        merged: dict[str, float] = {}
        order: list[str] = []
        for entry in self.terms:
            pauli, coeff = entry
            if isinstance(pauli, str):
                pauli = PauliString(pauli)
            if pauli.n_qubits != self.n_qubits:
                raise ValueError(
                    f"term {pauli.label!r} has {pauli.n_qubits} qubits, "
                    f"Hamiltonian declares {self.n_qubits}"
                )
            if pauli.label not in merged:
                merged[pauli.label] = 0.0
                order.append(pauli.label)
            merged[pauli.label] += float(coeff)
        labelled = tuple((lbl, merged[lbl]) for lbl in order)
        object.__setattr__(self, "terms", tuple((PauliString(lbl), c) for lbl, c in labelled))
        object.__setattr__(self, "offset", float(self.offset))
        # Per-Hamiltonian caches look h up on every evaluation, often with an
        # equal copy: hash and compare plain labels and floats, keyed once.
        object.__setattr__(self, "_key", (self.n_qubits, labelled, self.offset))
        object.__setattr__(self, "_hash", hash(self._key))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key == other._key

    def __reduce__(self):
        # string hashes differ between processes: rebuild, never copy, _hash
        return (PauliHamiltonian, (self.n_qubits, self.terms, self.offset))

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def coefficient(self, label: str) -> float:
        """Coefficient of `label`, 0.0 if absent."""
        for pauli, coeff in self.terms:
            if pauli.label == label:
                return coeff
        return 0.0


@dataclass(frozen=True)
class MeasurementGroup:
    """Qubit-wise compatible terms measurable with one basis rotation.

    `basis` has one letter per qubit from {Z, X, Y} (identity slots absorbed
    into Z); every member term's non-identity letters match the basis.
    """

    basis: PauliString
    members: tuple[int, ...]


def expectation(h: PauliHamiltonian, state) -> float:
    """<psi| H |psi> or Tr(H rho), including the classical offset.

    `state` is a norm-1 amplitude vector psi or a QuantumState; a density
    matrix is passed as QuantumState(pauli=r), its Pauli vector. A density
    state gives sum_t c_t r[P_t] (Tr(P rho) = r_P; positions cached per
    Hamiltonian); a ket acts through the terms' dense matrix (cached, n
    bounded as in to_dense_matrix). The offset is added last.
    """
    dim = 1 << h.n_qubits
    r = getattr(state, "pauli", None)
    arr = np.asarray(getattr(state, "data", state)) if r is None else r
    if arr.ndim == 2:
        raise ValueError("a density matrix is passed as QuantumState(pauli=r)")
    if r is not None and arr.shape == (dim * dim,):
        index, coeffs = _term_vectors(h)
        value = np.dot(coeffs, r[index])
    elif r is None and arr.shape == (dim,):
        value = np.vdot(arr, _terms_matrix(h) @ arr).real
    else:
        raise ValueError(f"state dimension {arr.shape} does not match {h.n_qubits} qubits")
    return float(value) + h.offset


@lru_cache(maxsize=64)
def _term_vectors(h: PauliHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Each term's position in a Pauli vector and its coefficient, read-only."""
    index = np.array([pauli_index(pauli.label) for pauli, _ in h.terms], dtype=np.int64)
    coeffs = np.array([coeff for _, coeff in h.terms], dtype=float)
    index.setflags(write=False)
    coeffs.setflags(write=False)
    return index, coeffs


def basis_energy(h: PauliHamiltonian, bitstring: str) -> float:
    """<b| H |b> for the basis state |bitstring> (leftmost char = qubit n-1).

    Only Z-only terms have a diagonal; each contributes its coefficient times
    the term's sign at that basis index, summed in term order with the offset
    added last, the same float sum expectation() forms on that state.
    """
    index = int(bitstring, 2)
    total = 0.0
    for pauli, coeff in h.terms:
        if set(pauli.label) <= {"I", "Z"}:
            total += coeff * sign_table(h.n_qubits, pauli.support_mask)[index]
    return float(total) + h.offset


_DENSE_LIMIT = 12


def to_dense_matrix(h: PauliHamiltonian) -> np.ndarray:
    """Dense 2^n x 2^n Hermitian matrix with the offset on the diagonal."""
    if h.n_qubits > _DENSE_LIMIT:
        raise ValueError(
            f"dense construction limited to {_DENSE_LIMIT} qubits, got {h.n_qubits}"
        )
    dim = 1 << h.n_qubits
    mat = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim)
    for pauli, coeff in h.terms:
        flip, phases = _action(pauli.label)
        mat[idx ^ flip, idx] += coeff * phases
    mat[idx, idx] += h.offset
    return mat


@lru_cache(maxsize=64)
def _terms_matrix(h: PauliHamiltonian) -> np.ndarray:
    """Read-only dense matrix of h's terms without the offset."""
    mat = to_dense_matrix(PauliHamiltonian(h.n_qubits, h.terms))
    mat.setflags(write=False)
    return mat


def ground_state_energy(h: PauliHamiltonian) -> tuple[float, np.ndarray]:
    """Minimum eigenvalue and eigenvector of the dense matrix (exact oracle)."""
    eigvals, eigvecs = np.linalg.eigh(to_dense_matrix(h))
    return float(eigvals[0]), eigvecs[:, 0]


def group_terms(h: PauliHamiltonian) -> list[MeasurementGroup]:
    """Greedy first-fit grouping of terms into qubit-wise compatible bases.

    Every term lands in exactly one group, groups keep first-seen order, and
    unconstrained basis slots default to Z.
    """
    n = h.n_qubits
    bases: list[list[str | None]] = []
    members: list[list[int]] = []
    for t, (pauli, _) in enumerate(h.terms):
        letters = [pauli.char_on(q) for q in range(n)]
        for basis, mem in zip(bases, members):
            if all(ch == "I" or basis[q] in (None, ch) for q, ch in enumerate(letters)):
                for q, ch in enumerate(letters):
                    if ch != "I":
                        basis[q] = ch
                mem.append(t)
                break
        else:
            bases.append([ch if ch != "I" else None for ch in letters])
            members.append([t])
    groups = []
    for basis, mem in zip(bases, members):
        label = "".join((basis[q] or "Z") for q in reversed(range(n)))
        groups.append(MeasurementGroup(PauliString(label), tuple(mem)))
    return groups


def is_compatible(term: PauliString, basis: PauliString) -> bool:
    """True when every non-identity letter of `term` matches `basis`."""
    return all(ch in ("I", b) for ch, b in zip(term.label, basis.label, strict=True))


# --- plain-text Hamiltonian format ------------------------------------------
#
# UTF-8 lines; '#' starts a comment; header lines `qubits=<n>` and
# `offset=<real>`; term lines `<label> <coefficient>`.


def format_hamiltonian(h: PauliHamiltonian) -> str:
    lines = [f"qubits={h.n_qubits}", f"offset={h.offset!r}"]
    lines += [f"{pauli.label} {coeff!r}" for pauli, coeff in h.terms]
    return "\n".join(lines) + "\n"


def parse_hamiltonian(text: str) -> PauliHamiltonian:
    """Parse the text format; raises ValueError with a line number on errors."""
    n_qubits: int | None = None
    offset = 0.0
    terms: list[tuple[str, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "qubits":
                try:
                    n_qubits = int(value)
                except ValueError:
                    raise ValueError(f"line {lineno}: bad qubit count {value!r}")
                if n_qubits < 1:
                    raise ValueError(f"line {lineno}: qubit count must be positive")
            elif key == "offset":
                try:
                    offset = float(value)
                except ValueError:
                    raise ValueError(f"line {lineno}: bad offset {value!r}")
            else:
                raise ValueError(f"line {lineno}: unknown header {key!r}")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(
                f"line {lineno}: expected '<label> <coefficient>', got {raw!r}"
            )
        if n_qubits is None:
            raise ValueError(f"line {lineno}: term before qubits= header")
        label, coeff_text = parts
        try:
            pauli = parse_pauli(label, n_qubits)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}")
        try:
            coeff = float(coeff_text)
        except ValueError:
            raise ValueError(f"line {lineno}: bad coefficient {coeff_text!r}")
        terms.append((pauli.label, coeff))
    if n_qubits is None:
        raise ValueError("missing qubits= header")
    if not terms:
        raise ValueError("no Pauli terms found")
    return PauliHamiltonian(n_qubits, tuple(terms), offset)
