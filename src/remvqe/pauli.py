"""Pauli-string algebra and Hamiltonian representation.

Provides the weighted-Pauli-sum Hamiltonian type used throughout the package,
the parity and sign tables of Z strings, a dense diagonalization oracle,
qubit-wise commuting measurement grouping, and the plain-text Hamiltonian
format. It knows no state format: sim holds and reads states.

Qubit-ordering convention: the leftmost character of a Pauli label acts on
qubit n-1, the rightmost on qubit 0, so basis index i corresponds to the
bitstring format(i, "0nb").
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._frozen import frozen

PAULI_CHARS = frozenset("IXYZ")


def _check_label(label, n_qubits: int) -> None:
    """Raise unless `label` is a str of `n_qubits` letters from IXYZ."""
    if not isinstance(label, str):
        raise TypeError(f"Pauli label must be a str, got {label!r}")
    bad = set(label) - PAULI_CHARS
    if bad:
        raise ValueError(f"invalid Pauli character(s) {sorted(bad)} in label {label!r}")
    if not label:
        raise ValueError("empty Pauli label")
    if len(label) != n_qubits:
        raise ValueError(
            f"term {label!r} has {len(label)} qubits, Hamiltonian declares {n_qubits}"
        )


def _support_mask(label: str) -> int:
    """Bit q set when the label acts on qubit q (0 = rightmost letter)."""
    return sum(1 << q for q, ch in enumerate(reversed(label)) if ch != "I")


@lru_cache(maxsize=32)
def _parity(bits: int) -> np.ndarray:
    """Read-only uint8 table of the parity of i's set bits for every i < 2^bits."""
    odd = np.zeros(1, dtype=np.uint8)
    while len(odd) < 1 << bits:  # i + 2^k has one bit more than i < 2^k
        odd = np.concatenate((odd, odd ^ 1))
    odd.setflags(write=False)
    return odd


@lru_cache(maxsize=4096)
def sign_table(n_qubits: int, mask: int) -> np.ndarray:
    """(-1)^(parity of i & mask) for every basis index i (read-only).

    This is the diagonal of the Z-string on the qubits set in `mask`: the
    eigenvalue a term contributes per outcome once it is rotated into the Z
    basis.
    """
    signs = np.where(_parity(n_qubits)[np.arange(1 << n_qubits) & mask], -1.0, 1.0)
    signs.setflags(write=False)
    return signs


@lru_cache(maxsize=4096)
def _action(label: str) -> tuple[int, np.ndarray]:
    """Return (flip_mask, phases) such that P|i> = phases[i] |i ^ flip_mask>."""
    flip = sum(1 << q for q, ch in enumerate(reversed(label)) if ch in "XY")
    sign_mask = sum(1 << q for q, ch in enumerate(reversed(label)) if ch in "YZ")
    phases = (1j) ** label.count("Y") * sign_table(len(label), sign_mask)
    return flip, phases.astype(complex)


@frozen
class PauliHamiltonian:
    """Real-weighted sum of Pauli strings plus a classical energy offset.

    Each term is a (label, coefficient) pair: n_qubits letters from IXYZ and
    a float. Duplicate labels are merged by summation at construction; the
    represented operator is Hermitian since coefficients are real. The merged
    coefficients and the offset must be finite.
    """

    n_qubits: int
    terms: tuple[tuple[str, float], ...]
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        merged: dict[str, float] = {}  # in first-seen order
        for label, coeff in self.terms:
            _check_label(label, self.n_qubits)
            merged[label] = merged.get(label, 0.0) + float(coeff)
        terms = tuple(merged.items())
        offset = float(self.offset)
        for label, value in (*terms, ("offset", offset)):  # no label reads "offset"
            if not math.isfinite(value):
                name = "offset" if label == "offset" else f"coefficient of term {label!r}"
                raise ValueError(f"{name} must be finite, got {value}")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "offset", offset)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def coefficient(self, label: str) -> float:
        """Coefficient of `label`, 0.0 if absent."""
        return dict(self.terms).get(label, 0.0)


def basis_energy(h: PauliHamiltonian, bitstring: str) -> float:
    """<b| H |b> for the basis state |bitstring> (leftmost char = qubit n-1).

    Only Z-only terms have a diagonal; each contributes its coefficient times
    the term's sign at that basis index, summed in term order with the offset
    added last, the same float sum sim.expectation forms on that state.
    """
    index = int(bitstring, 2)
    total = 0.0
    for label, coeff in h.terms:
        if set(label) <= {"I", "Z"}:
            total += coeff * sign_table(h.n_qubits, _support_mask(label))[index]
    return float(total) + h.offset


_DENSE_LIMIT = 12


def to_dense_matrix(h: PauliHamiltonian) -> np.ndarray:
    """Dense 2^n x 2^n Hermitian matrix with the offset on the diagonal."""
    if h.n_qubits > _DENSE_LIMIT:
        raise ValueError(
            f"dense construction limited to {_DENSE_LIMIT} qubits, got {h.n_qubits}"
        )
    dim = 1 << h.n_qubits
    actions = [_action(label) for label, _ in h.terms]
    rows = np.array([coeff for _, coeff in h.terms])[:, None] * np.reshape(
        [phases for _, phases in actions], (-1, dim))
    # row f sums, in term order, the terms that flip f: entry i is <i ^ f| H |i>
    by_flip = np.zeros((dim, dim), dtype=complex)
    for (flip, _), row in zip(actions, rows):
        by_flip[flip] += row
    idx = np.arange(dim)
    mat = np.empty((dim, dim), dtype=complex)
    mat[idx ^ idx[:, None], idx] = by_flip
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


def group_terms(h: PauliHamiltonian) -> list[tuple[str, tuple[int, ...]]]:
    """Greedy first-fit grouping of terms into qubit-wise compatible bases.

    Returns (basis label, member term indices) pairs. Every term lands in
    exactly one group, groups keep first-seen order, each basis letter is one
    of Z, X, Y, and unconstrained slots default to Z.
    """
    bases: list[list[str | None]] = []  # letter per label position, None while free
    members: list[list[int]] = []
    for t, (label, _) in enumerate(h.terms):
        for basis, mem in zip(bases, members):
            if all(ch == "I" or basis[i] in (None, ch) for i, ch in enumerate(label)):
                for i, ch in enumerate(label):
                    if ch != "I":
                        basis[i] = ch
                mem.append(t)
                break
        else:
            bases.append([None if ch == "I" else ch for ch in label])
            members.append([t])
    return [("".join(ch or "Z" for ch in basis), tuple(mem)) for basis, mem in zip(bases, members)]


# --- plain-text Hamiltonian format ------------------------------------------
#
# UTF-8 lines; '#' starts a comment; header lines `qubits=<n>` and
# `offset=<real>`, each at most once; term lines `<label> <coefficient>`.


def format_hamiltonian(h: PauliHamiltonian) -> str:
    lines = [f"qubits={h.n_qubits}", f"offset={h.offset!r}"]
    lines += [f"{label} {coeff!r}" for label, coeff in h.terms]
    return "\n".join(lines) + "\n"


def parse_hamiltonian(text: str) -> PauliHamiltonian:
    """Parse the text format; raises ValueError with a line number on errors."""
    n_qubits: int | None = None
    offset = 0.0
    terms: list[tuple[str, float]] = []
    headers: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key in headers:
                raise ValueError(f"line {lineno}: duplicate header {key!r}")
            headers.add(key)
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
            _check_label(label, n_qubits)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}")
        try:
            coeff = float(coeff_text)
        except ValueError:
            raise ValueError(f"line {lineno}: bad coefficient {coeff_text!r}")
        terms.append((label, coeff))
    if n_qubits is None:
        raise ValueError("missing qubits= header")
    if not terms:
        raise ValueError("no Pauli terms found")
    return PauliHamiltonian(n_qubits, tuple(terms), offset)
