"""Parameterized quantum circuits: gate records, parameter slots, statistics.

A Circuit is an ordered gate list over n qubits. Gate angles are either plain
floats or Param slots (named free angles, optionally scaled) bound at
execution time by the simulator.
"""
from __future__ import annotations

from typing import Union

import numpy as np

from ._frozen import frozen

# kind -> (arity, number of angle parameters)
GATE_KINDS: dict[str, tuple[int, int]] = {
    "RX": (1, 1),
    "RY": (1, 1),
    "RZ": (1, 1),
    "X": (1, 0),
    "H": (1, 0),
    "CZ": (2, 0),
    "CNOT": (2, 0),
}


@frozen
class Param:
    """Named free angle; binds to scale * bindings[name] (sim._bind)."""

    name: str
    scale: float = 1.0

    def scaled(self, factor: float) -> "Param":
        return Param(self.name, self.scale * factor)


Angle = Union[float, Param]


@frozen
class Gate:
    kind: str
    qubits: tuple[int, ...]
    params: tuple[Angle, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity, n_params = GATE_KINDS[self.kind]
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} acts on {arity} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind} qubit indices must be distinct")
        if len(self.params) != n_params:
            raise ValueError(
                f"{self.kind} takes {n_params} parameter(s), got {len(self.params)}"
            )


@frozen
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        for gate in self.gates:
            if any(q < 0 or q >= self.n_qubits for q in gate.qubits):
                raise ValueError(
                    f"gate {gate.kind} on {gate.qubits} out of range for "
                    f"{self.n_qubits} qubits"
                )
        # The simulator looks its compiled programs up by circuit on every run;
        # hash the gate list once instead of on each lookup.
        object.__setattr__(self, "_hash", hash((self.n_qubits, self.gates)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: rebuild, never copy, _hash
        return (Circuit, (self.n_qubits, self.gates))

    @property
    def free_parameters(self) -> tuple[str, ...]:
        """Distinct free parameter names in first-appearance order."""
        seen: list[str] = []
        for gate in self.gates:
            for p in gate.params:
                if isinstance(p, Param) and p.name not in seen:
                    seen.append(p.name)
        return tuple(seen)


def circuit_stats(c: Circuit) -> tuple[int, int, int]:
    """(depth, two_qubit_gate_count, n_params).

    Depth is the longest dependency chain: each gate lands one step after the
    deepest qubit it touches.
    """
    level = [0] * c.n_qubits
    two_qubit = 0
    for gate in c.gates:
        d = 1 + max(level[q] for q in gate.qubits)
        for q in gate.qubits:
            level[q] = d
        if len(gate.qubits) == 2:
            two_qubit += 1
    depth = max(level) if c.gates else 0
    return depth, two_qubit, len(c.free_parameters)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def gate_matrix(kind: str, params: tuple[float, ...]) -> np.ndarray:
    """Unitary for `kind`; two-qubit matrices use (first qubit = most
    significant bit) ordering."""
    if kind == "RX":
        (t,) = params
        c, s = np.cos(t / 2), np.sin(t / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "RY":
        (t,) = params
        c, s = np.cos(t / 2), np.sin(t / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if kind == "RZ":
        (t,) = params
        return np.array([[np.exp(-1j * t / 2), 0], [0, np.exp(1j * t / 2)]])
    if kind == "X":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if kind == "H":
        return _INV_SQRT2 * np.array([[1, 1], [1, -1]], dtype=complex)
    if kind == "CZ":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if kind == "CNOT":
        # qubits = (control, target)
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    raise ValueError(f"unknown gate kind {kind!r}")
