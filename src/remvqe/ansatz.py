"""Variational circuit families and Hartree-Fock state preparation.

Three families are provided:

- ``compact-uccd``: the 1-parameter H2 circuit preparing
  cos(theta/2)|01> - sin(theta/2)|10> with a single entangling gate.
- ``uccsd``: unitary coupled cluster with singles and doubles, one Trotter
  step. Each excitation k contributes blocks exp(-i * s * theta_k / 2 * P)
  for its Pauli strings (P, s), realized as basis rotations, a CNOT parity
  ladder over the string's support, RZ(s * theta_k), and the unwind.
- ``hardware-efficient``: three RY layers with fixed CZ entangler layers
  between them, over the T map on 4 qubits and a chain otherwise.

Binding every parameter to 0 reproduces the Hartree-Fock reference state up
to global phase for all families; this coincidence is what lets the
reference-state correction reuse the initial evaluation for free.

Qubit/bit convention: the leftmost character of ``hf_bitstring`` (and of
every Pauli label) is the highest-numbered qubit.
"""
from __future__ import annotations

import math
from functools import lru_cache

from ._frozen import frozen
from .circuits import Circuit, Gate, Param

_FAMILIES = ("compact-uccd", "uccsd", "hardware-efficient")

# Entangler layers of the hardware-efficient family; it has one more RY layer.
_HWE_LAYERS = 2
# Its CZ connectivity on 4 qubits: a T-shaped map with qubit 1 as the hub.
T_MAP = ((0, 1), (1, 2), (1, 3))


# Spin-orbital excitations for the two occupied-virtual layouts used by the
# builtin molecules, parity-mapped and reduced to the stated qubit counts.
# Entry k expands exp(t_k (T - T+)) into (label, sign) Pauli strings; the
# singles come first, then the doubles.
# Signs and prefactors were fixed by matching the energy minima of the
# embedded Hamiltonians; amplitude normalization is absorbed into theta.
_UCCSD_2Q = (
    (("IY", 1),),
    (("YI", -1),),
    (("XY", 1), ("YX", -1)),
)

_UCCSD_4Q = (
    (("IIIY", 1), ("IIZY", -1)),
    (("IIXY", 1), ("IIYX", 1)),
    (("IYII", -1), ("ZYII", -1)),
    (("XYII", -1), ("YXII", -1)),
    (("IXIY", 1), ("IXZY", -1), ("IYIX", -1), ("IYZX", 1),
     ("ZXIY", 1), ("ZXZY", -1), ("ZYIX", -1), ("ZYZX", 1)),
    (("XXIY", 1), ("XXZY", -1), ("XYIX", -1), ("XYZX", 1),
     ("YXIX", -1), ("YXZX", 1), ("YYIY", -1), ("YYZY", 1)),
    (("IXXY", 1), ("IXYX", 1), ("IYXX", -1), ("IYYY", 1),
     ("ZXXY", 1), ("ZXYX", 1), ("ZYXX", -1), ("ZYYY", 1)),
    (("XXXY", 1), ("XXYX", 1), ("XYXX", -1), ("XYYY", 1),
     ("YXXX", -1), ("YXYY", 1), ("YYXY", -1), ("YYYX", -1)),
)


def uccsd_excitations(n_qubits: int) -> tuple:
    """Singles-and-doubles tables for the supported reduced systems.

    Entry k holds excitation k's (label, sign) strings; it drives t{k}.
    """
    if n_qubits == 2:
        return _UCCSD_2Q
    if n_qubits == 4:
        return _UCCSD_4Q
    raise ValueError(f"uccsd excitation tables cover 2 or 4 qubits, not {n_qubits}")


@frozen
class AnsatzSpec:
    """A circuit family on `n_qubits` qubits, starting from |hf_bitstring>.

    The family and the qubit count fix the rest: UCCSD's excitation table,
    and the hardware-efficient layer count and CZ map.
    """

    family: str
    n_qubits: int
    hf_bitstring: str

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown ansatz family {self.family!r}")
        if self.family == "compact-uccd" and self.n_qubits != 2:
            raise ValueError("the compact ansatz is 2-qubit only")
        if len(self.hf_bitstring) != self.n_qubits or set(self.hf_bitstring) - {"0", "1"}:
            raise ValueError(
                f"hf_bitstring {self.hf_bitstring!r} is not a {self.n_qubits}-bit string"
            )
        if self.family == "compact-uccd" and self.hf_bitstring != "01":
            raise ValueError("the compact ansatz starts from the reference state 01")
        if self.family == "uccsd":
            uccsd_excitations(self.n_qubits)
        object.__setattr__(self, "_names", tuple(f"t{k}" for k in range(self.n_params)))

    @property
    def n_params(self) -> int:
        if self.family == "compact-uccd":
            return 1
        if self.family == "uccsd":
            return len(uccsd_excitations(self.n_qubits))
        return self.n_qubits * (_HWE_LAYERS + 1)

    def parameter_names(self) -> tuple[str, ...]:
        return self._names


def hartree_fock_circuit(spec: AnsatzSpec) -> Circuit:
    """X gates preparing |hf_bitstring> from |0...0>."""
    gates = [
        Gate("X", (q,))
        for q in range(spec.n_qubits)
        if spec.hf_bitstring[spec.n_qubits - 1 - q] == "1"
    ]
    return Circuit(spec.n_qubits, tuple(gates))


def _pauli_block(label: str, angle: Param) -> tuple[Gate, ...]:
    """exp(-i * angle / 2 * P): basis change, parity ladder, RZ, unwind."""
    n = len(label)
    support = [q for q in range(n) if label[n - 1 - q] != "I"]
    enter: list[Gate] = []
    for q in support:
        ch = label[n - 1 - q]
        if ch == "X":
            enter.append(Gate("H", (q,)))
        elif ch == "Y":
            enter.append(Gate("RX", (q,), (0.5 * math.pi,)))
    ladder = [Gate("CNOT", (support[i], support[i + 1])) for i in range(len(support) - 1)]
    core = [Gate("RZ", (support[-1],), (angle,))]
    unwind: list[Gate] = []
    for q in reversed(support):
        ch = label[n - 1 - q]
        if ch == "X":
            unwind.append(Gate("H", (q,)))
        elif ch == "Y":
            unwind.append(Gate("RX", (q,), (-0.5 * math.pi,)))
    return tuple(enter + ladder + core + list(reversed(ladder)) + unwind)


@lru_cache(maxsize=64)
def ansatz_circuit(spec: AnsatzSpec) -> Circuit:
    """Reference-state prep, then the family's gates with free angles t0..t{k-1}."""
    n = spec.n_qubits
    gates = list(hartree_fock_circuit(spec).gates)
    if spec.family == "compact-uccd":
        # cos(t/2)|01> - sin(t/2)|10>: on any two-qubit Hamiltonian restricted
        # to this block, E(t) is exactly C + A cos(t - alpha)
        gates += [Gate("RY", (1,), (Param("t0", -1.0),)), Gate("CNOT", (1, 0))]
    elif spec.family == "uccsd":
        for k, strings in enumerate(uccsd_excitations(n)):
            theta = Param(f"t{k}")
            for label, sign in strings:
                gates.extend(_pauli_block(label, theta.scaled(float(sign))))
    else:
        pairs = T_MAP if n == 4 else tuple((q, q + 1) for q in range(n - 1))
        for layer in range(_HWE_LAYERS + 1):
            if layer:
                gates.extend(Gate("CZ", pair) for pair in pairs)
            gates.extend(Gate("RY", (q,), (Param(f"t{layer * n + q}"),)) for q in range(n))
    return Circuit(n, tuple(gates))


def h2_compact_spec() -> AnsatzSpec:
    return AnsatzSpec("compact-uccd", 2, "01")


def uccsd_spec(n_qubits: int, hf_bitstring: str | None = None) -> AnsatzSpec:
    if hf_bitstring is None:
        hf_bitstring = "01" if n_qubits == 2 else "0011"
    return AnsatzSpec("uccsd", n_qubits, hf_bitstring)
