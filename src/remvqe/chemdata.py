"""Builtin molecular datasets and Hamiltonian file ingestion.

Each dataset is a dissociation series: per interatomic distance r, a
qubit-reduced electronic Hamiltonian whose offset carries the nuclear
repulsion (plus the frozen-core energy for lih), alongside recorded
reference energies where available:

- e_exact_ref: exact energy of the Hartree-Fock determinant.
- e_exact_min: exact energy at the variational minimum of the matching
  ansatz family.
- e_exact_ground: lowest eigenvalue, recorded separately when the matching
  ansatz does not span the full ground state (lih hardware-efficient runs).

All energies are total energies in hartree; distances in angstrom. The
builtin datasets are the entries of `_moldata.DATASETS`, all built by one
function.
"""
from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from . import _moldata
from ._frozen import frozen
from .pauli import (
    PauliHamiltonian,
    basis_energy,
    ground_state_energy,
    parse_hamiltonian,
)

BUILTIN_NAMES = tuple(_moldata.DATASETS)


@frozen
class Geometry:
    r: float
    hamiltonian: PauliHamiltonian
    e_exact_ref: float | None = None
    e_exact_min: float | None = None
    e_exact_ground: float | None = None

    @property
    def ground_reference(self) -> float | None:
        """Recorded lowest exact energy (falls back to e_exact_min)."""
        return self.e_exact_ground if self.e_exact_ground is not None else self.e_exact_min


@frozen
class MoleculeDataset:
    name: str
    n_qubits: int
    hf_bitstring: str
    geometries: tuple[Geometry, ...]
    equilibrium_r: float

    def __post_init__(self) -> None:
        rs = [g.r for g in self.geometries]
        if any(b <= a for a, b in zip(rs, rs[1:])):
            raise ValueError(f"{self.name}: r values must be strictly increasing")
        for g in self.geometries:
            if g.hamiltonian.n_qubits != self.n_qubits:
                raise ValueError(
                    f"{self.name}: geometry r={g.r} has "
                    f"{g.hamiltonian.n_qubits} qubits, dataset declares {self.n_qubits}"
                )
        if len(self.hf_bitstring) != self.n_qubits:
            raise ValueError(f"{self.name}: hf_bitstring width mismatch")

    def geometry(self, r: float) -> Geometry:
        for g in self.geometries:
            if abs(g.r - r) <= 1e-9:
                return g
        known = ", ".join(f"{g.r:g}" for g in self.geometries)
        raise ValueError(f"{self.name} has no geometry r={r:g} (available: {known})")


def builtin(name: str) -> MoleculeDataset:
    """Embedded dissociation dataset for one of h2, heh+, lih, built once per
    name and shared: caches keyed by its frozen Hamiltonians hit by identity."""
    key = name.strip().lower()
    if key not in BUILTIN_NAMES:
        raise ValueError(
            f"unknown molecule {name!r}; builtin datasets are {', '.join(BUILTIN_NAMES)}. "
            "Larger systems (beh2 and up) have no embedded coefficients; supply a "
            "Hamiltonian text file via load()."
        )
    return _builtin(key)


@lru_cache(maxsize=None)
def _builtin(key: str) -> MoleculeDataset:
    """The dataset of one `_moldata.DATASETS` entry (layout in that module's doc)."""
    hf, equilibrium, labels, rows = _moldata.DATASETS[key]
    n_qubits = len(labels[0])
    geometries = tuple(
        Geometry(r, PauliHamiltonian(n_qubits, tuple(zip(labels, coeffs)), offset=offset), *energies)
        for r, coeffs, offset, *energies in rows
    )
    return MoleculeDataset(key, n_qubits, hf, geometries, equilibrium)


def load(path) -> PauliHamiltonian:
    """Parse a Hamiltonian text file (see the pauli module for the format)."""
    text = Path(path).read_text()
    try:
        return parse_hamiltonian(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


_AUDIT_TOL = 5e-4  # the recorded energies carry four decimals


def audit(ds: MoleculeDataset) -> list[str]:
    """Check every geometry's recorded energies against direct computation.

    Returns human-readable discrepancy descriptions; empty means the embedded
    coefficients reproduce their reference energies within _AUDIT_TOL. A
    failure indicates a transcription error in the data module, not a code error.
    """
    problems = []
    for g in ds.geometries:
        if g.e_exact_ref is not None:
            hf = basis_energy(g.hamiltonian, ds.hf_bitstring)
            if abs(hf - g.e_exact_ref) > _AUDIT_TOL:
                problems.append(
                    f"{ds.name} r={g.r:g}: HF energy {hf:.6f} vs recorded "
                    f"{g.e_exact_ref:.6f}"
                )
        target = g.ground_reference
        if target is not None:
            ground, _ = ground_state_energy(g.hamiltonian)
            if abs(ground - target) > _AUDIT_TOL:
                problems.append(
                    f"{ds.name} r={g.r:g}: ground energy {ground:.6f} vs recorded "
                    f"{target:.6f}"
                )
    return problems
